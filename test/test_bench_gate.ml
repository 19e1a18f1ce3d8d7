(* Tests for the committed-baseline gate shared by the bench binaries:
   lookups confined to one tagged entry, the tolerance rules at their
   boundaries, the baseline writer read back, and command-line flags. *)

let with_file contents f =
  let file = Filename.temp_file "bench_gate" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let with_baseline ?(key = "config") contents f =
  with_file contents (fun file ->
      match Bench_gate.read ~key file with
      | Ok t -> f t
      | Error msg -> Alcotest.failf "read failed: %s" msg)

let num = Alcotest.(option (float 0.0))

let lookup t tag field = Bench_gate.lookup t ~tag ~field

let test_lookup_confined () =
  (* "full" lacks "availability"; the next entry has one. *)
  with_baseline
    {|{"configs": [
  {"config":"full","delivered":10001,"failback_ms":0.360},
  {"config":"sender_aware","delivered":10001,"availability":0.6700}
]}|}
    (fun t ->
      Alcotest.check num "own field" (Some 10001.0)
        (lookup t "full" "delivered");
      Alcotest.check num "neighbour's field not borrowed" None
        (lookup t "full" "availability");
      Alcotest.check num "neighbour has it" (Some 0.67)
        (lookup t "sender_aware" "availability");
      Alcotest.check num "field before the tag" (Some 0.36)
        (lookup t "full" "failback_ms"))

let test_lookup_nested_not_borrowed () =
  (* A sharded entry nests per-shard objects with the same field names;
     the entry's own field is the only one that counts. *)
  with_baseline ~key:"engine"
    {|{"engines": [
  {"engine":"heap-d2","pps":1.5,"shards":[{"shard":0,"markers":7}]},
  {"engine":"heap","markers":9}
]}|}
    (fun t ->
      Alcotest.check num "nested field not read" None
        (lookup t "heap-d2" "markers");
      Alcotest.check num "top-level field" (Some 1.5)
        (lookup t "heap-d2" "pps"))

let test_lookup_missing_tag () =
  with_baseline {|{"configs":[{"config":"a","x":1}]}|} (fun t ->
      Alcotest.check num "absent tag" None (lookup t "b" "x");
      Alcotest.check num "wrong key" None
        (Bench_gate.lookup t ~tag:"x" ~field:"x"))

let test_lookup_tag_prefix () =
  with_baseline ~key:"engine"
    {|{"engines":[
  {"engine":"calendar-quick","pps":2.0,"markers":38448},
  {"engine":"calendar","pps":1.0}
]}|}
    (fun t ->
      Alcotest.check num "exact tag" (Some 1.0) (lookup t "calendar" "pps");
      Alcotest.check num "longer tag" (Some 2.0)
        (lookup t "calendar-quick" "pps");
      Alcotest.check num "prefix does not match the longer entry" None
        (lookup t "calendar" "markers");
      Alcotest.check num "tag is not a prefix match" None
        (lookup t "cal" "pps"))

let test_lookup_duplicate_tag () =
  with_baseline {|{"configs":[{"config":"a","x":1},{"config":"a","x":2}]}|}
    (fun t -> Alcotest.check num "ambiguous tag" None (lookup t "a" "x"))

let test_malformed_numbers () =
  with_baseline
    {|{"configs":[{"config":"a","s":"12","dots":1.2.3,"nan":nan,"inf":1e999,
  "hex":0x10,"bool":true,"neg":-1.000,"exp":2.5e3}]}|}
    (fun t ->
      List.iter
        (fun field -> Alcotest.check num field None (lookup t "a" field))
        [ "s"; "dots"; "nan"; "inf"; "hex"; "bool" ];
      Alcotest.check num "negative" (Some (-1.0)) (lookup t "a" "neg");
      Alcotest.check num "exponent" (Some 2500.0) (lookup t "a" "exp"))

let test_read_errors () =
  let is_error = function Ok _ -> false | Error _ -> true in
  List.iter
    (fun (name, contents) ->
      with_file contents (fun file ->
          Alcotest.(check bool) name true
            (is_error (Bench_gate.read ~key:"config" file))))
    [
      ("truncated", {|{"configs":[{"config":"a","x":1}|});
      ("trailing garbage", {|{"configs":[]} x|});
      ("missing colon", {|{"configs" []}|});
      ("empty", "");
    ];
  Alcotest.(check bool)
    "missing file" true
    (is_error (Bench_gate.read ~key:"config" "no/such/baseline.json"))

let test_rules () =
  let open Bench_gate in
  let pass name rule ~committed current =
    Alcotest.(check bool) name true (passes rule ~committed current)
  and reject name rule ~committed current =
    Alcotest.(check bool) name false (passes rule ~committed current)
  in
  pass "floor at the floor" (Floor 0.25) ~committed:100.0 75.0;
  reject "floor just below" (Floor 0.25) ~committed:100.0 74.99;
  pass "ceiling with slack at the limit"
    (Ceiling { rel = 0.5; abs = 0.25 })
    ~committed:2.0 3.25;
  reject "ceiling just above"
    (Ceiling { rel = 0.5; abs = 0.25 })
    ~committed:2.0 3.2501;
  pass "time at the ceiling" (Time_ceiling 0.5) ~committed:2.0 4.0;
  reject "time just above" (Time_ceiling 0.5) ~committed:2.0 4.01;
  reject "time never after committed recovery" (Time_ceiling 0.5)
    ~committed:2.0 (-1.0);
  pass "committed never accepts never" (Time_ceiling 0.5) ~committed:(-1.0)
    (-1.0);
  pass "committed never accepts anything" (Time_ceiling 0.5)
    ~committed:(-1.0) 1e9;
  pass "zero committed gets 1 ms" (Time_ceiling 0.05) ~committed:0.0 1.0;
  pass "exact" Exact ~committed:38448.0 38448.0;
  reject "exact off by one" Exact ~committed:38448.0 38449.0;
  pass "within tolerance" (Within 5e-5) ~committed:0.1566 0.15664;
  reject "outside tolerance" (Within 5e-5) ~committed:0.1566 0.15666;
  List.iter
    (fun rule -> reject "NaN fails" rule ~committed:1.0 Float.nan)
    [
      Floor 0.1;
      Ceiling { rel = 0.1; abs = 0.0 };
      Time_ceiling 0.1;
      Exact;
      Within 1.0;
    ]

let test_write_read_back () =
  let file = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Bench_gate.(
        write file
          ~header:
            [
              ("scenario", Str "demo, 80% load");
              ("n", Int 3);
              ( "baseline",
                Obj [ ("engine", Str "old"); ("pps", Num (1, 7.0)) ] );
            ]
          ~array:"engines"
          [
            [
              ("engine", Str "heap");
              ("pps", Num (1, 123.45));
              ("ok", Bool true);
              ("shards", List [ Obj [ ("pps", Int 1) ] ]);
            ];
            [ ("engine", Str "heap-quick"); ("pps", Num (0, 99.5)) ];
          ]);
      Alcotest.(check string)
        "layout"
        {|{
  "scenario": "demo, 80% load",
  "n": 3,
  "baseline": {"engine":"old","pps":7.0},
  "engines": [
    {"engine":"heap","pps":123.5,"ok":true,"shards":[{"pps":1}]},
    {"engine":"heap-quick","pps":100}
  ]
}
|}
        (In_channel.with_open_bin file In_channel.input_all);
      match Bench_gate.read ~key:"engine" file with
      | Error msg -> Alcotest.failf "read back failed: %s" msg
      | Ok t ->
        Alcotest.check num "entry" (Some 123.5) (lookup t "heap" "pps");
        Alcotest.check num "quick entry" (Some 100.0)
          (lookup t "heap-quick" "pps");
        Alcotest.check num "header object" (Some 7.0) (lookup t "old" "pps"))

let test_flags () =
  let repeat = ref 0 and regress = ref 0.0 and quick = ref false in
  let specs =
    Bench_gate.Flag.
      [
        ("--repeat", Int (( := ) repeat));
        ("--max-regress", Float (( := ) regress));
        ("--quick", Unit (fun () -> quick := true));
      ]
  in
  let result = Alcotest.(result unit string) in
  let parse args = Bench_gate.Flag.parse_list specs args in
  Alcotest.check result "well-formed" (Ok ())
    (parse [ "--repeat"; "-2"; "--quick"; "--max-regress"; "0.30" ]);
  Alcotest.(check int) "int value" (-2) !repeat;
  Alcotest.(check (float 0.0)) "float value" 0.3 !regress;
  Alcotest.(check bool) "switch" true !quick;
  List.iter
    (fun (args, culprit) ->
      Alcotest.check result (String.concat " " args) (Error culprit)
        (parse args))
    [
      ([ "--repeat"; "abc" ], "--repeat abc");
      ([ "--repeat"; "2.5" ], "--repeat 2.5");
      ([ "--repeat"; "" ], "--repeat ");
      ([ "--max-regress"; "abc" ], "--max-regress abc");
      ([ "--max-regress"; "nan" ], "--max-regress nan");
      ([ "--max-regress"; "inf" ], "--max-regress inf");
      ([ "--max-regress"; "0.3x" ], "--max-regress 0.3x");
      ([ "--quick"; "--repeat" ], "--repeat");
      ([ "--bogus" ], "--bogus");
    ]

let suites =
  [
    ( "bench-gate",
      [
        Alcotest.test_case "lookup confined to entry" `Quick
          test_lookup_confined;
        Alcotest.test_case "lookup ignores nested objects" `Quick
          test_lookup_nested_not_borrowed;
        Alcotest.test_case "lookup missing tag" `Quick test_lookup_missing_tag;
        Alcotest.test_case "lookup tag prefix" `Quick test_lookup_tag_prefix;
        Alcotest.test_case "lookup duplicate tag" `Quick
          test_lookup_duplicate_tag;
        Alcotest.test_case "malformed numbers" `Quick test_malformed_numbers;
        Alcotest.test_case "read errors" `Quick test_read_errors;
        Alcotest.test_case "rule boundaries" `Quick test_rules;
        Alcotest.test_case "write read back" `Quick test_write_read_back;
        Alcotest.test_case "flags" `Quick test_flags;
      ] );
  ]
