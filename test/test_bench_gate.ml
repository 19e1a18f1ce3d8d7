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
  pass "exact" Exact ~committed:38448.0 38448.0;
  reject "exact off by one" Exact ~committed:38448.0 38449.0;
  pass "within tolerance" (Within 5e-5) ~committed:0.1566 0.15664;
  reject "outside tolerance" (Within 5e-5) ~committed:0.1566 0.15666;
  pass "band top" (Band 0.5) ~committed:2.0 3.0;
  pass "band bottom" (Band 0.5) ~committed:2.0 1.0;
  reject "band just above" (Band 0.5) ~committed:2.0 3.0001;
  reject "band just below: a stale anchor" (Band 0.5) ~committed:2.0 0.9999;
  List.iter
    (fun rule -> reject "NaN fails" rule ~committed:1.0 Float.nan)
    [ Exact; Within 1.0; Band 0.1 ]

let test_write_read_back () =
  let file = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Bench_gate.(
        write file ~key:"engine"
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

(* A run writes only the entries it measured (one [--domains] value,
   say): the file's other entries must survive it byte for byte, in
   their place, and an entry it measured again is replaced where it
   stands. *)
let test_write_keeps_other_entries () =
  let file = Filename.temp_file "bench_gate" ".json" in
  let entry tag pps extra =
    Bench_gate.[ ("engine", Str tag); ("pps", Num (1, pps)) ] @ extra
  in
  let write bundles entries =
    Bench_gate.(
      write file ~key:"engine" ~header:[ ("bundles", Int bundles) ]
        ~array:"engines" entries)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      write 10 [ entry "calendar" 1.0 []; entry "calendar-quick" 2.0 [] ];
      write 10
        [
          entry "calendar-d2" 3.0
            Bench_gate.[ ("shards", List [ Obj [ ("ops", Int 7) ] ]) ];
          entry "calendar-quick-d2" 4.0 [];
        ];
      write 20 [ entry "calendar-quick" 5.0 [] ];
      Alcotest.(check string)
        "merged layout"
        {|{
  "bundles": 20,
  "engines": [
    {"engine":"calendar","pps":1.0},
    {"engine":"calendar-quick","pps":5.0},
    {"engine":"calendar-d2","pps":3.0,"shards":[{"ops":7}]},
    {"engine":"calendar-quick-d2","pps":4.0}
  ]
}
|}
        (In_channel.with_open_bin file In_channel.input_all))

let test_best_of () =
  let runs = ref 0 in
  let scores = [| 3.0; 7.0; 7.0; 1.0 |] in
  let run () =
    incr runs;
    (!runs, scores.(!runs - 1))
  in
  let best = Bench_gate.best_of ~repeat:4 ~by:snd run in
  Alcotest.(check int) "every repeat runs" 4 !runs;
  Alcotest.(check int) "highest score, first of equals" 2 (fst best);
  runs := 0;
  ignore (Bench_gate.best_of ~repeat:0 ~by:snd run);
  Alcotest.(check int) "at least one run" 1 !runs

(* The run size is each entry's, not the file's: a quick-size run
   written onto a file of full-size entries leaves the header byte for
   byte, and every entry still reads its own size. *)
let test_write_header_kept () =
  let file = Filename.temp_file "bench_gate" ".json" in
  let write entries =
    Bench_gate.(
      write file ~key:"engine"
        ~header:[ ("scenario", Str "fleet, 100k pps offered") ]
        ~array:"engines"
        (List.map
           (fun (tag, bundles) ->
             [ ("engine", Str tag); ("bundles", Int bundles) ])
           entries))
  in
  let header () =
    let s = In_channel.with_open_bin file In_channel.input_all in
    String.sub s 0 (String.index s '[')
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      write [ ("calendar", 25000); ("calendar-d2", 25000) ];
      let full = header () in
      write [ ("calendar-quick", 10000) ];
      Alcotest.(check string) "header unchanged" full (header ());
      match Bench_gate.read ~key:"engine" file with
      | Error msg -> Alcotest.failf "read back failed: %s" msg
      | Ok t ->
        Alcotest.check num "full entry" (Some 25000.0)
          (lookup t "calendar" "bundles");
        Alcotest.check num "quick entry" (Some 10000.0)
          (lookup t "calendar-quick" "bundles"))

let test_flags () =
  let repeat = ref 0 and file = ref "" and quick = ref false in
  let specs =
    Bench_gate.Flag.
      [
        ("--repeat", Int (( := ) repeat));
        ("--json", String (( := ) file));
        ("--quick", Unit (fun () -> quick := true));
        ( "--domains",
          Int (fun n -> ignore (Stripe_netsim.Parallel.resolve n)) );
      ]
  in
  let result = Alcotest.(result unit string) in
  let parse args = Bench_gate.Flag.parse_list specs args in
  Alcotest.check result "well-formed" (Ok ())
    (parse [ "--repeat"; "-2"; "--quick"; "--json"; "out.json" ]);
  Alcotest.(check int) "int value" (-2) !repeat;
  Alcotest.(check string) "string value" "out.json" !file;
  Alcotest.(check bool) "switch" true !quick;
  List.iter
    (fun (args, culprit) ->
      Alcotest.check result (String.concat " " args) (Error culprit)
        (parse args))
    [
      ([ "--repeat"; "abc" ], "--repeat abc");
      ([ "--repeat"; "2.5" ], "--repeat 2.5");
      ([ "--repeat"; "" ], "--repeat ");
      ([ "--repeat"; "3x" ], "--repeat 3x");
      ([ "--repeat"; "nan" ], "--repeat nan");
      ([ "--quick"; "--repeat" ], "--repeat");
      ([ "--json" ], "--json");
      ([ "--bogus" ], "--bogus");
      ([ "--domains"; "-1" ], "--domains -1");
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
        Alcotest.test_case "write keeps other entries" `Quick
          test_write_keeps_other_entries;
        Alcotest.test_case "write keeps the header" `Quick
          test_write_header_kept;
        Alcotest.test_case "flags" `Quick test_flags;
        Alcotest.test_case "best of" `Quick test_best_of;
      ] );
  ]
