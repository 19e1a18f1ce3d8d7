(* Tests for the trace capture/replay format. *)

open Stripe_packet
open Stripe_workload

let entry time seq size =
  { Trace_file.time; packet = Packet.data ~born:time ~seq ~size () }

let test_roundtrip_string () =
  let entries = [ entry 0.0 0 100; entry 0.125 1 1400; entry 0.25 2 64 ] in
  let parsed = Trace_file.of_string (Trace_file.to_string entries) in
  Alcotest.(check int) "count" 3 (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check (float 1e-6)) "time" a.Trace_file.time b.Trace_file.time;
      Alcotest.(check int) "seq" a.packet.Packet.seq b.packet.Packet.seq;
      Alcotest.(check int) "size" a.packet.Packet.size b.packet.Packet.size)
    entries parsed

let test_roundtrip_file () =
  let path = Filename.temp_file "stripe_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let entries = [ entry 0.0 0 500; entry 1.5 1 200 ] in
      Trace_file.save path entries;
      let loaded = Trace_file.load path in
      Alcotest.(check int) "count" 2 (List.length loaded);
      Alcotest.(check int) "bytes" 700 (Trace_file.total_bytes loaded);
      Alcotest.(check (float 1e-9)) "duration" 1.5 (Trace_file.duration loaded))

let test_comments_and_blanks () =
  let text = "# header\n\n0.5 7 100 0 -1\n# trailing comment\n" in
  let parsed = Trace_file.of_string text in
  Alcotest.(check int) "one entry" 1 (List.length parsed);
  Alcotest.(check int) "seq" 7 (List.hd parsed).packet.Packet.seq

let test_malformed_reports_line () =
  Alcotest.check_raises "bad field count"
    (Failure "Trace_file: expected 5 fields at line 2") (fun () ->
      ignore (Trace_file.of_string "# ok\n0.5 7 100\n"));
  Alcotest.check_raises "bad number"
    (Failure "Trace_file: malformed fields at line 1") (fun () ->
      ignore (Trace_file.of_string "zero 7 100 0 -1\n"))

(* Lines that parse but could not be replayed: a non-positive size
   (Packet.data rejects it) or a time that is NaN, infinite or before
   the start of the run (Sim.schedule rejects it). Each is a [Failure]
   naming its line, like any other malformed line. *)
let test_unreplayable_values () =
  let rejects name text msg =
    Alcotest.check_raises name (Failure msg) (fun () ->
        ignore (Trace_file.of_string text))
  in
  rejects "zero size" "0.0 1 0 0 0\n"
    "Trace_file: size 0 is not positive at line 1";
  rejects "negative size" "0.5 7 100 0 -1\n0.6 8 -3 0 -1\n"
    "Trace_file: size -3 is not positive at line 2";
  rejects "nan time" "# header\nnan 1 100 0 0\n"
    "Trace_file: time nan is not a finite time >= 0 at line 2";
  rejects "infinite time" "inf 1 100 0 0\n"
    "Trace_file: time inf is not a finite time >= 0 at line 1";
  rejects "negative time" "-1.0 1 100 0 0\n"
    "Trace_file: time -1 is not a finite time >= 0 at line 1";
  Alcotest.(check int) "time 0 and size 1 are fine" 1
    (List.length (Trace_file.of_string "0.0 1 1 0 0\n"))

let test_of_video () =
  let rng = Stripe_netsim.Rng.create 3 in
  let video = Video.generate ~rng ~n_frames:10 () in
  let entries = Trace_file.of_video video in
  Alcotest.(check int) "entry per packet" (Video.n_packets video)
    (List.length entries);
  (* Round-trip the converted trace too. *)
  let parsed = Trace_file.of_string (Trace_file.to_string entries) in
  Alcotest.(check int) "frame ids preserved"
    (Packet.frame (List.hd entries).packet)
    (Packet.frame (List.hd parsed).packet)

let test_replay_preserves_experiment () =
  (* A stored trace replayed through striping gives the same delivery as
     the live generator: capture/replay is faithful. *)
  let run entries =
    let sim = Stripe_netsim.Sim.create () in
    let engine = Stripe_core.Srr.create ~quanta:[| 1500; 1500 |] () in
    let out = ref [] in
    let reseq =
      Stripe_core.Resequencer.create
        ~deficit:(Stripe_core.Deficit.clone_initial engine)
        ~deliver:(fun ~channel:_ p -> out := p.Packet.seq :: !out)
        ()
    in
    let links =
      Array.init 2 (fun i ->
          Stripe_netsim.Link.create sim
            ~rate_bps:5e6
            ~prop_delay:(0.001 +. (0.01 *. float_of_int i))
            ~deliver:(fun pkt -> Stripe_core.Resequencer.receive reseq ~channel:i pkt)
            ())
    in
    let striper =
      Stripe_core.Striper.create
        ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
        ~emit:(fun ~channel pkt ->
          ignore (Stripe_netsim.Link.send links.(channel) ~size:pkt.Packet.size pkt))
        ()
    in
    List.iter
      (fun e ->
        Stripe_netsim.Sim.schedule sim ~at:e.Trace_file.time (fun () ->
            Stripe_core.Striper.push striper e.Trace_file.packet))
      entries;
    Stripe_netsim.Sim.run sim;
    List.rev !out
  in
  let rng = Stripe_netsim.Rng.create 4 in
  let video = Video.generate ~rng ~n_frames:20 () in
  let live = Trace_file.of_video video in
  let replayed = Trace_file.of_string (Trace_file.to_string live) in
  Alcotest.(check (list int)) "identical delivery" (run live) (run replayed)

(* Replay input raises nothing but the documented [Failure]: any
   string, and any small edit of a valid trace. *)
let prop_of_string_total =
  Spec_fuzz.total ~name:"trace_file: of_string raises only Failure"
    ~valid:"# t seq size flow frame\n0.0 0 100 0 0\n\n0.25 1 1500 2 1\n"
    ~allowed:(function Failure _ -> true | _ -> false)
    (fun s -> ignore (Trace_file.of_string s))

let suites =
  [
    ( "trace_file",
      [
        Alcotest.test_case "roundtrip string" `Quick test_roundtrip_string;
        Alcotest.test_case "roundtrip file" `Quick test_roundtrip_file;
        Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks;
        Alcotest.test_case "malformed lines" `Quick test_malformed_reports_line;
        Alcotest.test_case "unreplayable values" `Quick
          test_unreplayable_values;
        Alcotest.test_case "of_video" `Quick test_of_video;
        Alcotest.test_case "replay fidelity" `Quick test_replay_preserves_experiment;
        QCheck_alcotest.to_alcotest prop_of_string_total;
      ] );
  ]
