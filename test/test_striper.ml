(* Tests for the sender-side striper: dispatch accounting, fairness of the
   dispatched bytes (Lemma 3.3), and marker emission policies. *)

open Stripe_core
open Stripe_packet

type emitted = { channel : int; packet : Packet.t }

let harness ?marker scheduler =
  let log = ref [] in
  let striper =
    Striper.create ~scheduler ?marker
      ~emit:(fun ~channel packet -> log := { channel; packet } :: !log)
      ()
  in
  (striper, fun () -> List.rev !log)

let feed striper sizes =
  List.iteri
    (fun seq size -> Striper.push striper (Packet.data ~seq ~size ()))
    sizes

let test_dispatch_counters () =
  let striper, _ = harness (Scheduler.srr ~quanta:[| 500; 500 |] ()) in
  feed striper [ 550; 200; 400; 150; 300; 400 ];
  Alcotest.(check int) "pushed packets" 6 (Striper.pushed_packets striper);
  Alcotest.(check int) "pushed bytes" 2000 (Striper.pushed_bytes striper);
  Alcotest.(check int) "ch0 packets" 3 (Striper.channel_packets striper 0);
  Alcotest.(check int) "ch0 bytes" 1000 (Striper.channel_bytes striper 0);
  Alcotest.(check int) "ch1 bytes" 1000 (Striper.channel_bytes striper 1);
  Alcotest.(check (option int)) "rounds" (Some 2) (Striper.rounds striper)

let test_rejects_marker_push () =
  let striper, _ = harness (Scheduler.srr ~quanta:[| 500; 500 |] ()) in
  Alcotest.check_raises "marker push rejected"
    (Invalid_argument "Striper.push: markers are generated internally")
    (fun () ->
      Striper.push striper (Packet.marker ~channel:0 ~round:0 ~dc:1 ~born:0.0 ()))

(* A restart cannot change the bundle's width: a 3-entry vector handed
   to a 2-channel striper is refused before the crash is recorded or any
   state moves, and the striper keeps striping at its own width. *)
let test_crash_restart_rejects_wrong_width () =
  let sink = Stripe_obs.Sink.collector () in
  let sched = Scheduler.srr ~quanta:[| 500; 500 |] () in
  let log = ref [] in
  let striper =
    Striper.create ~scheduler:sched ~marker:(Marker.make ~every_rounds:2 ())
      ~sink
      ~emit:(fun ~channel packet -> log := { channel; packet } :: !log)
      ()
  in
  feed striper [ 550; 200; 400 ];
  let events = List.length (Stripe_obs.Sink.events sink) in
  let emitted = List.length !log in
  let d = Option.get (Scheduler.deficit sched) in
  let round = Deficit.round d and current = Deficit.current d in
  Alcotest.check_raises "width mismatch named"
    (Invalid_argument "Deficit.reconfigure: 3 quanta for a 2-channel engine")
    (fun () -> Striper.crash_restart ~quanta:[| 500; 500; 500 |] striper);
  Alcotest.(check int) "no event emitted" events
    (List.length (Stripe_obs.Sink.events sink));
  Alcotest.(check int) "nothing sent" emitted (List.length !log);
  Alcotest.(check int) "epoch unchanged" 0 (Striper.epoch striper);
  Alcotest.(check int) "width unchanged" 2 (Deficit.n_channels d);
  Alcotest.(check (array int)) "quanta unchanged" [| 500; 500 |]
    (Deficit.quanta d);
  Alcotest.(check (pair int int)) "pointer unchanged" (round, current)
    (Deficit.round d, Deficit.current d);
  Striper.send_reset striper;
  feed striper [ 300; 400 ];
  Alcotest.(check bool) "the barrier and later data stay on the bundle" true
    (List.for_all (fun e -> e.channel = 0 || e.channel = 1) !log)

let test_marker_requires_cfq () =
  Alcotest.check_raises "marker policy on non-causal scheduler"
    (Invalid_argument
       "Striper.create: marker policy requires a CFQ (deficit-based) scheduler")
    (fun () ->
      ignore
        (Striper.create
           ~scheduler:(Scheduler.random_selection ~n:2 ~seed:1)
           ~marker:Marker.default ~emit:(fun ~channel:_ _ -> ())
           ()))

let count_markers log = List.length (List.filter (fun e -> Packet.is_marker e.packet) log)

let test_marker_frequency () =
  (* 2 equal channels, quantum = packet size: one packet per channel per
     round; 100 packets = 50 rounds. Markers every 5 rounds on both
     channels: the boundary fires on rounds 1, 5, 10, ... 50. *)
  let sched = Scheduler.srr ~quanta:[| 100; 100 |] () in
  let striper, log =
    harness ~marker:(Marker.make ~every_rounds:5 ()) sched
  in
  feed striper (List.init 100 (fun _ -> 100));
  let markers = count_markers (log ()) in
  (* Boundary batches at wrap into rounds 1, 5, 10, ..., 50: 11 batches of
     2 markers. *)
  Alcotest.(check int) "marker count" 22 markers;
  Alcotest.(check int) "striper counter agrees" 22 (Striper.markers_sent striper)

let test_round_start_markers_precede_data () =
  (* With markers every round at round start, each channel's stream must
     begin with a marker. *)
  let sched = Scheduler.srr ~quanta:[| 100; 100 |] () in
  let striper, log =
    harness ~marker:(Marker.make ~position:Marker.Round_start ~every_rounds:1 ()) sched
  in
  feed striper [ 100; 100; 100; 100 ];
  let first_per_channel = Array.make 2 None in
  List.iter
    (fun e ->
      if first_per_channel.(e.channel) = None then
        first_per_channel.(e.channel) <- Some (Packet.is_marker e.packet))
    (log ());
  Alcotest.(check (array (option bool))) "first frame on each channel is a marker"
    [| Some true; Some true |] first_per_channel

let test_round_end_markers_follow_round () =
  let sched = Scheduler.srr ~quanta:[| 100; 100 |] () in
  let striper, log =
    harness ~marker:(Marker.make ~position:Marker.Round_end ~every_rounds:1 ()) sched
  in
  feed striper [ 100; 100; 100; 100 ];
  let kinds =
    List.map (fun e -> (e.channel, Packet.is_marker e.packet)) (log ())
  in
  ignore striper;
  (* Round 0 data (ch0, ch1), then the boundary batch, then round 1 data,
     then its batch. *)
  Alcotest.(check (list (pair int bool))) "data then marker batches"
    [
      (0, false); (1, false); (0, true); (1, true);
      (0, false); (1, false); (0, true); (1, true);
    ]
    kinds

let test_mid_round_markers_staggered () =
  let sched = Scheduler.srr ~quanta:[| 100; 100; 100 |] () in
  let striper, log =
    harness ~marker:(Marker.make ~position:Marker.Mid_round ~every_rounds:1 ()) sched
  in
  feed striper [ 100; 100; 100 ];
  ignore striper;
  let kinds =
    List.map (fun e -> (e.channel, Packet.is_marker e.packet)) (log ())
  in
  (* Each channel's marker follows its own visit, inside the round. *)
  Alcotest.(check (list (pair int bool))) "markers interleave with visits"
    [ (0, false); (0, true); (1, false); (1, true); (2, false); (2, true) ]
    kinds

let test_marker_stamps_match_next_data () =
  (* Every marker's (round, dc) must equal the implicit number of the next
     data packet actually sent on that channel afterwards. *)
  let rng = Stripe_netsim.Rng.create 3 in
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  (* The (round, dc) stamp of the last marker on each channel. *)
  let pending : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  let striper = ref None in
  let emit ~channel pkt =
    match pkt.Packet.kind with
    | Packet.Marker m -> Hashtbl.replace pending channel (m.m_round, m.m_dc)
    | Data -> (
      match Hashtbl.find_opt pending channel with
      | Some stamp ->
        let r = Deficit.round engine and dc = Deficit.dc engine channel in
        if stamp <> (r, dc) then ok := false;
        Hashtbl.remove pending channel
      | None -> ())
  in
  let s =
    Striper.create ~scheduler:sched ~marker:(Marker.make ~every_rounds:3 ())
      ~emit ()
  in
  striper := Some s;
  for seq = 0 to 999 do
    Striper.push s (Packet.data ~seq ~size:(100 + Stripe_netsim.Rng.int rng 1400) ())
  done;
  Alcotest.(check bool) "marker stamps always realized" true !ok

let fairness_of scheduler sizes max_packet =
  let striper, _ = harness scheduler in
  feed striper sizes;
  let d = Option.get (Scheduler.deficit (Striper.scheduler striper)) in
  let n = Scheduler.n_channels scheduler in
  let bytes = Array.init n (Striper.channel_bytes striper) in
  Fairness.measure ~deficit:d ~bytes ~max_packet

let test_srr_fairness_bound_random () =
  let rng = Stripe_netsim.Rng.create 21 in
  let sizes = List.init 5000 (fun _ -> 50 + Stripe_netsim.Rng.int rng 1450) in
  let report =
    fairness_of (Scheduler.srr ~quanta:[| 1500; 1500; 1500 |] ()) sizes 1500
  in
  Alcotest.(check bool) "within Max + 2*Quantum" true report.Fairness.within_bound

let test_srr_fairness_bound_adversarial () =
  (* The alternating big/small sequence that breaks GRR must leave SRR
     fair. *)
  let sizes = List.init 4000 (fun i -> if i mod 2 = 0 then 1000 else 200) in
  let report = fairness_of (Scheduler.srr ~quanta:[| 1000; 1000 |] ()) sizes 1000 in
  Alcotest.(check bool) "alternating sizes stay fair under SRR" true
    report.Fairness.within_bound;
  Alcotest.(check bool) "nearly perfect balance" true
    (Fairness.spread report.Fairness.bytes <= 3000)

let test_rr_unfair_on_alternation () =
  (* Table 1: round robin's load sharing is poor for variable sizes — all
     big packets ride one channel. *)
  let striper, _ = harness (Scheduler.rr ~n:2 ()) in
  feed striper (List.init 1000 (fun i -> if i mod 2 = 0 then 1000 else 200));
  let b0 = Striper.channel_bytes striper 0
  and b1 = Striper.channel_bytes striper 1 in
  Alcotest.(check bool)
    (Printf.sprintf "RR imbalance %d vs %d grows with execution" b0 b1)
    true
    (Fairness.spread [| b0; b1 |] >= 1000 * 400)

let test_fairness_bound_formula () =
  (* Theorem 3.2 / Lemma 3.3: the deviation bound is Max + 2 * Quantum,
     with Max the maximum packet size recorded at creation. *)
  let d = Srr.create ~max_packet:1500 ~quanta:[| 2000; 3000 |] () in
  Alcotest.(check int) "Max + 2*Quantum" (1500 + (2 * 3000))
    (Srr.fairness_bound d);
  (* Without a recorded Max, the bound assumes packets as large as the
     biggest quantum — the marker-recovery precondition's ceiling. *)
  let d = Srr.create ~quanta:[| 1000; 3000 |] () in
  Alcotest.(check int) "Max falls back to the largest quantum"
    (3000 + (2 * 3000))
    (Srr.fairness_bound d)

let test_for_rates_retains_max_packet () =
  (* 4 vs 8 Mbps with unit 1500 scales quanta to 1500 and 3000; the
     supplied Max must survive the delegation to [create] so the bound
     uses it (a dropped ~max_packet would silently widen the bound). *)
  let d =
    Srr.for_rates ~max_packet:1500 ~rates_bps:[| 4e6; 8e6 |]
      ~quantum_unit:1500 ()
  in
  Alcotest.(check int) "bound built from the supplied Max" (1500 + (2 * 3000))
    (Srr.fairness_bound d);
  (* A skew that rounds the smallest quantum below Max used to slip
     through to [create] and raise (or, without max_packet, silently
     violate Thm 5.1's precondition). Now every quantum is scaled up by
     a common factor instead: proportions survive, the precondition
     holds. Unit 100 gives raw quanta [100; 200]; factor 15 restores
     Quantum_i >= Max. *)
  let d =
    Srr.for_rates ~max_packet:1500 ~rates_bps:[| 4e6; 8e6 |] ~quantum_unit:100
      ()
  in
  Alcotest.(check (array int)) "undersized quanta scaled up proportionally"
    [| 1500; 3000 |] (Deficit.quanta d);
  Alcotest.(check int) "bound uses the scaled quanta" (1500 + (2 * 3000))
    (Srr.fairness_bound d)

let test_for_rates_clamps_rounding () =
  (* Underflow side: tiny ratios still clamp to a positive quantum. *)
  let d = Srr.for_rates ~rates_bps:[| 1.0; 1.0001 |] ~quantum_unit:1 () in
  Alcotest.(check bool) "all quanta at least 1" true
    (Array.for_all (fun q -> q >= 1) (Deficit.quanta d));
  (* Overflow side: a ratio past int_of_float's domain used to produce
     garbage quanta; it is now a clear error. *)
  Alcotest.(check bool) "unrepresentable skew rejected" true
    (try
       ignore (Srr.for_rates ~rates_bps:[| 1e300; 1.0 |] ~quantum_unit:1 ());
       false
     with Invalid_argument msg ->
       (* The message should diagnose the skew, not be a generic
          positivity complaint. *)
       String.length msg > 0
       && String.sub msg 0 20 = "Srr.quanta_for_rates")

let prop_srr_fairness =
  QCheck.Test.make
    ~name:"striper: SRR deviation bounded by Max + 2*Quantum on random loads"
    ~count:60
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.return 800) (int_range 1 1500)))
    (fun (n, sizes) ->
      let report =
        fairness_of (Scheduler.srr ~quanta:(Array.make n 1500) ()) sizes 1500
      in
      report.Fairness.within_bound)

let prop_weighted_srr_fairness =
  QCheck.Test.make
    ~name:"striper: weighted SRR respects proportional entitlements" ~count:40
    QCheck.(list_of_size (Gen.return 1500) (int_range 1 1000))
    (fun sizes ->
      let quanta = [| 1000; 2000; 3000 |] in
      let report =
        fairness_of (Scheduler.srr ~quanta ()) sizes 1000
      in
      report.Fairness.within_bound)

let suites =
  [
    ( "striper",
      [
        Alcotest.test_case "dispatch counters" `Quick test_dispatch_counters;
        Alcotest.test_case "rejects marker push" `Quick test_rejects_marker_push;
        Alcotest.test_case "restart rejects another width" `Quick
          test_crash_restart_rejects_wrong_width;
        Alcotest.test_case "marker requires cfq" `Quick test_marker_requires_cfq;
        Alcotest.test_case "marker frequency" `Quick test_marker_frequency;
        Alcotest.test_case "round start position" `Quick
          test_round_start_markers_precede_data;
        Alcotest.test_case "round end position" `Quick
          test_round_end_markers_follow_round;
        Alcotest.test_case "mid round position" `Quick test_mid_round_markers_staggered;
        Alcotest.test_case "marker stamps realized" `Quick
          test_marker_stamps_match_next_data;
        Alcotest.test_case "fairness random" `Quick test_srr_fairness_bound_random;
        Alcotest.test_case "fairness adversarial" `Quick
          test_srr_fairness_bound_adversarial;
        Alcotest.test_case "rr unfair" `Quick test_rr_unfair_on_alternation;
        Alcotest.test_case "fairness bound formula" `Quick
          test_fairness_bound_formula;
        Alcotest.test_case "for_rates retains max packet" `Quick
          test_for_rates_retains_max_packet;
        Alcotest.test_case "for_rates clamps rounding" `Quick
          test_for_rates_clamps_rounding;
        QCheck_alcotest.to_alcotest prop_srr_fairness;
        QCheck_alcotest.to_alcotest prop_weighted_srr_fairness;
      ] );
  ]
