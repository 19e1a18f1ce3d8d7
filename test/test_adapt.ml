(* Tests for adaptive striping (PROTOCOL.md §11): live quantum
   retuning with DC rescale, the goodput probe and its retune planner,
   the retune riding the §5 reset barrier, and the scheduler/watchdog
   bugfixes that shipped with the feature. *)

open Stripe_core
open Stripe_packet

(* ------------------------------------------------------------------ *)
(* Deficit.retune semantics                                            *)
(* ------------------------------------------------------------------ *)

let test_retune_at_boundary_immediate () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  let events = ref [] in
  Deficit.set_hook d (Some (fun e -> events := e :: !events));
  (* A fresh engine is at a round boundary: the swap is immediate. *)
  Deficit.retune d ~quanta:[| 1000; 500 |];
  Alcotest.(check (array int)) "quanta swapped" [| 1000; 500 |]
    (Deficit.quanta d);
  Alcotest.(check bool) "nothing staged" true (Deficit.pending_retune d = None);
  match !events with
  | [ Deficit.Retune { round; old_quanta; new_quanta } ] ->
    Alcotest.(check int) "effective round" 0 round;
    Alcotest.(check (array int)) "old vector" [| 500; 500 |] old_quanta;
    Alcotest.(check (array int)) "new vector" [| 1000; 500 |] new_quanta
  | _ -> Alcotest.fail "expected exactly one Retune event"

let test_retune_mid_round_staged_and_rescaled () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:900;
  (* ch0 overdrew to -400; pointer is on ch1 — mid-round. *)
  Deficit.retune d ~quanta:[| 800; 800 |];
  Alcotest.(check (array int)) "old vector still serving" [| 500; 500 |]
    (Deficit.quanta d);
  Alcotest.(check bool) "vector staged" true
    (Deficit.pending_retune d = Some [| 800; 800 |]);
  (* Finish the round: adoption happens at the pointer wrap. *)
  ignore (Deficit.select d);
  Deficit.consume d ~size:500;
  Alcotest.(check (array int)) "adopted at the round boundary" [| 800; 800 |]
    (Deficit.quanta d);
  Alcotest.(check bool) "staged slot cleared" true
    (Deficit.pending_retune d = None);
  (* The carried deficit keeps its fraction of the per-round grant:
     -400 * 800/500 = -640. *)
  Alcotest.(check int) "DC rescaled proportionally" (-640) (Deficit.dc d 0)

let test_retune_validates () =
  let d = Srr.create ~max_packet:1500 ~quanta:[| 1500; 1500 |] () in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument
       "Deficit.retune: quanta length must match n_channels") (fun () ->
      Deficit.retune d ~quanta:[| 1500 |]);
  Alcotest.check_raises "quantum below max packet"
    (Invalid_argument
       "Deficit.retune: quantum 1000 below max packet size 1500 violates the \
        marker-recovery precondition (Quantum_i >= Max)") (fun () ->
      Deficit.retune d ~quanta:[| 1000; 1500 |])

(* Regression (this PR): resuming a suspended channel must clear its
   frozen DC — replaying a stale deficit would over- or under-serve the
   channel by up to a quantum against channels that kept running. *)
let test_resume_clears_stale_deficit () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:900;
  Alcotest.(check int) "overdraw recorded" (-400) (Deficit.dc d 0);
  Deficit.suspend d 0;
  Alcotest.(check int) "DC frozen while suspended" (-400) (Deficit.dc d 0);
  Deficit.resume d 0;
  Alcotest.(check int) "resume re-enters with a clean slate" 0 (Deficit.dc d 0);
  (* Resuming a channel that was never suspended must not touch it. *)
  ignore (Deficit.select d);
  Deficit.consume d ~size:600;
  Alcotest.(check int) "ch1 overdrew" (-100) (Deficit.dc d 1);
  Deficit.resume d 1;
  Alcotest.(check int) "no-op resume keeps the DC" (-100) (Deficit.dc d 1)

(* The ISSUE's acceptance property: after a retune is adopted, the
   retuned engine's per-channel service tracks an oracle that ran with
   the new quanta from the start, within the Thm 3.2 allowance. *)
let prop_retune_matches_fresh_oracle =
  let gen =
    QCheck.Gen.(
      int_range 2 4 >>= fun n ->
      let quanta_gen = array_size (return n) (int_range 1500 4500) in
      quanta_gen >>= fun oldq ->
      quanta_gen >>= fun newq ->
      list_size (int_range 0 60) (int_range 1 1500) >>= fun prefix ->
      list_size (int_range 50 300) (int_range 1 1500) >>= fun suffix ->
      return (oldq, newq, prefix, suffix))
  in
  let print (oldq, newq, prefix, suffix) =
    Printf.sprintf "old=[%s] new=[%s] prefix=%d pkts suffix=%d pkts"
      (String.concat ";" (Array.to_list (Array.map string_of_int oldq)))
      (String.concat ";" (Array.to_list (Array.map string_of_int newq)))
      (List.length prefix) (List.length suffix)
  in
  QCheck.Test.make ~count:150
    ~name:"adapt: retuned engine within Max + 2*Quantum of a fresh oracle"
    (QCheck.make ~print gen)
    (fun (oldq, newq, prefix, suffix) ->
      let max_pkt = 1500 in
      let d = Srr.create ~max_packet:max_pkt ~quanta:oldq () in
      List.iter
        (fun size ->
          ignore (Deficit.select d);
          Deficit.consume d ~size)
        prefix;
      Deficit.retune d ~quanta:newq;
      (* Serve filler until the staged vector is adopted at the wrap. *)
      let filler = ref 0 in
      while Deficit.pending_retune d <> None do
        ignore (Deficit.select d);
        Deficit.consume d ~size:750;
        incr filler;
        if !filler > 10_000 then failwith "retune never adopted"
      done;
      (* Identical tail through the retuned engine and a fresh oracle. *)
      let oracle = Srr.create ~max_packet:max_pkt ~quanta:newq () in
      let n = Array.length oldq in
      let served_d = Array.make n 0 and served_o = Array.make n 0 in
      List.iter
        (fun size ->
          let c = Deficit.select d in
          Deficit.consume d ~size;
          served_d.(c) <- served_d.(c) + size;
          let c' = Deficit.select oracle in
          Deficit.consume oracle ~size;
          served_o.(c') <- served_o.(c') + size)
        suffix;
      let ok = ref true in
      for c = 0 to n - 1 do
        if abs (served_d.(c) - served_o.(c)) > max_pkt + (2 * newq.(c)) then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Rate_probe: estimation and the retune planner                       *)
(* ------------------------------------------------------------------ *)

let test_rate_probe_ewma () =
  let p = Rate_probe.create ~n:2 () in
  (* The first sample only anchors the window. *)
  Rate_probe.sample p ~now:0.0;
  Alcotest.(check int) "anchor forms no sample" 0 (Rate_probe.samples p);
  Rate_probe.observe p ~channel:0 ~bytes:1250;
  Rate_probe.sample p ~now:1.0;
  Alcotest.(check (float 1e-6)) "first window seeds the estimate" 10_000.0
    (Rate_probe.rate_bps p 0);
  Rate_probe.observe p ~channel:0 ~bytes:2500;
  Rate_probe.sample p ~now:2.0;
  (* Default alpha 0.3: 0.7*10000 + 0.3*20000. *)
  Alcotest.(check (float 1e-6)) "EWMA fold" 13_000.0 (Rate_probe.rate_bps p 0);
  Alcotest.(check int) "two samples" 2 (Rate_probe.samples p);
  Alcotest.(check (float 1e-6)) "silent channel has no estimate" 0.0
    (Rate_probe.rate_bps p 1)

let test_rate_probe_reset_channel_forgets_outage () =
  (* A channel estimated at 10 Mbps goes silent: every outage window
     folds a zero instantaneous rate, so the EWMA decays geometrically
     but never clears — after three silent windows it still reads
     ~3.4 Mbps of capacity that no longer exists. *)
  let p = Rate_probe.create ~n:2 () in
  Rate_probe.sample p ~now:0.0;
  Rate_probe.observe p ~channel:0 ~bytes:1_250_000;
  Rate_probe.observe p ~channel:1 ~bytes:1_250_000;
  Rate_probe.sample p ~now:1.0;
  Alcotest.(check (float 1e-6)) "seeded at 10 Mbps" 10e6 (Rate_probe.rate_bps p 0);
  for w = 2 to 4 do
    Rate_probe.observe p ~channel:1 ~bytes:1_250_000;
    Rate_probe.sample p ~now:(float_of_int w)
  done;
  let stale = Rate_probe.rate_bps p 0 in
  Alcotest.(check bool) "outage decays but never clears" true
    (stale > 3e6 && stale < 10e6);
  (* Resume-time reset: the channel returns to the unseeded state, so
     [plan] withholds retunes until a fresh measurement exists... *)
  Rate_probe.reset_channel p 0;
  Alcotest.(check (float 1e-6)) "reset forgets the stale blend" 0.0
    (Rate_probe.rate_bps p 0);
  Alcotest.(check bool) "no retune plan from an unseeded channel" true
    (Rate_probe.plan ~max_packet:1500 ~rates_bps:(Rate_probe.rates p)
       ~quanta:[| 1500; 1500 |] ~quantum_unit:1500 ()
    = None);
  (* ...and the first post-resume window seeds the estimate directly —
     no blend with pre-outage capacity. The resumed link came back at
     2 Mbps; without the reset the EWMA would report
     0.7*stale + 0.3*2e6 > 4 Mbps. *)
  Rate_probe.observe p ~channel:0 ~bytes:250_000;
  Rate_probe.observe p ~channel:1 ~bytes:1_250_000;
  Rate_probe.sample p ~now:5.0;
  Alcotest.(check (float 1e-6)) "first fresh window seeds directly" 2e6
    (Rate_probe.rate_bps p 0);
  (* The untouched channel's estimate never flinched. *)
  Alcotest.(check (float 1e-6)) "peer estimate unaffected" 10e6
    (Rate_probe.rate_bps p 1)

let test_plan_retunes_outside_band () =
  (* One channel halved: the target vector is 2:1 and well outside the
     25% band of the current uniform quanta. *)
  match
    Rate_probe.plan ~max_packet:1500 ~rates_bps:[| 5e6; 10e6 |]
      ~quanta:[| 1500; 1500 |] ~quantum_unit:1500 ()
  with
  | Some q ->
    Alcotest.(check (array int)) "proportional target" [| 1500; 3000 |] q
  | None -> Alcotest.fail "expected a retune plan"

let test_plan_holds_within_band () =
  (* An 8% skew stays inside the default 25% hysteresis band. *)
  Alcotest.(check bool) "within band: hold" true
    (Rate_probe.plan ~max_packet:1500 ~rates_bps:[| 10e6; 10.8e6 |]
       ~quanta:[| 1500; 1500 |] ~quantum_unit:1500 ()
    = None);
  (* The same skew trips a tighter band. *)
  Alcotest.(check bool) "tight band: retune" true
    (Rate_probe.plan ~max_packet:1500 ~band:0.05 ~rates_bps:[| 10e6; 10.8e6 |]
       ~quanta:[| 1500; 1500 |] ~quantum_unit:1500 ()
    <> None)

let test_plan_needs_full_estimates () =
  Alcotest.(check bool) "missing estimate: no decision" true
    (Rate_probe.plan ~max_packet:1500 ~rates_bps:[| 0.0; 10e6 |]
       ~quanta:[| 1500; 1500 |] ~quantum_unit:1500 ()
    = None)

let test_plan_clamps () =
  (* An extreme skew is clamped by max_quantum, and a small quantum_unit
     is scaled back up to the Thm 5.1 floor by max_packet. *)
  (match
     Rate_probe.plan ~max_packet:1500 ~max_quantum:10_000
       ~rates_bps:[| 1e6; 100e6 |] ~quanta:[| 1500; 1500 |] ~quantum_unit:1500
       ()
   with
  | Some q -> Alcotest.(check (array int)) "ceiling" [| 1500; 10_000 |] q
  | None -> Alcotest.fail "expected a clamped plan");
  match
    Rate_probe.plan ~max_packet:1500 ~rates_bps:[| 5e6; 10e6 |]
      ~quanta:[| 1500; 1500 |] ~quantum_unit:500 ()
  with
  | Some q ->
    Alcotest.(check (array int)) "scaled up to the marker floor"
      [| 1500; 3000 |] q
  | None -> Alcotest.fail "expected a plan at the marker floor"

(* ------------------------------------------------------------------ *)
(* Watchdog bugfixes (this PR)                                         *)
(* ------------------------------------------------------------------ *)

type wd_pair = {
  striper : Striper.t;
  reseq : Resequencer.t;
  wires : Packet.t Queue.t array;
  now : float ref;
}

let make_wd ~intervals ~fallback () =
  let now = ref 0.0 in
  let engine = Srr.create ~quanta:[| 1000; 1000 |] () in
  let wires = Array.init 2 (fun _ -> Queue.create ()) in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> !now)
      ~watchdog:{ Resequencer.intervals; fallback }
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:1 ())
      ~now:(fun () -> !now)
      ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
      ()
  in
  { striper; reseq; wires; now }

let shuttle_wd t =
  Array.iteri
    (fun c q ->
      Queue.iter (fun pkt -> Resequencer.receive t.reseq ~channel:c pkt) q;
      Queue.clear q)
    t.wires

(* One full round (one 1000-byte packet per channel) plus its trailing
   markers, timestamped at [at]. *)
let push_round t ~at seq0 =
  t.now := at;
  Striper.push t.striper (Packet.data ~seq:seq0 ~size:1000 ());
  Striper.push t.striper (Packet.data ~seq:(seq0 + 1) ~size:1000 ());
  shuttle_wd t

(* Regression: the reset barrier must reseed the marker-cadence
   estimate. Carrying the old epoch's gap across a reset made the
   watchdog judge post-reset silence against a cadence the sender may
   no longer use — here a 0.1 s pre-reset cadence versus a post-reset
   sender that has gone quiet: the fallback (100 s), not the stale
   0.1 s estimate, must set the deadline. *)
let test_barrier_reseeds_marker_cadence () =
  let t = make_wd ~intervals:3 ~fallback:100.0 () in
  (* Establish a 0.1 s marker cadence on both channels. *)
  push_round t ~at:0.0 0;
  push_round t ~at:0.1 2;
  push_round t ~at:0.2 4;
  push_round t ~at:0.3 6;
  (* Reset barrier at t=0.4, then a lone packet so the scan blocks on
     the silent channel. *)
  t.now := 0.4;
  Striper.send_reset t.striper;
  shuttle_wd t;
  Alcotest.(check int) "barrier completed" 1 (Resequencer.resets t.reseq);
  Striper.push t.striper (Packet.data ~seq:8 ~size:1000 ());
  shuttle_wd t;
  Alcotest.(check bool) "scan is blocked" true
    (Resequencer.blocked_on t.reseq <> None);
  (* 1.6 s of silence: 16x the stale cadence, far under 3x fallback. *)
  t.now := 2.0;
  Resequencer.tick t.reseq;
  Alcotest.(check int) "no spurious death from the stale cadence" 0
    (Resequencer.dead_declarations t.reseq);
  Alcotest.(check bool) "channel 1 alive" false
    (Resequencer.channel_dead t.reseq 1);
  (* The fallback deadline still works: 3 x 100 s of silence kills it. *)
  t.now := 500.0;
  Resequencer.tick t.reseq;
  Alcotest.(check bool) "channel 1 dead after real silence" true
    (Resequencer.channel_dead t.reseq 1)

(* Regression: a marker gap above the estimate (but inside the
   watchdog horizon) is adopted outright rather than half-averaged,
   and a stretch {e beyond} the horizon is adopted after one
   corroborating gap. After the sender stretches its cadence
   0.1 s -> 9.8 s, the first stretched gap is held back as a suspect —
   from one sample it is indistinguishable from an outage that
   swallowed markers, and adopting an outage would inflate the
   watchdog and barrier-staleness horizons by the outage length (the
   chaos-storm failure mode). The second consistent gap adopts the new
   cadence, setting the death deadline to 3 x 9.8 s = 29.4 s. *)
let test_marker_cadence_adopts_up () =
  let t = make_wd ~intervals:3 ~fallback:1000.0 () in
  push_round t ~at:0.0 0;
  push_round t ~at:0.1 2;
  push_round t ~at:0.2 4;
  (* Cadence stretch: markers now arrive 9.8 s apart. The first
     stretched gap is suspect-only; the second corroborates it. *)
  push_round t ~at:10.0 6;
  push_round t ~at:19.8 8;
  (* Block the scan so the watchdog has a channel to judge. (The
     stretch arrival itself can declare a transient death — the first
     wire drains before the late marker reaches the second — which the
     arrival immediately revives; only deaths after this point are the
     estimator's verdict.) *)
  Striper.push t.striper (Packet.data ~seq:10 ~size:1000 ());
  shuttle_wd t;
  Alcotest.(check bool) "scan is blocked" true
    (Resequencer.blocked_on t.reseq <> None);
  Alcotest.(check bool) "both channels alive after the stretch" true
    ((not (Resequencer.channel_dead t.reseq 0))
    && not (Resequencer.channel_dead t.reseq 1));
  let deaths0 = Resequencer.dead_declarations t.reseq in
  t.now := 40.0;
  (* 20.2 s of silence: far past the old-cadence deadline (0.3 s),
     inside the adopted stretched-cadence deadline. *)
  Resequencer.tick t.reseq;
  Alcotest.(check int) "silence within the stretched cadence tolerated" deaths0
    (Resequencer.dead_declarations t.reseq);
  Alcotest.(check bool) "both channels still alive" true
    ((not (Resequencer.channel_dead t.reseq 0))
    && not (Resequencer.channel_dead t.reseq 1));
  t.now := 51.0;
  (* 31.2 s of silence: past 3 x 9.8 s — genuine death. *)
  Resequencer.tick t.reseq;
  Alcotest.(check bool) "death after three stretched intervals" true
    (Resequencer.dead_declarations t.reseq > deaths0)

(* ------------------------------------------------------------------ *)
(* Hot retune through the reset barrier                                *)
(* ------------------------------------------------------------------ *)

let test_one_transition_per_barrier () =
  let engine = Srr.create ~quanta:[| 1000; 1000 |] () in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  Resequencer.retune reseq ~quanta:[| 2000; 1000 |];
  Alcotest.check_raises "second retune while one is staged"
    (Invalid_argument
       "Resequencer.retune: a retune is already staged (one per barrier)")
    (fun () -> Resequencer.retune reseq ~quanta:[| 1000; 2000 |])

let test_retune_rides_barrier_end_to_end () =
  let engine = Srr.create ~quanta:[| 1000; 1000 |] () in
  let wires = Array.init 2 (fun _ -> Queue.create ()) in
  let delivered = ref [] in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:2 ())
      ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
      ()
  in
  let shuttle () =
    Array.iteri
      (fun c q ->
        Queue.iter (fun pkt -> Resequencer.receive reseq ~channel:c pkt) q;
        Queue.clear q)
      wires
  in
  for seq = 0 to 39 do
    Striper.push striper (Packet.data ~seq ~size:900 ())
  done;
  shuttle ();
  let pre0 = Striper.channel_bytes striper 0 in
  let pre1 = Striper.channel_bytes striper 1 in
  (* Receiver first, then the sender fires the barrier the staged
     vector rides on. *)
  Alcotest.(check bool) "retune applied" true
    (Bundle_control.retune striper reseq ~quanta:[| 3000; 1000 |]);
  Alcotest.(check bool) "a second retune defers behind the staged one"
    false
    (Bundle_control.retune striper reseq ~quanta:[| 1000; 1000 |]);
  for seq = 40 to 119 do
    Striper.push striper (Packet.data ~seq ~size:900 ())
  done;
  shuttle ();
  Alcotest.(check bool) "retune adopted" false
    (Resequencer.transition_pending reseq);
  Alcotest.(check int) "one barrier" 1 (Resequencer.resets reseq);
  Alcotest.(check (list int)) "delivery FIFO across the retune"
    (List.init 120 Fun.id)
    (List.rev !delivered);
  (* The new 3:1 split is visible in the post-retune byte deltas. *)
  let delta0 = Striper.channel_bytes striper 0 - pre0 in
  let delta1 = Striper.channel_bytes striper 1 - pre1 in
  Alcotest.(check bool) "weighted split took effect" true
    (delta0 > 2 * delta1)

let suites =
  [
    ( "adapt",
      [
        Alcotest.test_case "retune at boundary" `Quick
          test_retune_at_boundary_immediate;
        Alcotest.test_case "retune staged mid-round" `Quick
          test_retune_mid_round_staged_and_rescaled;
        Alcotest.test_case "retune validation" `Quick test_retune_validates;
        Alcotest.test_case "resume clears DC" `Quick
          test_resume_clears_stale_deficit;
        Alcotest.test_case "probe ewma" `Quick test_rate_probe_ewma;
        Alcotest.test_case "probe reset forgets outage" `Quick
          test_rate_probe_reset_channel_forgets_outage;
        Alcotest.test_case "plan outside band" `Quick
          test_plan_retunes_outside_band;
        Alcotest.test_case "plan within band" `Quick test_plan_holds_within_band;
        Alcotest.test_case "plan needs estimates" `Quick
          test_plan_needs_full_estimates;
        Alcotest.test_case "plan clamps" `Quick test_plan_clamps;
        Alcotest.test_case "barrier reseeds cadence" `Quick
          test_barrier_reseeds_marker_cadence;
        Alcotest.test_case "cadence adopts up" `Quick
          test_marker_cadence_adopts_up;
        Alcotest.test_case "one transition per barrier" `Quick
          test_one_transition_per_barrier;
        Alcotest.test_case "retune rides barrier" `Quick
          test_retune_rides_barrier_end_to_end;
        QCheck_alcotest.to_alcotest prop_retune_matches_fresh_oracle;
      ] );
  ]
