(* Fault injection, channel suspension, and failure recovery:
   - the Fault module's schedules, spec parser and link semantics;
   - sender-side suspension (deficit engine, scheduler, striper);
   - the receiver's dead-channel watchdog under total single-channel
     failure (never blocks forever; FIFO re-established after revival,
     the Theorem 5.1 check);
   - a seeded randomized fault-schedule soak test (suite "fault-soak",
     seed from STRIPE_FAULT_SEED) for the CI fault matrix. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
module Obs = Stripe_obs

(* ------------------------------------------------------------------ *)
(* Fault module                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_spec () =
  match Fault.parse_spec "1:down@0.5,up@1.5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok actions ->
    Alcotest.(check int) "two actions" 2 (List.length actions);
    List.iter
      (fun a -> Alcotest.(check int) "channel 1" 1 a.Fault.channel)
      actions;
    (match actions with
    | [ { Fault.at = t0; event = Fault.Down; _ };
        { Fault.at = t1; event = Fault.Up; _ } ] ->
      Alcotest.(check (float 1e-9)) "down at 0.5" 0.5 t0;
      Alcotest.(check (float 1e-9)) "up at 1.5" 1.5 t1
    | _ -> Alcotest.fail "expected [down@0.5; up@1.5]")

let test_parse_spec_rate_burst () =
  match Fault.parse_spec "0:rate=5e6@1.0,burst=0.3/0.2@2.0" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ { Fault.event = Fault.Rate r; _ };
         { Fault.event = Fault.Burst_loss { duration; _ }; _ } ] ->
    Alcotest.(check (float 1e-9)) "rate" 5e6 r;
    Alcotest.(check (float 1e-9)) "burst duration" 0.2 duration
  | Ok _ -> Alcotest.fail "expected [rate; burst]"
  | exception _ -> Alcotest.fail "parse raised"

let test_parse_spec_errors () =
  List.iter
    (fun s ->
      match Fault.parse_spec s with
      | Ok _ -> Alcotest.failf "spec %S should not parse" s
      | Error _ -> ())
    [ ""; "x:down@1"; "0:frob@1"; "0:down"; "0:down@x"; "0:burst=0.5@1" ]

let test_down_link_drops_silently () =
  let sim = Sim.create () in
  let received = ref 0 in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~deliver:(fun (_ : int) -> incr received)
      ()
  in
  Fault.down_up sim link ~down_at:0.010 ~up_at:0.020;
  (* One packet while up, two while down, one after recovery. *)
  List.iter
    (fun at -> Sim.schedule sim ~at (fun () -> ignore (Link.send link ~size:100 0)))
    [ 0.001; 0.012; 0.015; 0.025 ];
  Sim.run sim;
  Alcotest.(check int) "only the up-time packets arrive" 2 !received;
  Alcotest.(check bool) "down drops counted" true (Link.down_drops link >= 2);
  Alcotest.(check bool) "link is back up" true (Link.is_up link)

let test_carrier_watchers () =
  let sim = Sim.create () in
  let transitions = ref [] in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~deliver:(fun (_ : int) -> ())
      ()
  in
  Link.on_carrier link (fun ~up -> transitions := up :: !transitions);
  Fault.down_up sim link ~down_at:0.01 ~up_at:0.02;
  (* set_up is level-triggered: repeating the current state is silent. *)
  Sim.schedule sim ~at:0.015 (fun () -> Link.set_up link false);
  Sim.run sim;
  Alcotest.(check (list bool)) "one down, one up" [ true; false ]
    !transitions

let test_burst_loss_restores_process () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~rate_bps:1e9 ~prop_delay:0.0001
      ~deliver:(fun (_ : int) -> ())
      ()
  in
  let original = Link.loss_process link in
  Fault.inject sim link ~at:0.01
    (Fault.Burst_loss { loss = Loss.bernoulli ~p:0.9; duration = 0.05 });
  Sim.schedule sim ~at:0.02 (fun () ->
      Alcotest.(check bool) "burst process installed" true
        (Link.loss_process link != original));
  Sim.run sim;
  Alcotest.(check bool) "original process restored" true
    (Link.loss_process link == original)

let test_random_schedule_deterministic () =
  let mk seed =
    Fault.random_schedule ~rng:(Rng.create seed) ~n_channels:3 ~horizon:10.0
      ~mtbf:2.0 ~mttr:0.5
  in
  let s1 = mk 42 and s2 = mk 42 and s3 = mk 43 in
  Alcotest.(check int) "same seed, same schedule" 0 (compare s1 s2);
  Alcotest.(check bool) "different seed differs" true (s1 <> s3);
  let sorted =
    List.for_all2
      (fun a b -> a.Fault.at <= b.Fault.at)
      (List.filteri (fun i _ -> i < List.length s1 - 1) s1)
      (List.tl s1)
  in
  Alcotest.(check bool) "sorted by time" true sorted;
  (* Every channel's last action is an Up: runs end with all links alive. *)
  List.iter
    (fun c ->
      match
        List.rev (List.filter (fun a -> a.Fault.channel = c) s1)
      with
      | [] -> ()
      | last :: _ ->
        Alcotest.(check bool)
          (Printf.sprintf "channel %d ends up" c)
          true (last.Fault.event = Fault.Up))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Sender-side suspension                                              *)
(* ------------------------------------------------------------------ *)

let test_deficit_suspension () =
  let d = Srr.create ~quanta:[| 1000; 1000; 1000 |] () in
  Deficit.suspend d 1;
  Alcotest.(check bool) "suspended" true (Deficit.suspended d 1);
  Alcotest.(check int) "two active" 2 (Deficit.n_active d);
  for _ = 1 to 50 do
    let c = Deficit.select d in
    Alcotest.(check bool) "never selects the suspended channel" true (c <> 1);
    Deficit.consume d ~size:900
  done;
  Deficit.resume d 1;
  let seen = Array.make 3 false in
  for _ = 1 to 50 do
    let c = Deficit.select d in
    seen.(c) <- true;
    Deficit.consume d ~size:900
  done;
  Alcotest.(check bool) "resumed channel serves again" true seen.(1)

let test_deficit_all_suspended_raises () =
  let d = Srr.create ~quanta:[| 1000; 1000 |] () in
  Deficit.suspend d 0;
  Deficit.suspend d 1;
  Alcotest.(check bool) "none active" false (Deficit.any_active d);
  Alcotest.check_raises "select raises"
    (Invalid_argument "Deficit.select: all channels suspended") (fun () ->
      ignore (Deficit.select d))

let test_scheduler_noncausal_remap () =
  let sched = Scheduler.random_selection ~n:3 ~seed:9 in
  Scheduler.suspend_channel sched 2;
  for i = 0 to 199 do
    let pkt = Packet.data ~seq:i ~size:100 () in
    let c = Scheduler.choose sched pkt in
    Alcotest.(check bool) "remapped off the suspended channel" true (c <> 2);
    Scheduler.account sched pkt c
  done

let test_striper_all_suspended_drops () =
  let engine = Srr.create ~quanta:[| 1000; 1000 |] () in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let counters = Obs.Counters.create ~n:2 in
  let emitted = ref 0 in
  let striper =
    Striper.create ~scheduler:sched
      ~sink:(Obs.Counters.sink counters)
      ~emit:(fun ~channel:_ _ -> incr emitted)
      ()
  in
  Striper.suspend_channel striper 0;
  Striper.suspend_channel striper 1;
  for i = 0 to 9 do
    Striper.push striper (Packet.data ~seq:i ~size:500 ())
  done;
  Alcotest.(check int) "nothing emitted" 0 !emitted;
  Alcotest.(check int) "all pushes dropped" 10
    (Striper.undispatched_drops striper);
  Alcotest.(check int) "channel-less txq drops counted" 10
    (Obs.Counters.no_channel_drops counters);
  (* Resume one channel: dispatch works again; the resume emitted the
     reset barrier. *)
  Striper.resume_channel striper 0;
  Striper.push striper (Packet.data ~seq:10 ~size:500 ());
  Alcotest.(check bool) "emits after resume" true (!emitted > 0)

let test_striper_suspension_redistributes () =
  let engine = Srr.create ~quanta:[| 1500; 1500; 1500 |] () in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let per_chan = Array.make 3 0 in
  let striper =
    Striper.create ~scheduler:sched
      ~emit:(fun ~channel pkt ->
        if not (Packet.is_marker pkt) then
          per_chan.(channel) <- per_chan.(channel) + 1)
      ()
  in
  Striper.suspend_channel striper 1;
  for i = 0 to 299 do
    Striper.push striper (Packet.data ~seq:i ~size:1000 ())
  done;
  Alcotest.(check int) "suspended channel got nothing" 0 per_chan.(1);
  Alcotest.(check int) "survivors carry everything" 300
    (per_chan.(0) + per_chan.(2));
  Alcotest.(check bool) "roughly balanced across survivors" true
    (abs (per_chan.(0) - per_chan.(2)) < 50)

(* ------------------------------------------------------------------ *)
(* Receiver watchdog under total single-channel failure                *)
(* ------------------------------------------------------------------ *)

(* A simulated 3-channel SRR bundle with markers, paced source, and an
   observability collector; the sender is link-state blind unless
   [sender_aware]. *)
type rig = {
  sim : Sim.t;
  striper : Striper.t;
  reseq : Resequencer.t;
  links : Packet.t Link.t array;
  collector : Obs.Sink.t;
  recovery : Stripe_metrics.Recovery.t;
  pushed : int ref;
}

let make_rig ?(sender_aware = false) ?watchdog () =
  let sim = Sim.create () in
  let collector = Obs.Sink.collector () in
  let obs_sink = collector in
  let recovery = Stripe_metrics.Recovery.create () in
  let engine = Srr.create ~quanta:[| 1500; 1500; 1500 |] () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ~sink:obs_sink ?watchdog
      ~deliver:(fun ~channel:_ pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq)
      ()
  in
  let links =
    Array.init 3 (fun i ->
        Link.create sim
          ~rate_bps:10e6 ~prop_delay:0.002 ~channel:i ~sink:obs_sink
          ~deliver:(fun pkt -> Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~sink:obs_sink
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  if sender_aware then
    Array.iteri
      (fun i link ->
        Link.on_carrier link (fun ~up ->
            if up then Striper.resume_channel striper i
            else Striper.suspend_channel striper i))
      links;
  let pushed = ref 0 in
  { sim; striper; reseq; links; collector; recovery; pushed }

let drive rig ~until_ =
  let rng = Rng.create 7 in
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  let rec tick () =
    if Sim.now rig.sim < until_ then begin
      for _ = 1 to 2 do
        Striper.push rig.striper
          (Packet.data ~seq:!(rig.pushed) ~born:(Sim.now rig.sim)
             ~size:(gen ()) ());
        incr rig.pushed
      done;
      Sim.schedule_after rig.sim ~delay:0.0006 tick
    end
  in
  tick ()

(* Satellite regression: one channel dies for good mid-run; a watchdogged
   receiver must keep delivering (never blocks forever), and once the
   channel revives FIFO must be re-established (Theorem 5.1 via the
   trace checker). *)
let test_watchdog_survives_total_channel_failure () =
  let rig =
    make_rig ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 } ()
  in
  drive rig ~until_:1.0;
  let down_at = 0.3 and up_at = 0.7 in
  Fault.down_up rig.sim rig.links.(1) ~down_at ~up_at;
  let delivered_at_half = ref 0 in
  Sim.schedule rig.sim ~at:0.5 (fun () ->
      delivered_at_half := Resequencer.delivered rig.reseq);
  Sim.run rig.sim;
  (* Progress during the outage: the watchdog skipped the dead channel
     instead of blocking on it until revival. *)
  Alcotest.(check bool) "deliveries continued during the outage" true
    (!delivered_at_half > 0
    && Resequencer.delivered rig.reseq > !delivered_at_half);
  Alcotest.(check bool) "watchdog declared the channel dead" true
    (Resequencer.dead_declarations rig.reseq >= 1);
  Alcotest.(check bool) "watchdog skips recorded" true
    (Resequencer.watchdog_skips rig.reseq > 0);
  Alcotest.(check bool) "channel revived on first arrival" false
    (Resequencer.channel_dead rig.reseq 1);
  Alcotest.(check bool) "receiver not left blocked with data pending" true
    (Resequencer.blocked_on rig.reseq = None
    || Resequencer.pending rig.reseq = 0);
  (* Theorem 5.1 (operational form): after the revived channel's markers
     flow again, delivery is FIFO. Allow a generous post-revival settle
     window of 100 ms (several marker intervals + delay). *)
  let events = Obs.Sink.events rig.collector in
  Alcotest.(check bool) "FIFO re-established after revival" true
    (Obs.Check.fifo_from ~time:(up_at +. 0.1) events);
  Alcotest.(check bool) "something was delivered after revival" true
    (Stripe_metrics.Recovery.first_after rig.recovery ~time:(up_at +. 0.1)
    <> None)

let test_no_watchdog_blocks_on_dead_channel () =
  (* Control for the regression above: without a watchdog the receiver
     blocks on the dead channel for the whole outage. *)
  let rig = make_rig () in
  drive rig ~until_:0.6;
  Sim.schedule rig.sim ~at:0.3 (fun () -> Link.set_up rig.links.(1) false);
  let blocked_mid_outage = ref None in
  Sim.schedule rig.sim ~at:0.55 (fun () ->
      blocked_mid_outage := Resequencer.blocked_on rig.reseq);
  Sim.run rig.sim;
  Alcotest.(check (option int)) "stuck waiting on the dead channel" (Some 1)
    !blocked_mid_outage;
  Alcotest.(check bool) "data trapped in the buffers" true
    (Resequencer.pending rig.reseq > 0)

let test_sender_aware_failover_keeps_fifo () =
  let rig =
    make_rig ~sender_aware:true
      ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 }
      ()
  in
  drive rig ~until_:1.0;
  Fault.down_up rig.sim rig.links.(1) ~down_at:0.3 ~up_at:0.7;
  Sim.run rig.sim;
  let events = Obs.Sink.events rig.collector in
  (* Suspension moved the load before packets could be lost mid-stream
     (only in-flight packets on the dying link are at risk), and the
     resume barrier resynchronized: the whole run stays FIFO. *)
  Alcotest.(check (list (pair int int))) "no FIFO violations" []
    (Obs.Check.fifo_violations events);
  Alcotest.(check bool) "suspend/resume events recorded" true
    (Obs.Check.count Obs.Event.Suspend events = 1
    && Obs.Check.count Obs.Event.Resume events = 1);
  Alcotest.(check bool) "barrier completed at the receiver" true
    (Resequencer.resets rig.reseq >= 1)

(* ------------------------------------------------------------------ *)
(* Randomized fault-schedule soak (CI matrix reads STRIPE_FAULT_SEED)   *)
(* ------------------------------------------------------------------ *)

let soak_seed () =
  match Sys.getenv_opt "STRIPE_FAULT_SEED" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> Alcotest.failf "bad STRIPE_FAULT_SEED %S" s)
  | None -> 1

let test_fault_soak () =
  let seed = soak_seed () in
  let horizon = 2.0 in
  let rig =
    make_rig ~sender_aware:true
      ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 }
      ()
  in
  (* Faulty phase over [0, horizon] (the schedule revives everything at
     the horizon), then a clean tail long enough for Theorem 5.1's
     resynchronization to be witnessed. *)
  drive rig ~until_:(horizon +. 0.5);
  let schedule =
    Fault.random_schedule ~rng:(Rng.create seed) ~n_channels:3 ~horizon
      ~mtbf:0.4 ~mttr:0.1
  in
  Fault.apply rig.sim ~links:rig.links schedule;
  Sim.run rig.sim;
  let delivered = Resequencer.delivered rig.reseq in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: substantial delivery (%d of %d)" seed delivered
       !(rig.pushed))
    true
    (float_of_int delivered > 0.5 *. float_of_int !(rig.pushed));
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: resynchronized after faults stopped" seed)
    true
    (Stripe_metrics.Recovery.resync_time rig.recovery ~errors_stop:horizon
    <> None);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: not blocked with reachable data at the end" seed)
    true
    (Resequencer.blocked_on rig.reseq = None
    || Stripe_metrics.Recovery.first_after rig.recovery
         ~time:(horizon +. 0.25)
       <> None)

(* External input raises nothing: any string, and any small edit of a
   valid spec, parses to [Ok] or [Error]. *)
let prop_parse_spec_total =
  Spec_fuzz.total ~name:"fault: parse_spec never raises"
    ~valid:"1:down@0.5,up@1.5,burst=0.3/0.2@2.0,rate=5e6@1.0"
    (fun s -> ignore (Fault.parse_spec s))

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "parse spec down/up" `Quick test_parse_spec;
        Alcotest.test_case "parse spec rate/burst" `Quick
          test_parse_spec_rate_burst;
        Alcotest.test_case "parse spec errors" `Quick test_parse_spec_errors;
        QCheck_alcotest.to_alcotest prop_parse_spec_total;
        Alcotest.test_case "down link drops silently" `Quick
          test_down_link_drops_silently;
        Alcotest.test_case "carrier watchers" `Quick test_carrier_watchers;
        Alcotest.test_case "burst loss restores process" `Quick
          test_burst_loss_restores_process;
        Alcotest.test_case "random schedule deterministic" `Quick
          test_random_schedule_deterministic;
      ] );
    ( "suspension",
      [
        Alcotest.test_case "deficit suspend/resume" `Quick
          test_deficit_suspension;
        Alcotest.test_case "deficit all suspended raises" `Quick
          test_deficit_all_suspended_raises;
        Alcotest.test_case "non-causal remap" `Quick
          test_scheduler_noncausal_remap;
        Alcotest.test_case "striper all suspended drops" `Quick
          test_striper_all_suspended_drops;
        Alcotest.test_case "striper redistributes" `Quick
          test_striper_suspension_redistributes;
      ] );
    ( "watchdog",
      [
        Alcotest.test_case "survives total channel failure" `Quick
          test_watchdog_survives_total_channel_failure;
        Alcotest.test_case "control: no watchdog blocks" `Quick
          test_no_watchdog_blocks_on_dead_channel;
        Alcotest.test_case "sender-aware failover keeps FIFO" `Quick
          test_sender_aware_failover_keeps_fifo;
      ] );
    ( "fault-soak",
      [ Alcotest.test_case "randomized schedule soak" `Slow test_fault_soak ] );
  ]
