(* Allocation regression tests for the per-packet path (DESIGN.md §8,
   "Allocation budget"). Each measures [Gc.minor_words] over a warmed
   steady state. The dev build does not inline across modules and so
   boxes more floats than a release build; a case whose cost differs
   between the two has a dev bound and a tighter release bound, checked
   when the suite is built with [--profile release]. Each release bound
   is the release measurement plus a margin of 0.5 words, so one boxed
   float per packet (2 words), which a dev bound may let through, fails
   it. Each dev bound sits between what the path costs now and what one
   broken rule costs:
   - Link: 6.0 words/packet in dev, where the closed-form departure
     time and the clock reads box as they cross into [Sim]; a closure
     per arrival adds 10. Sent in 100-packet bursts, also 6.0. In
     release both cost 0 words/packet: the link keeps one pending
     landing event, for the head of its wire, so the calendar's
     population stays at 1 however long the queue. When every queued
     packet had an event of its own, the 100,000-packet pass cost 2.586
     in release, all of it the calendar's, as its population swung from
     0 to 100,000 and back;
   - Resequencer.receive without a watchdog: about 0 words/call, markers
     included, each queued as its stamp in its channel's int ring,
     beside the static [Packet.marker_sentinel]; a clock read per arrival adds 2, and a
     boxed marker stamp ([Some {round; dc}]) 5 per marker;
   - Resequencer.recycle at 4 channels: 2 words/call in either build
     with a watchdog (the clock read that restarts its silence timers),
     0 without; copying the quanta for the engine's restart adds 5, an
     [Array.iter] closure checking them 5 more, and rebuilding the
     per-channel arrays instead of clearing them measured 104. A
     Bundle_pool acquire and release of a recycled 4-channel slot: 0
     words in either build, each settling the slot's wires first and
     reading the time from [Sim.clock]'s cell; a time passed to the
     settle as a float argument, or read through [Sim.now] in dev,
     boxes 2 words a read;
   - Bundle_pool.reset over 8 used 4-channel slots: 0 words/call in
     either build. A fresh quanta copy compared per slot adds 5 words a
     slot, a list of the (then eight) window-counter arrays 24, and the
     closures of [Option.map] and [Array.exists] 10 together;
   - Bundle_pool.push into a warmed 4-channel slot, in 100-packet
     bursts run to their landings: 0.04 words/push in dev (the pool's
     one pending event, its time boxed as it crosses into [Sim] once a
     burst), 0 in release; an event per packet cost 6.4 in dev. Its
     markers cross the wire as stamps, not packets; building them as
     packets (0.1 markers/push at 15.5 words, the batch's boxed time
     included) measured 1.54;
   - Sharded_pool.run: 2.3 words/push in dev (the op times, boxed as
     they cross into [Sim.run_until]), 0.19 in release, its markers
     crossing the pool's wires as stamps; building them as packets
     adds 1.24, a closure allocated per replayed op about 18. With 500
     slots, four replay groups on one reset pool: 3.5 words/push in
     dev, 1.30 in release; marker packets add 1.57, and building a pool
     per group instead measured 16.8 in dev when each landing was an
     event;
   - Sharded_pool.acquire/push/release: 2 words per recorded op in dev,
     the op's time boxed as it crosses into the recorder (0 in release,
     where the calls inline); a float field of the recorder's record
     storing the time, and non-inlined calls taking it, measured 4 words
     per op in release;
   - Packet.data, untagged, with a fresh [born]: 8 words/call in
     release, the 6-word record (its tags are the shared
     [Packet.no_meta]) plus the boxed [born]; 10 in dev, where the
     optional [born] is boxed in a [Some] as well. A tag block per
     packet adds 4, the 7-field record it replaced 2;
   - A marker packet with its [born] boxed already: 15 words/call in
     either build, the 6-word record and the 9-word [Marker] block that
     holds the marker's fields inline; a separate marker record behind a
     [Marker] box added 2. Only a sender whose markers ride a [Link]
     builds one ([Striper]); the fleet's pool builds none;
   - Striper.push with Round_end markers every 4 rounds: 1.55
     words/push in either build, all of it the marker packets (0.1
     markers/push at 15.5 words each: the 15-word marker packet and a
     quarter of the boxed [born] the batch of 4 shares); one boxed word
     or closure per push adds at least 2;
   - Sim.schedule plus step of one preallocated closure: 2 words/event
     in dev (the event time, boxed as it crosses into the queue; 0 in
     release); one more boxed word per event adds 2.
     [Sim.run_until] in place of [step]: the same; a closure per call
     and a boxed peeked time per event added 2.02. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_at_most what ~bound actual =
  if actual > bound then
    Alcotest.failf "%s: %.3f words, bound %.3f" what actual bound

(* A bound that is tighter in a release build, where calls inline
   across modules and floats stay unboxed. *)
let check_profiled what ~dev ~release actual =
  let bound = if Build_profile.name = "release" then release else dev in
  check_at_most what ~bound actual

let test_link_send_and_run () =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let link =
    Link.create sim ~rate_bps:1e9 ~prop_delay:0.001
      ~deliver:(fun (_ : int) -> incr delivered)
      ()
  in
  let n = 100_000 in
  let send_and_run () =
    for i = 1 to n do
      ignore (Link.send link ~size:100 i)
    done;
    Sim.run sim
  in
  (* The first pass grows the wire ring and the calendar. *)
  send_and_run ();
  let words = words_during send_and_run in
  Alcotest.(check int) "all delivered" (2 * n) !delivered;
  check_profiled "Link send + arrival per packet" ~dev:16.0 ~release:0.5
    (words /. float_of_int n)

(* Each burst starts on an idle wire, so its first send schedules the
   link's landing event afresh. *)
let test_link_bursts () =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let link =
    Link.create sim ~rate_bps:1e9 ~prop_delay:0.001
      ~deliver:(fun (_ : int) -> incr delivered)
      ()
  in
  let bursts = 1000 and burst = 100 in
  let send_bursts () =
    for _ = 1 to bursts do
      for i = 1 to burst do
        ignore (Link.send link ~size:100 i)
      done;
      Sim.run sim
    done
  in
  send_bursts ();
  let words = words_during send_bursts in
  Alcotest.(check int) "all delivered" (2 * bursts * burst) !delivered;
  check_profiled "Link send + arrival per packet, 100-packet bursts"
    ~dev:20.0 ~release:0.5
    (words /. float_of_int (bursts * burst))

let test_resequencer_in_order () =
  let quanta = [| 1500; 1500; 1500 |] in
  let sender = Srr.create ~quanta () in
  let n = 1100 in
  let channels =
    Array.init n (fun _ ->
        let c = Deficit.select sender in
        Deficit.consume sender ~size:500;
        c)
  in
  let pkts = Array.init n (fun i -> Packet.data ~seq:i ~size:500 ()) in
  (* A clock whose reading is a fresh float, as a simulator's is. *)
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let delivered = ref 0 in
  let r =
    Resequencer.create ~deficit:(Srr.create ~quanta ())
      ~now:(fun () -> Sim.now sim)
      ~deliver:(fun ~channel:_ _ -> incr delivered)
      ()
  in
  let receive lo hi =
    for i = lo to hi - 1 do
      Resequencer.receive r ~channel:channels.(i) pkts.(i)
    done
  in
  (* Warm up: the first arrivals size the per-channel buffers. *)
  receive 0 100;
  let words = words_during (fun () -> receive 100 n) in
  Alcotest.(check int) "all delivered in order" n !delivered;
  check_at_most "Resequencer.receive per call" ~bound:0.5
    (words /. float_of_int (n - 100))

(* In-order arrivals from a striper with markers: 2 channels x quantum
   2500 carry 10 packets of 500 B per round, and a marker on each channel
   every other round makes one marker per 10 data packets. *)
let test_resequencer_markers () =
  let quanta = [| 2500; 2500 |] in
  let n = 20_000 in
  let sent = ref [] in
  let striper =
    Striper.create ~scheduler:(Scheduler.srr ~quanta ())
      ~marker:(Marker.make ~every_rounds:2 ())
      ~now:(fun () -> 0.0)
      ~emit:(fun ~channel pkt -> sent := (channel, pkt) :: !sent)
      ()
  in
  for i = 0 to n - 1 do
    Striper.push striper (Packet.data ~seq:i ~size:500 ())
  done;
  let arrivals = Array.of_list (List.rev !sent) in
  let markers = Striper.markers_sent striper in
  Alcotest.(check bool) "one marker per 10 packets" true
    (abs (markers - (n / 10)) <= 2);
  (* A clock whose reading is a fresh float, as a simulator's is. *)
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let delivered = ref 0 in
  let r =
    Resequencer.create ~deficit:(Srr.create ~quanta ())
      ~now:(fun () -> Sim.now sim)
      ~deliver:(fun ~channel:_ _ -> incr delivered)
      ()
  in
  let receive lo hi =
    for i = lo to hi - 1 do
      let channel, pkt = arrivals.(i) in
      Resequencer.receive r ~channel pkt
    done
  in
  let warm = 1100 in
  receive 0 warm;
  let words = words_during (fun () -> receive warm (Array.length arrivals)) in
  Alcotest.(check int) "all delivered in order" n !delivered;
  (* All but the trailing batch, which waits behind no data. *)
  Alcotest.(check bool) "markers applied" true
    (markers - Resequencer.markers_seen r <= Array.length quanta);
  check_at_most "Resequencer.receive per call, markers included" ~bound:0.2
    (words /. float_of_int (Array.length arrivals - warm))

(* The fleet's per-release path ([Bundle_pool.release]): re-arming a
   4-channel resequencer whose buffers and watchdog arrays are already
   sized, with and without a watchdog. *)
let recycle_words ?watchdog () =
  let quanta = [| 1500; 1500; 1500; 1500 |] in
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let r =
    Resequencer.create ~deficit:(Srr.create ~quanta ())
      ~now:(fun () -> Sim.now sim)
      ?watchdog
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  let dirty () =
    for c = 0 to 3 do
      Resequencer.receive r ~channel:c (Packet.data ~seq:c ~size:500 ())
    done
  in
  dirty ();
  Resequencer.recycle r;
  let n = 10_000 in
  let words =
    words_during (fun () ->
        for _ = 1 to n do
          Resequencer.recycle r
        done)
  in
  words /. float_of_int n

let test_resequencer_recycle () =
  check_at_most "Resequencer.recycle per call" ~bound:2.5
    (recycle_words ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 } ())

let test_resequencer_recycle_no_watchdog () =
  check_at_most "Resequencer.recycle per call, no watchdog" ~bound:0.5
    (recycle_words ())

(* A churned slot's whole cycle: acquire a recycled slot, release it.
   Both ends re-arm in place: the slot's resequencer, its sender engine
   and its counters. *)
let test_pool_release_acquire () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~sim
      {
        Bundle_pool.rate_bps = Array.make 4 10e6;
        prop_delay = Array.make 4 0.001;
        quanta = Array.make 4 1500;
        marker_every = 4;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  Bundle_pool.release pool (Bundle_pool.acquire pool);
  let n = 10_000 in
  let words =
    words_during (fun () ->
        for _ = 1 to n do
          Bundle_pool.release pool (Bundle_pool.acquire pool)
        done)
  in
  check_at_most "Bundle_pool acquire + release per cycle" ~bound:0.5
    (words /. float_of_int n)

(* The fleet's per-push path: [Bundle_pool.push] into a warmed 4-channel
   slot, its marker batches included, and the arrivals it schedules, in
   100-packet bursts. A marker crosses the wire and waits in the
   resequencer as its stamp, so neither end builds a marker packet. *)
let test_pool_push () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~sim
      {
        Bundle_pool.rate_bps = Array.make 4 10e6;
        prop_delay = Array.make 4 0.001;
        quanta = Array.make 4 1500;
        marker_every = 4;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  let id = Bundle_pool.acquire pool in
  let bursts n =
    for _ = 1 to n do
      for k = 0 to 99 do
        Bundle_pool.push pool id ~size:(200 + (k mod 3 * 400))
      done;
      Sim.run sim
    done
  in
  bursts 10;
  let markers0 = Bundle_pool.markers_sent pool in
  let n = 1000 in
  let words = words_during (fun () -> bursts n) in
  Alcotest.(check bool) "marker batches were sent" true
    (Bundle_pool.markers_sent pool - markers0 > n);
  Alcotest.(check bool) "the receiver kept up" true
    (Bundle_pool.rx_pending_packets pool id < 100);
  check_profiled "Bundle_pool.push per push, markers included" ~dev:0.5
    ~release:0.5
    (words /. float_of_int (100 * n))

(* A replay group's start: [Bundle_pool.reset] over 8 used 4-channel
   slots re-arms every slot's engine, resequencer and counters in
   place. *)
let test_pool_reset () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~initial_capacity:8 ~sim
      {
        Bundle_pool.rate_bps = Array.make 4 10e6;
        prop_delay = Array.make 4 0.001;
        quanta = Array.make 4 1500;
        marker_every = 4;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  let ids = Array.init 8 (fun _ -> Bundle_pool.acquire pool) in
  for k = 0 to 399 do
    Bundle_pool.push pool ids.(k mod 8) ~size:(200 + (k mod 3 * 400))
  done;
  Sim.run sim;
  Sim.reset sim;
  Bundle_pool.reset pool;
  let n = 10_000 in
  let words =
    words_during (fun () ->
        for _ = 1 to n do
          Bundle_pool.reset pool
        done)
  in
  check_at_most "Bundle_pool.reset per call, 8 slots" ~bound:0.5
    (words /. float_of_int n)

(* The workload's packet: an untagged [Packet.data] stamped with a fresh
   clock reading, as the paced sources build it. *)
let test_packet_data () =
  (* A clock whose reading is a fresh float, as a simulator's is. *)
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let last = Array.make 1 (Packet.data ~seq:0 ~size:1 ()) in
  let build n =
    for i = 1 to n do
      last.(0) <- Packet.data ~seq:i ~born:(Sim.now sim) ~size:500 ()
    done
  in
  build 1000;
  let n = 100_000 in
  let words = words_during (fun () -> build n) in
  Alcotest.(check bool) "untagged packet shares Packet.no_meta" true
    (last.(0).Packet.meta == Packet.no_meta);
  check_profiled "Packet.data per call" ~dev:10.5 ~release:8.5
    (words /. float_of_int n)

(* A marker packet whose [born] is boxed already, as the striper boxes
   one clock reading for a batch of markers. *)
let test_marker_packet () =
  (* A clock whose reading is a fresh float, as a simulator's is. *)
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let born = Sys.opaque_identity (Sim.now sim) in
  let last = Array.make 1 (Packet.data ~seq:0 ~size:1 ()) in
  let build n =
    for i = 1 to n do
      last.(0) <-
        Packet.marker_with ~credit:Packet.no_credit ~reset:false ~epoch:0
          ~gen:0 ~channel:(i land 3) ~round:i ~dc:1500 ~born
    done
  in
  build 1000;
  let n = 100_000 in
  let words = words_during (fun () -> build n) in
  Alcotest.(check bool) "a valid marker" true
    (Packet.is_marker last.(0) && Packet.marker_valid last.(0));
  check_at_most "marker packet per call" ~bound:15.5
    (words /. float_of_int n)

let test_striper_push () =
  let quanta = [| 1500; 1500; 1500; 1500 |] in
  (* A clock whose reading is a fresh float, as a simulator's is. *)
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.5 ignore;
  Sim.run sim;
  let emitted = ref 0 in
  let striper =
    Striper.create ~scheduler:(Scheduler.srr ~quanta ())
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel:_ _ -> incr emitted)
      ()
  in
  let rng = Rng.create 11 in
  let small = Packet.data ~seq:0 ~size:200 () in
  let large = Packet.data ~seq:0 ~size:1000 () in
  let n = 101_000 in
  let pkts = Array.init n (fun _ -> if Rng.bool rng then small else large) in
  let push lo hi =
    for i = lo to hi - 1 do
      Striper.push striper pkts.(i)
    done
  in
  push 0 1000;
  let markers0 = Striper.markers_sent striper in
  let words = words_during (fun () -> push 1000 n) in
  let per_push = words /. float_of_int (n - 1000) in
  Alcotest.(check bool) "markers were sent" true
    (Striper.markers_sent striper > markers0);
  Alcotest.(check int) "every packet and marker emitted"
    (Striper.pushed_packets striper + Striper.markers_sent striper) !emitted;
  check_profiled "Striper.push per packet" ~dev:3.0 ~release:2.05 per_push

(* Words per push of a one-domain replay: [bundles] slots acquired up
   front, [pushes] packets spread round-robin over them. *)
let replay_words_per_push ~bundles ~pushes =
  let config =
    {
      Bundle_pool.rate_bps = [| 10e6; 10e6 |];
      prop_delay = [| 0.001; 0.002 |];
      quanta = [| 1500; 1500 |];
      marker_every = 4;
      guard = false;
      discipline = Bundle_pool.Srr;
    }
  in
  let pool = Sharded_pool.create ~domains:1 ~seed:1 config in
  let ids =
    Array.init bundles (fun i ->
        Sharded_pool.acquire pool ~at:(float_of_int i *. 1e-5))
  in
  for k = 0 to pushes - 1 do
    Sharded_pool.push pool
      ~at:(0.01 +. (float_of_int k *. 1e-4))
      ids.(k mod bundles)
      ~size:(if k mod 3 = 0 then 1000 else 200)
  done;
  Array.iter (fun id -> Sharded_pool.release pool ~at:5.0 id) ids;
  let report = ref None in
  let words = words_during (fun () -> report := Some (Sharded_pool.run pool)) in
  Alcotest.(check int) "all delivered" pushes
    (Option.get !report).Sharded_pool.delivered_packets;
  words /. float_of_int pushes

let test_sharded_replay () =
  check_profiled "Sharded_pool.run per push" ~dev:6.0 ~release:0.692
    (replay_words_per_push ~bundles:8 ~pushes:20_000)

let test_sharded_replay_groups () =
  check_profiled "Sharded_pool.run per push, several groups" ~dev:7.5
    ~release:1.800
    (replay_words_per_push ~bundles:500 ~pushes:40_000)

(* The event core alone: one preallocated closure rescheduled from
   itself, so only [Sim.schedule], the queue and [Sim.step] allocate. *)
let sim_words_per_event () =
  let sim = Sim.create () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Sim.schedule_after sim ~delay:1e-6 tick
    end
  in
  let run n =
    left := n;
    Sim.schedule sim ~at:(Sim.now sim) tick;
    Sim.run sim
  in
  run 1000;
  let n = 100_000 in
  let words = words_during (fun () -> run n) in
  words /. float_of_int n

(* The same core driven by [Sim.run_until] over 1000 horizons, 100
   events apart, against [Sim.step]: words per fired event. The
   horizons are boxed up front, so passing one allocates nothing; the
   slack covers the one closure [List.iter] is given. *)
let run_until_and_step_words () =
  let sim = Sim.create () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Sim.schedule_after sim ~delay:1e-6 tick
    end
  in
  let start n =
    left := n;
    Sim.schedule sim ~at:(Sim.now sim) tick
  in
  let n = 100_000 in
  start 1000;
  Sim.run sim;
  let by_step =
    words_during (fun () ->
        start n;
        while Sim.step sim do
          ()
        done)
  in
  let horizons =
    List.init 1000 (fun k -> Sim.now sim +. (float_of_int (k + 1) *. 1e-4))
  in
  let by_run_until =
    words_during (fun () ->
        start n;
        List.iter (Sim.run_until sim) horizons;
        Sim.run sim)
  in
  (by_run_until /. float_of_int n, by_step /. float_of_int n)

let test_run_until () =
  let by_run_until, by_step = run_until_and_step_words () in
  check_at_most
    (Printf.sprintf "Sim.run_until per event, step's %.3f" by_step)
    ~bound:(by_step +. 0.001) by_run_until

(* Recording a fleet: [bundles] acquired, [pushes] pushes spread
   round-robin over them, all released, then the same again on the
   recycled slots; the second round is measured. Each time is computed
   in the loop, unboxed, as a recording simulation reads its clock. *)
let recorder_words_per_op ~bundles ~pushes =
  let config =
    {
      Bundle_pool.rate_bps = [| 10e6; 10e6 |];
      prop_delay = [| 0.001; 0.002 |];
      quanta = [| 1500; 1500 |];
      marker_every = 4;
      guard = false;
      discipline = Bundle_pool.Srr;
    }
  in
  let sp = Sharded_pool.create ~domains:1 ~seed:1 config in
  let ops = bundles + pushes + bundles in
  let ids = Array.make bundles 0 in
  let round r =
    for k = 0 to ops - 1 do
      let at = float_of_int ((r * ops) + k) *. 1e-5 in
      if k < bundles then ids.(k) <- Sharded_pool.acquire sp ~at
      else if k < bundles + pushes then
        Sharded_pool.push sp ~at ids.(k mod bundles) ~size:500
      else Sharded_pool.release sp ~at ids.(k - bundles - pushes)
    done
  in
  round 0;
  words_during (fun () -> round 1) /. float_of_int ops

let test_recorder () =
  check_profiled "Sharded_pool.acquire/push/release per recorded op"
    ~dev:2.5 ~release:0.5
    (recorder_words_per_op ~bundles:200 ~pushes:100_000)

let test_sim_schedule_step () =
  check_profiled "Sim.schedule + step per event" ~dev:3.0 ~release:0.5
    (sim_words_per_event ())

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "link send and run" `Quick test_link_send_and_run;
        Alcotest.test_case "link send in bursts" `Quick test_link_bursts;
        Alcotest.test_case "resequencer in-order receive" `Quick
          test_resequencer_in_order;
        Alcotest.test_case "resequencer receive with markers" `Quick
          test_resequencer_markers;
        Alcotest.test_case "sharded replay" `Quick test_sharded_replay;
        Alcotest.test_case "sharded replay, several groups" `Quick
          test_sharded_replay_groups;
        Alcotest.test_case "resequencer recycle" `Quick test_resequencer_recycle;
        Alcotest.test_case "resequencer recycle, no watchdog" `Quick
          test_resequencer_recycle_no_watchdog;
        Alcotest.test_case "pool release and acquire" `Quick
          test_pool_release_acquire;
        Alcotest.test_case "pool reset" `Quick test_pool_reset;
        Alcotest.test_case "pool push with markers" `Quick test_pool_push;
        Alcotest.test_case "Packet.data per call" `Quick test_packet_data;
        Alcotest.test_case "marker packet" `Quick test_marker_packet;
        Alcotest.test_case "Striper.push per packet" `Quick test_striper_push;
        Alcotest.test_case "Sim schedule and step (calendar)" `Quick
          test_sim_schedule_step;
        Alcotest.test_case "Sim run_until (calendar)" `Quick test_run_until;
        Alcotest.test_case "sharded recorder" `Quick test_recorder;
      ] );
  ]
