(* Allocation regression tests for the per-packet path (DESIGN.md §8,
   "Allocation budget"). Each measures [Gc.minor_words] over a warmed
   steady state. The bounds are set for the default (dev) build, which
   does not inline across modules and so boxes more floats than a
   release build. Each sits between what the path costs now and what
   one broken rule costs:
   - Link: 8 words/packet in dev (0 in release); a closure per arrival
     adds 10. Sent in 100-packet bursts, the same 8: the calendar keeps
     its ring across bursts, where rehashing on every swing of the
     population cost 90 words/packet;
   - Resequencer.receive without a watchdog: about 0 words/call, markers
     included; a clock read per arrival adds 2, and a boxed marker stamp
     ([Some {round; dc}]) 5 per marker;
   - Sharded_pool.run: 10 words/push in dev; a closure per replayed op
     adds about 18. With 500 slots, four replay groups on one reset
     pool: 12.7 words/push; building a pool per group instead measured
     16.8;
   - Striper.push with Round_end markers every 4 rounds: about 2
     words/push, all of it the marker packets (0.1 markers/push); one
     boxed word or closure per push adds at least 2. *)

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

let test_link_send_and_run () =
  let sim = Sim.create ~engine:Sim.Calendar () in
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
  (* The first pass grows the transmit and in-flight rings. *)
  send_and_run ();
  let words = words_during send_and_run in
  Alcotest.(check int) "all delivered" (2 * n) !delivered;
  check_at_most "Link send + arrival per packet" ~bound:16.0
    (words /. float_of_int n)

(* The bursts swing the calendar's population between 0 and about 100
   events, across two powers of two. *)
let test_link_bursts () =
  let sim = Sim.create ~engine:Sim.Calendar () in
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
  check_at_most "Link send + arrival per packet, 100-packet bursts"
    ~bound:20.0
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
  check_at_most "Striper.push per packet" ~bound:3.0 per_push

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
  check_at_most "Sharded_pool.run per push" ~bound:24.0
    (replay_words_per_push ~bundles:8 ~pushes:20_000)

let test_sharded_replay_groups () =
  check_at_most "Sharded_pool.run per push, several groups" ~bound:14.5
    (replay_words_per_push ~bundles:500 ~pushes:40_000)

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
        Alcotest.test_case "Striper.push per packet" `Quick test_striper_push;
      ] );
  ]
