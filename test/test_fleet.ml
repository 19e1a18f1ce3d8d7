(* Bundle_pool tests: flyweight recycling correctness (a recycled slot
   must be indistinguishable from a fresh bundle), high-water isolation
   across generations (the pooled-reuse regression for
   Fifo_queue.recycle), stale in-flight discard across churn, growth
   past the initial capacity, the refused guard, heap/calendar engine
   agreement on a churned fleet, and agreement with [Striper] on the
   sender step and with a [Striper] + [Link] + [Resequencer] chain on
   what is delivered when. *)

open Stripe_netsim
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let delays = [| 0.001; 0.002; 0.005; 0.010 |]

let config ?(guard = false) ?(discipline = Bundle_pool.Srr) () =
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta = Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ();
    marker_every = 4;
    guard;
    discipline;
  }

let sizes = [| 200; 1000; 400; 1500; 700; 200; 1200 |]

let push_n pool id n =
  for i = 0 to n - 1 do
    Bundle_pool.push pool id ~size:sizes.(i mod Array.length sizes)
  done

(* --- Fifo_queue.recycle (the pooled-reuse primitive) ---------------- *)

let test_fifo_recycle_resets_high_water () =
  let q = Stripe_packet.Fifo_queue.create () in
  for i = 1 to 10 do
    Stripe_packet.Fifo_queue.push q ~size:100 i
  done;
  Stripe_packet.Fifo_queue.clear q;
  (* [clear] keeps the lifetime maxima by design... *)
  check_int "clear keeps high water (packets)" 10
    (Stripe_packet.Fifo_queue.high_water_packets q);
  check_int "clear keeps high water (bytes)" 1000
    (Stripe_packet.Fifo_queue.high_water_bytes q);
  (* ...so a pool recycling the queue to a new owner must use [recycle],
     or the second bundle reports the first one's maxima as its own. *)
  for i = 1 to 10 do
    Stripe_packet.Fifo_queue.push q ~size:100 i
  done;
  Stripe_packet.Fifo_queue.recycle q;
  check "recycled queue is empty" true (Stripe_packet.Fifo_queue.is_empty q);
  check_int "recycle restarts high water (packets)" 0
    (Stripe_packet.Fifo_queue.high_water_packets q);
  check_int "recycle restarts high water (bytes)" 0
    (Stripe_packet.Fifo_queue.high_water_bytes q);
  Stripe_packet.Fifo_queue.push q ~size:100 1;
  Stripe_packet.Fifo_queue.push q ~size:100 2;
  check_int "new owner's own maximum" 2
    (Stripe_packet.Fifo_queue.high_water_packets q)

(* --- Recycling correctness ------------------------------------------ *)

let test_recycled_slot_replays_like_fresh () =
  (* Generation 1 and generation 2 of the same slot run the same seeded
     workload; every per-bundle number must agree — and agree with a
     never-recycled slot of a fresh pool. *)
  let run_generation () =
    let sim = Sim.create () in
    let pool = Bundle_pool.create ~sim ~initial_capacity:4 (config ()) in
    let id1 = Bundle_pool.acquire pool in
    push_n pool id1 500;
    Sim.run sim;
    let fresh =
      ( Bundle_pool.delivered_packets pool id1,
        Bundle_pool.delivered_bytes pool id1,
        Bundle_pool.rx_high_water_packets pool id1 )
    in
    Bundle_pool.release pool id1;
    let id2 = Bundle_pool.acquire pool in
    check_int "free list reuses the slot" id1 id2;
    push_n pool id2 500;
    Sim.run sim;
    let recycled =
      ( Bundle_pool.delivered_packets pool id2,
        Bundle_pool.delivered_bytes pool id2,
        Bundle_pool.rx_high_water_packets pool id2 )
    in
    (fresh, recycled)
  in
  let fresh, recycled = run_generation () in
  let dp, db, hw = fresh in
  check "generation 1 delivered data" true (dp > 400);
  check "generation 1 buffered at the resequencer" true (hw > 0);
  Alcotest.(check (triple int int int))
    "recycled generation replays the fresh one exactly" fresh recycled;
  check_int "delivered bytes consistent" db (let _, b, _ = recycled in b)

let test_recycle_restarts_rx_high_water () =
  (* The pooled-reuse regression: the resequencer's buffers are
     recycled, not cleared, so the second owner must never see the
     first owner's buffering maxima. *)
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ()) in
  let id = Bundle_pool.acquire pool in
  push_n pool id 500;
  Sim.run sim;
  check "first owner buffered" true (Bundle_pool.rx_high_water_packets pool id > 0);
  Bundle_pool.release pool id;
  let id2 = Bundle_pool.acquire pool in
  check_int "same slot" id id2;
  check_int "high water restarts with the new owner" 0
    (Bundle_pool.rx_high_water_packets pool id2);
  (* A tiny second workload: the reported maximum must be the small
     bundle's own, not inherited from the 500-packet first owner. *)
  push_n pool id2 8;
  Sim.run sim;
  let hw = Bundle_pool.rx_high_water_packets pool id2 in
  check "second owner's own (small) maximum" true (hw >= 0 && hw < 8)

let test_stale_in_flight_discarded () =
  (* Release with packets still on the wires, immediately hand the slot
     to a new bundle: the predecessor's tail must drain into the void
     while the new owner's stream delivers exactly as if the slot were
     fresh. *)
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true ~sim ~initial_capacity:2 (config ())
  in
  let id = Bundle_pool.acquire pool in
  (* Full-size packets: the dead tail's marker stamps differ from the
     ones the new owner's mixed sizes earn. *)
  for _ = 1 to 200 do
    Bundle_pool.push pool id ~size:1500
  done;
  check "packets in flight at release" true
    (Bundle_pool.in_flight_packets pool id > 0);
  Bundle_pool.release pool id;
  check_int "released tail no longer counted in-flight" 0
    (Bundle_pool.in_flight_packets pool id);
  let id2 = Bundle_pool.acquire pool in
  check_int "same slot" id id2;
  check_int "new owner starts with zero delivered" 0
    (Bundle_pool.delivered_packets pool id2);
  push_n pool id2 300;
  Sim.run sim;
  check_int "new owner pushed its own stream" 300
    (Bundle_pool.pushed_packets pool id2);
  (* The dead generation's 200 packets arrived and were discarded: the
     new owner's delivered count is bounded by its own pushes and its
     stream is complete up to the usual blocked tail. *)
  let dp = Bundle_pool.delivered_packets pool id2 in
  check "delivered only the new owner's data" true (dp > 250 && dp <= 300);
  check_int "wires fully drained" 0 (Bundle_pool.in_flight_packets pool id2);
  (* The dead tail held markers too, and their stamps went with them: a
     stale stamp handed to the new owner's receiver would misplace its
     packets, which lossless wires deliver in order (Thm 4.1) and in
     full, as the same pushes do on a fresh pool. *)
  check_int "new owner delivered in order" 0
    (Bundle_pool.seq_inversions pool id2);
  let sim' = Sim.create () in
  let fresh = Bundle_pool.create ~sim:sim' (config ()) in
  let id3 = Bundle_pool.acquire fresh in
  push_n fresh id3 300;
  Sim.run sim';
  check_int "new owner delivers as a fresh slot"
    (Bundle_pool.delivered_packets fresh id3) dp

let test_pool_grows_past_initial_capacity () =
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ()) in
  let ids = Array.init 9 (fun _ -> Bundle_pool.acquire pool) in
  check "capacity doubled as needed" true (Bundle_pool.capacity pool >= 9);
  check_int "all live" 9 (Bundle_pool.live_bundles pool);
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  check_int "ids are distinct" 9 (List.length distinct);
  (* Slots built by a growth mid-run must work like the initial ones. *)
  Array.iter (fun id -> push_n pool id 50) ids;
  Sim.run sim;
  Array.iter
    (fun id ->
      check "grown slot delivers" true (Bundle_pool.delivered_packets pool id > 30))
    ids;
  check_int "pool totals add up" 9
    (Bundle_pool.total_acquired pool)

let test_pool_refuses_a_guard () =
  (* The pool has no guard mode: its wires are perfect FIFOs, on which a
     guard could only ride its in-order fast path. *)
  Alcotest.check_raises "guard = true is refused"
    (Invalid_argument "Bundle_pool.create: the pool has no channel guard")
    (fun () ->
      ignore (Bundle_pool.create ~sim:(Sim.create ()) (config ~guard:true ())))

(* --- A churned fleet, pinned to the heap's totals ------------------- *)

let churn_run () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let pool = Bundle_pool.create ~sim ~initial_capacity:8 (config ()) in
  let live = ref [] in
  let n_churns = ref 0 in
  let rec churn () =
    (* Alternate arrivals and departures; keep pushing traffic into a
       random live bundle between churn events. *)
    if !n_churns < 60 then begin
      incr n_churns;
      (if List.length !live < 6 || (Rng.bool rng && !live <> []) then
         live := Bundle_pool.acquire pool :: !live
       else
         match !live with
         | id :: rest ->
           Bundle_pool.release pool id;
           live := rest
         | [] -> ());
      List.iter (fun id -> push_n pool id (1 + Rng.int rng 30)) !live;
      Sim.schedule_after sim ~delay:0.005 churn
    end
  in
  churn ();
  Sim.run sim;
  ( Bundle_pool.total_acquired pool,
    Bundle_pool.recycles pool,
    Bundle_pool.total_delivered_packets pool,
    Bundle_pool.total_delivered_bytes pool,
    Bundle_pool.markers_sent pool )

(* Acquired, recycled, delivered packets and bytes, and markers, as the
   binary-heap engine counted them the last time [Sim] could run on
   it: the calendar must count the same. *)
let test_engines_agree_on_churned_fleet () =
  let totals = churn_run () in
  Alcotest.(check (list int))
    "every fleet total, as on the heap"
    [ 35; 25; 7616; 5_537_600; 396 ]
    (let a, r, p, b, m = totals in
     [ a; r; p; b; m ])

(* --- One sender step: Striper and a pool slot agree ----------------- *)

(* The same quanta and pushes through a [Striper] and one pool slot,
   then one §5 reset on each side: both run [Marker]'s sender step, so
   they send the same number of markers, put the same number of packets
   on every channel, and stamp the same markers on every channel — the
   striper in the packets it builds, the pool on its wire. *)
let prop_striper_matches_pool_slot =
  QCheck.Test.make ~name:"striper and pool slot send alike" ~count:200
    QCheck.(
      pair (oneofl [ 1; 2; 4 ])
        (list_of_size Gen.(1 -- 300) (Arb.int_range 1 1500)))
    (fun (marker_every, sizes) ->
      let config = { (config ()) with Bundle_pool.marker_every } in
      let per_channel = Array.make (Array.length rates) 0 in
      let stamps = Array.make (Array.length rates) [] in
      let striper =
        Striper.create
          ~scheduler:(Scheduler.srr ~quanta:config.Bundle_pool.quanta ())
          ~marker:(Marker.make ~every_rounds:marker_every ())
          ~emit:(fun ~channel (pkt : Stripe_packet.Packet.t) ->
            per_channel.(channel) <- per_channel.(channel) + 1;
            match pkt.kind with
            | Marker m ->
              stamps.(channel) <-
                (m.m_round, m.m_dc, m.m_reset, m.m_epoch, m.m_gen)
                :: stamps.(channel)
            | Data -> ())
          ()
      in
      let pool = Bundle_pool.create ~sim:(Sim.create ()) config in
      let id = Bundle_pool.acquire pool in
      List.iter
        (fun size ->
          Striper.push striper (Stripe_packet.Packet.data ~seq:0 ~size ());
          Bundle_pool.push pool id ~size)
        sizes;
      Striper.send_reset striper;
      Bundle_pool.resync pool;
      Striper.markers_sent striper = Bundle_pool.markers_sent pool
      && per_channel
         = Array.init (Array.length rates) (Bundle_pool.channel_wire_tx pool)
      && Array.map List.rev stamps
         = Array.init (Array.length rates) (Bundle_pool.wire_markers pool id))

(* Deliveries as (time, delivered so far, highest seq so far), one
   entry per instant at which anything was delivered: its last. *)
let per_instant log =
  List.rev
    (List.fold_left
       (fun acc ((time, _, _) as e) ->
         match acc with
         | (t0, _, _) :: rest when t0 = time -> e :: rest
         | _ -> e :: acc)
       [] log)

(* One pool slot ([stamp_seq], markers as stamps on its wires, landed
   lazily) and a [Striper] on [Link]s into a [Resequencer] (markers as
   packets, each landing an event) get the same rates, delays, pushes
   at the same times and the same mid-run §5 reset, over lossless
   wires. The pool's wire is the link's formula, so both must deliver
   the same seqs at the same instants and send the same markers.

   The pool's deliveries are not events, so its step function is
   probed: at each instant [T] at which the chain delivered, and just
   before it at [Float.pred T], the pool's count and highest seq must
   be the chain's. Together the probes pin the pool's delivery step
   function to the chain's exactly: a delivery early, late or at an
   instant of its own shows at one of them. *)
let prop_pool_slot_matches_link_chain =
  QCheck.Test.make ~name:"stamp and packet paths agree" ~count:100
    QCheck.(
      triple (oneofl [ 1; 2; 4 ]) small_nat
        (list_of_size Gen.(1 -- 300)
           (pair (int_range 0 3000) (Arb.int_range 1 1500))))
    (fun (marker_every, reset_at, pushes) ->
      (* The list shrinker goes below its size range. *)
      QCheck.assume (pushes <> []);
      let config = { (config ()) with Bundle_pool.marker_every } in
      let n_pushes = List.length pushes in
      let reset_at = reset_at mod n_pushes in
      (* Push k (from 1) at the sum of the first k gaps, in microseconds;
         the reset right after push [reset_at + 1]. *)
      let schedule sim ~push ~reset =
        ignore
          (List.fold_left
             (fun (k, at) (gap, size) ->
               let at = at +. (float_of_int gap *. 1e-6) in
               Sim.schedule sim ~at (fun () -> push k ~size);
               if k = reset_at + 1 then Sim.schedule sim ~at reset;
               (k + 1, at))
             (1, 0.0) pushes)
      in
      let sim = Sim.create () in
      let now () = Sim.now sim in
      let scheduler = Scheduler.srr ~quanta:config.Bundle_pool.quanta () in
      let chain_log = ref [] and delivered = ref 0 and in_order = ref true in
      let rx =
        Resequencer.create
          ~deficit:(Deficit.clone_initial (Option.get (Scheduler.deficit scheduler)))
          ~now
          ~deliver:(fun ~channel:_ (pkt : Stripe_packet.Packet.t) ->
            incr delivered;
            (match !chain_log with
            | (_, _, s) :: _ when pkt.seq <= s -> in_order := false
            | _ -> ());
            chain_log := (now (), !delivered, pkt.seq) :: !chain_log)
          ()
      in
      let links =
        Array.init (Array.length rates) (fun c ->
            Link.create sim ~rate_bps:rates.(c) ~prop_delay:delays.(c)
              ~deliver:(fun pkt -> Resequencer.receive rx ~channel:c pkt)
              ())
      in
      let striper =
        Striper.create ~scheduler
          ~marker:(Marker.make ~every_rounds:marker_every ())
          ~now
          ~emit:(fun ~channel (pkt : Stripe_packet.Packet.t) ->
            ignore (Link.send links.(channel) ~size:pkt.size pkt))
          ()
      in
      schedule sim
        ~push:(fun k ~size ->
          Striper.push striper (Stripe_packet.Packet.data ~seq:k ~size ()))
        ~reset:(fun () -> Striper.send_reset striper);
      Sim.run sim;
      let chain = per_instant (List.rev !chain_log) in
      let sim = Sim.create () in
      let pool =
        Bundle_pool.create ~stamp_seq:true ~initial_capacity:1 ~sim config
      in
      let id = Bundle_pool.acquire pool in
      schedule sim
        ~push:(fun _ ~size -> Bundle_pool.push pool id ~size)
        ~reset:(fun () -> Bundle_pool.resync pool);
      let probe at =
        Sim.run_until sim at;
        ( Bundle_pool.delivered_packets pool id,
          Bundle_pool.highest_delivered_seq pool id )
      in
      let agree, _ =
        List.fold_left
          (fun (ok, before) (time, d, s) ->
            let ok = ok && probe (Float.pred time) = before in
            (ok && probe time = (d, s), (d, s)))
          (true, (0, 0))
          chain
      in
      Sim.run sim;
      let last = match List.rev chain with (t, _, _) :: _ -> t | [] -> nan in
      !in_order && agree
      && Bundle_pool.seq_inversions pool id = 0
      && !delivered > 0
      && Bundle_pool.delivered_packets pool id = !delivered
      && Bundle_pool.last_delivery_time pool id = last
      && Striper.markers_sent striper = Bundle_pool.markers_sent pool)

(* --- Lazy landing: settling is invisible ------------------------------ *)

(* The same random ops on a [stamp_seq] pool of four slots, with a
   watchdog reading the clock, run with and without probes: accessors
   called at random instants, each settling what it reads. Every
   packet lands at its landing time whoever settles it and when, so the
   probed run must end exactly as the unprobed one. An op is (gap in
   microseconds, kind, slot, size); a probe is (gap, accessor). *)
let run_probed ~probes ops =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true ~initial_capacity:4
      ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 }
      ~sim (config ())
  in
  let n = 4 in
  for k = 0 to n - 1 do
    ignore (Bundle_pool.acquire_slot pool ~key:k k)
  done;
  let rx_down = Array.make n false and tx_down = Array.make n false in
  let op (kind, k, size) =
    let live = Bundle_pool.is_live pool k in
    match kind with
    | 6 when not live ->
      ignore (Bundle_pool.acquire_slot pool ~key:k k);
      rx_down.(k) <- false;
      tx_down.(k) <- false
    | 7 when live -> Bundle_pool.release pool k
    | 8 when live ->
      if rx_down.(k) then Bundle_pool.restart_receiver pool k
      else ignore (Bundle_pool.crash_receiver pool k);
      rx_down.(k) <- not rx_down.(k)
    | 9 when live ->
      if tx_down.(k) then Bundle_pool.restart_sender pool k
      else Bundle_pool.crash_sender pool k;
      tx_down.(k) <- not tx_down.(k)
    | 10 -> Bundle_pool.resync pool
    | 11 when live -> Bundle_pool.inject_violation pool k
    | _ when live -> Bundle_pool.push pool k ~size
    | _ -> ()
  in
  ignore
    (List.fold_left
       (fun at (gap, kind, k, size) ->
         let at = at +. (float_of_int gap *. 1e-6) in
         Sim.schedule sim ~at (fun () -> op (kind, k, size));
         at)
       0.0 ops);
  let probe (a, k) =
    match a with
    | 0 -> ignore (Bundle_pool.delivered_packets pool k)
    | 1 -> ignore (Bundle_pool.in_flight_packets pool k)
    | 2 -> ignore (Bundle_pool.rx_pending_packets pool k)
    | 3 -> ignore (Bundle_pool.total_delivered_packets pool)
    | _ -> ignore (Bundle_pool.first_violation pool)
  in
  if probes <> [] then
    ignore
      (List.fold_left
         (fun at (gap, a) ->
           let at = at +. (float_of_int gap *. 1e-6) in
           Sim.schedule sim ~at (fun () -> probe (a mod 5, a mod n));
           at)
         0.0 probes);
  Sim.run sim;
  let slot k =
    ( ( Bundle_pool.pushed_packets pool k,
        Bundle_pool.delivered_packets pool k,
        Bundle_pool.delivered_bytes pool k,
        Bundle_pool.highest_delivered_seq pool k ),
      ( Bundle_pool.receiver_down_drops pool k,
        Bundle_pool.rx_wiped_packets pool k,
        Bundle_pool.rx_epoch_discards pool k,
        Bundle_pool.rx_pending_packets pool k ),
      ( Bundle_pool.fifo_violations pool k,
        Bundle_pool.seq_inversions pool k,
        Bundle_pool.rx_watchdog_skips pool k,
        Int64.bits_of_float (Bundle_pool.last_delivery_time pool k) ) )
  in
  ( List.init n slot,
    Bundle_pool.total_delivered_packets pool,
    Bundle_pool.first_violation pool )

let prop_probing_changes_nothing =
  QCheck.Test.make ~name:"probing a lazy pool changes nothing" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200)
           (quad (int_range 0 2000) (int_range 0 11) (int_range 0 3)
              (Arb.int_range 1 1500)))
        (list_of_size Gen.(1 -- 100) (pair (int_range 0 4000) small_nat)))
    (fun (ops, probes) ->
      run_probed ~probes:[] ops = run_probed ~probes ops)

(* Two channels of one slot whose packets land at the same float
   instant: the pool lands them in send order. Channel 1 (delay 1 ms)
   sends at 0 and channel 0 (delay 2 ms) 1 ms earlier in wire time,
   both serializing in exactly 0.5 ms, so both land at 0.0025. *)
let test_equal_landings_keep_send_order () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true ~initial_capacity:1 ~sim
      {
        Bundle_pool.rate_bps = [| 8e6; 8e6 |];
        prop_delay = [| 0.002; 0.001 |];
        quanta = [| 500; 500 |];
        marker_every = 0;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  let id = Bundle_pool.acquire pool in
  (* Seq 1 to channel 0, landing at 0.0005 + 0.002; seq 2 to channel 1,
     queued at 0.001 behind nothing, landing at 0.0015 + 0.001. *)
  Bundle_pool.push pool id ~size:500;
  Sim.schedule sim ~at:0.001 (fun () -> Bundle_pool.push pool id ~size:500);
  Sim.run_until sim (Float.pred 0.0025);
  check_int "nothing has landed before the instant" 0
    (Bundle_pool.delivered_packets pool id);
  Sim.run sim;
  check_int "both delivered" 2 (Bundle_pool.delivered_packets pool id);
  check_int "in send order" 0 (Bundle_pool.seq_inversions pool id);
  Alcotest.(check (float 0.0)) "at the shared instant" 0.0025
    (Bundle_pool.last_delivery_time pool id)

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "fifo recycle resets high water" `Quick
          test_fifo_recycle_resets_high_water;
        Alcotest.test_case "recycled slot replays like fresh" `Quick
          test_recycled_slot_replays_like_fresh;
        Alcotest.test_case "recycle restarts rx high water" `Quick
          test_recycle_restarts_rx_high_water;
        Alcotest.test_case "stale in-flight discarded" `Quick
          test_stale_in_flight_discarded;
        Alcotest.test_case "pool grows past initial capacity" `Quick
          test_pool_grows_past_initial_capacity;
        Alcotest.test_case "pool refuses a channel guard" `Quick
          test_pool_refuses_a_guard;
        Alcotest.test_case "engines agree on churned fleet" `Quick
          test_engines_agree_on_churned_fleet;
        QCheck_alcotest.to_alcotest prop_striper_matches_pool_slot;
        QCheck_alcotest.to_alcotest prop_pool_slot_matches_link_chain;
        QCheck_alcotest.to_alcotest prop_probing_changes_nothing;
        Alcotest.test_case "equal landings keep send order" `Quick
          test_equal_landings_keep_send_order;
      ] );
  ]
