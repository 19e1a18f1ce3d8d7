(* Chaos-engine tests: endpoint crash/restart recovery (PROTOCOL.md
   §12), the generation tag that pairs §5 reset barriers under fault
   composition, chaos plan parsing/generation/application, the
   overlap-aware Recovery interval arithmetic, the Bundle_pool
   recycle × watchdog interaction, and the always-on monitors'
   detection self-test. *)

open Stripe_netsim
open Stripe_core
open Stripe_packet
module Bundle_pool = Stripe_fleet.Bundle_pool
module Monitor = Stripe_obs.Monitor
module Recovery = Stripe_metrics.Recovery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* --- Marker integrity: epoch and generation ride the checksum ------- *)

let test_marker_epoch_gen_in_checksum () =
  let pkt =
    Packet.marker ~epoch:1 ~gen:2 ~channel:0 ~round:3 ~dc:500 ~born:0.0 ()
  in
  check "constructor-built marker is valid" true (Packet.marker_valid pkt);
  match pkt.Packet.kind with
  | Packet.Data -> Alcotest.fail "marker built a data packet"
  | Packet.Marker m ->
    check_int "epoch stamped" 1 m.m_epoch;
    check_int "generation stamped" 2 m.m_gen;
    (* Forging either incarnation field without restamping must fail the
       integrity check — a receiver can never act on a damaged pair. *)
    check "forged generation detected" false
      (Packet.marker_valid
         { pkt with kind = Marker { m with m_gen = m.m_gen + 1 } });
    check "forged epoch detected" false
      (Packet.marker_valid
         { pkt with kind = Marker { m with m_epoch = m.m_epoch + 1 } })

(* --- A sender/receiver pair over perfect per-channel FIFOs ---------- *)

type pair = {
  striper : Striper.t;
  reseq : Resequencer.t;
  wires : Packet.t Queue.t array;
  delivered : int list ref;
}

let make ?(marker_every = 0) ~n () =
  let quanta = Array.make n 1000 in
  let engine = Srr.create ~quanta () in
  let wires = Array.init n (fun _ -> Queue.create ()) in
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
      ?marker:
        (if marker_every > 0 then Some (Marker.make ~every_rounds:marker_every ())
         else None)
      ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
      ()
  in
  { striper; reseq; wires; delivered }

let push t seq = Striper.push t.striper (Packet.data ~seq ~size:1000 ())

(* Drain the wires channel-by-channel (channel 0's whole history before
   channel 1's — the worst case for barrier pairing). *)
let shuttle ?(drop = fun ~channel:_ _ -> false) t =
  Array.iteri
    (fun c q ->
      Queue.iter
        (fun pkt ->
          if not (drop ~channel:c pkt) then
            Resequencer.receive t.reseq ~channel:c pkt)
        q)
    t.wires;
  Array.iter Queue.clear t.wires

(* Round-robin across the wires, mimicking similar-speed channels. *)
let shuttle_interleaved ?(drop = fun ~channel:_ _ -> false) t =
  let remaining = ref true in
  while !remaining do
    remaining := false;
    Array.iteri
      (fun c q ->
        match Queue.take_opt q with
        | Some pkt ->
          remaining := true;
          if not (drop ~channel:c pkt) then
            Resequencer.receive t.reseq ~channel:c pkt
        | None -> ())
      t.wires
  done

(* --- Sender crash + restart (PROTOCOL.md §12) ----------------------- *)

let test_sender_crash_restart_recovers () =
  let t = make ~marker_every:2 ~n:2 () in
  for seq = 0 to 49 do
    push t seq
  done;
  (* Crash with the old epoch still in flight: per-channel FIFO delivers
     the stragglers first, then the restart's reset barrier, then the
     fresh incarnation. *)
  Striper.crash_restart t.striper;
  check_int "sender epoch bumped" 1 (Striper.epoch t.striper);
  for seq = 100 to 149 do
    push t seq
  done;
  shuttle_interleaved t;
  Alcotest.(check (list int))
    "stragglers then the fresh epoch, both in order"
    (List.init 50 Fun.id @ List.init 50 (fun i -> 100 + i))
    (List.rev !(t.delivered));
  check "receiver completed a crash barrier" true
    (Resequencer.crash_syncs t.reseq >= 1)

let test_sender_crash_survives_lost_reset_markers () =
  let t = make ~marker_every:2 ~n:2 () in
  for seq = 0 to 19 do
    push t seq
  done;
  shuttle_interleaved t;
  Striper.crash_restart t.striper;
  t.delivered := [];
  (* The restart's reset barrier is lost on the wire: recovery must ride
     the epoch stamp on ordinary periodic markers instead. *)
  let drop_resets ~channel:_ pkt =
    match pkt.Packet.kind with Packet.Marker m -> m.m_reset | Data -> false
  in
  for seq = 100 to 139 do
    push t seq
  done;
  shuttle_interleaved ~drop:drop_resets t;
  check "crash-synced without any reset marker" true
    (Resequencer.crash_syncs t.reseq >= 1);
  (* Data beaten to the receiver by no marker of the new epoch is
     discarded by the crash-sync; everything else is delivered — the
     first batch is fully accounted for. *)
  check_int "first post-crash batch conserved" 40
    (List.length !(t.delivered) + Resequencer.epoch_discards t.reseq);
  (* Once resynchronized, the stream is FIFO again. *)
  t.delivered := [];
  for seq = 200 to 239 do
    push t seq
  done;
  shuttle_interleaved t;
  Alcotest.(check (list int))
    "steady state restored after losing the reset barrier"
    (List.init 40 (fun i -> 200 + i))
    (List.rev !(t.delivered))

(* --- Receiver crash + cold restart ---------------------------------- *)

let test_receiver_cold_restart () =
  let t = make ~marker_every:2 ~n:2 () in
  for seq = 0 to 19 do
    push t seq
  done;
  (* Strand the receiver mid-stream: only channel 1 delivers, so the
     resequencer blocks on channel 0 with channel 1's data buffered. *)
  Queue.iter (fun pkt -> Resequencer.receive t.reseq ~channel:1 pkt) t.wires.(1);
  Array.iter Queue.clear t.wires;
  let buffered = Resequencer.pending t.reseq in
  check "receiver is holding data" true (buffered > 0);
  let wiped = Resequencer.crash_restart t.reseq in
  check_int "crash wipes exactly the buffered data" buffered wiped;
  check_int "nothing pending after the crash" 0 (Resequencer.pending t.reseq);
  (* Cold recovery needs no out-of-band signal: the next ordinary marker
     per channel crash-syncs it and the barrier rebuilds the engine. *)
  t.delivered := [];
  for seq = 100 to 139 do
    push t seq
  done;
  shuttle_interleaved t;
  check "channels crash-synced cold" true (Resequencer.crash_syncs t.reseq >= 1);
  check_int "post-restart batch conserved" 40
    (List.length !(t.delivered) + Resequencer.epoch_discards t.reseq);
  t.delivered := [];
  for seq = 200 to 219 do
    push t seq
  done;
  shuttle_interleaved t;
  Alcotest.(check (list int))
    "steady state restored after the cold restart"
    (List.init 20 (fun i -> 200 + i))
    (List.rev !(t.delivered))

(* --- The generation tag pairs overlapping §5 barriers --------------- *)

let test_gen_pairs_consecutive_barriers () =
  let t = make ~n:2 () in
  for seq = 0 to 9 do
    push t seq
  done;
  Striper.send_reset t.striper;
  for seq = 10 to 19 do
    push t seq
  done;
  Striper.send_reset t.striper;
  for seq = 20 to 29 do
    push t seq
  done;
  (* Channel 0's whole history (both barriers) arrives before channel 1
     sends anything: without the generation tag the receiver would pair
     channel 0's second reset with channel 1's first. *)
  shuttle t;
  Alcotest.(check (list int))
    "both barriers adopted in order" (List.init 30 Fun.id)
    (List.rev !(t.delivered));
  check_int "two reset barriers completed" 2 (Resequencer.resets t.reseq);
  check_int "no forced barrier" 0 (Resequencer.forced_barriers t.reseq);
  (* A straggling duplicate of the first barrier's reset marker is
     absorbed as the duplicate it is — not parked as a phantom
     half-barrier that would trap data behind it. *)
  Resequencer.receive t.reseq ~channel:0
    (Packet.marker ~reset:true ~gen:1 ~channel:0 ~round:0 ~dc:1000 ~born:0.0 ());
  check_int "stale reset absorbed" 1 (Resequencer.stale_resets t.reseq);
  check_int "no phantom barrier" 2 (Resequencer.resets t.reseq);
  t.delivered := [];
  for seq = 30 to 39 do
    push t seq
  done;
  shuttle t;
  Alcotest.(check (list int))
    "stream continues in order past the stale reset"
    (List.init 10 (fun i -> 30 + i))
    (List.rev !(t.delivered))

let test_min_pair_adoption_with_lost_reset () =
  let t = make ~n:2 () in
  for seq = 0 to 9 do
    push t seq
  done;
  Striper.send_reset t.striper;
  for seq = 10 to 19 do
    push t seq
  done;
  Striper.send_reset t.striper;
  for seq = 20 to 29 do
    push t seq
  done;
  (* Channel 1 loses the first barrier's reset marker, so it parks at
     generation 2 while channel 0 parks at generation 1. Adoption must
     take the minimum pair — unparking channel 0 only — and leave
     channel 1 parked as the start of the next barrier. *)
  let drop ~channel pkt =
    match pkt.Packet.kind with
    | Packet.Marker m -> channel = 1 && m.m_reset && m.m_gen = 1
    | Data -> false
  in
  shuttle_interleaved ~drop t;
  check_int "both barriers still completed" 2 (Resequencer.resets t.reseq);
  check_int "never forced" 0 (Resequencer.forced_barriers t.reseq);
  Alcotest.(check (list int))
    "no packet lost across the mispaired barriers" (List.init 30 Fun.id)
    (List.sort compare !(t.delivered))

(* --- Chaos plans: grammar, determinism, application ----------------- *)

let test_chaos_parse_spec () =
  (match
     Chaos.parse_spec "storm=0+2/0.5@1,crash=rx/0/0.2@2,crash=tx/3/0.1@0.5,violate=1@4"
   with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok actions ->
    check_int "four actions" 4 (List.length actions);
    (match actions with
    | [
     Chaos.Storm { channels = [ 0; 2 ]; at = 1.0; duration = 0.5 };
     Chaos.Crash { side = Chaos.Rx; bundle = 0; at = 2.0; downtime = 0.2 };
     Chaos.Crash { side = Chaos.Tx; bundle = 3; at = 0.5; downtime = 0.1 };
     Chaos.Violate { bundle = 1; at = 4.0 };
    ] ->
      ()
    | _ -> Alcotest.fail "parsed actions do not match the spec"));
  List.iter
    (fun bad ->
      match Chaos.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error e ->
        check "error names the chaos spec" true (contains e "chaos"))
    [
      "storm=0+2/0.5" (* missing @T *);
      "crash=up/0/0.2@1" (* bad side *);
      "storm=/0.5@1" (* empty group *);
      "violate=0" (* missing time *);
      "frob=1@2" (* unknown action *);
    ]

let test_spec_errors_are_diagnosable () =
  (* The shared Spec scanner puts the kind and the full source string in
     every message, for all three dialects. *)
  match Fault.parse_spec "0:frob@1" with
  | Ok _ -> Alcotest.fail "accepted malformed fault spec"
  | Error e ->
    check "fault error names its kind" true (contains e "fault");
    check "fault error carries the source" true (contains e "0:frob@1")

let test_chaos_random_plan_deterministic () =
  let plan s =
    Chaos.random_plan ~rng:(Rng.create s) ~n_channels:4 ~n_bundles:8
      ~horizon:5.0 ~storm_every:0.4 ~crash_every:0.3 ~mean_outage:0.1
      ~mean_downtime:0.1 ()
  in
  check "equal seeds give equal plans" true (plan 42 = plan 42);
  check "different seeds differ" true (plan 42 <> plan 43);
  let p = plan 42 in
  check "plan is non-trivial" true (List.length p > 2);
  let times =
    List.map
      (function
        | Chaos.Storm { at; _ }
        | Chaos.Crash { at; _ }
        | Chaos.Violate { at; _ }
        | Chaos.Degrade { at; _ } ->
          at)
      p
  in
  check "sorted by time" true (times = List.sort Float.compare times);
  check "every action closes before the horizon reports" true
    (List.for_all
       (fun a ->
         (match a with
         | Chaos.Storm { at; duration; _ } -> at +. duration
         | Chaos.Crash { at; downtime; _ } -> at +. downtime
         | Chaos.Violate { at; _ } -> at
         | Chaos.Degrade { at; duration; _ } -> at +. duration)
         <= Chaos.horizon p)
       p);
  List.iter
    (function
      | Chaos.Storm { channels; _ } ->
        check "storm group is non-empty" true (channels <> []);
        check "storm group is in range" true
          (List.for_all (fun c -> c >= 0 && c < 4) channels)
      | Chaos.Crash { bundle; _ } ->
        check "crash bundle in range" true (bundle >= 0 && bundle < 8)
      | Chaos.Violate _ -> ()
      | Chaos.Degrade { channel; _ } ->
        check "degrade channel in range" true (channel >= 0 && channel < 4))
    p

let test_chaos_apply_numbers_events_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let driver =
    {
      Chaos.set_channel_up =
        (fun c up -> log := (Sim.now sim, `Ch (c, up)) :: !log);
      crash = (fun s b -> log := (Sim.now sim, `Crash (s, b)) :: !log);
      restart = (fun s b -> log := (Sim.now sim, `Restart (s, b)) :: !log);
      violate = (fun b -> log := (Sim.now sim, `Violate b) :: !log);
      set_loss = (fun c _ -> log := (Sim.now sim, `Loss c) :: !log);
      scale_rate = (fun c f -> log := (Sim.now sim, `Rate (c, f)) :: !log);
    }
  in
  (* Deliberately out of time order: apply must still number the
     primitive transitions chronologically. *)
  let plan =
    [
      Chaos.Crash { side = Chaos.Rx; bundle = 0; at = 1.0; downtime = 0.5 };
      Chaos.Storm { channels = [ 0; 1 ]; at = 0.5; duration = 0.6 };
    ]
  in
  let indices = ref [] in
  Chaos.apply sim
    ~on_event:(fun ~index ~time _ -> indices := (index, time) :: !indices)
    driver plan;
  Sim.run sim;
  let indices = List.rev !indices in
  check_int "six primitive transitions" 6 (List.length indices);
  Alcotest.(check (list int))
    "numbered 0..5" [ 0; 1; 2; 3; 4; 5 ]
    (List.map fst indices);
  let times = List.map snd indices in
  check "indices follow the clock" true
    (times = List.sort Float.compare times);
  let log = List.rev !log in
  check "storm downs both members at 0.5" true
    (List.mem (0.5, `Ch (0, false)) log && List.mem (0.5, `Ch (1, false)) log);
  check "storm recovers both members" true
    (List.mem (1.1, `Ch (0, true)) log && List.mem (1.1, `Ch (1, true)) log);
  check "crash and restart bracket the downtime" true
    (List.mem (1.0, `Crash (Chaos.Rx, 0)) log
    && List.mem (1.5, `Restart (Chaos.Rx, 0)) log);
  check "rejects negative times" true
    (try
       Chaos.apply (Sim.create ()) driver
         [ Chaos.Violate { bundle = 0; at = -1.0 } ];
       false
     with Invalid_argument _ -> true)

(* --- Recovery: union of overlapping outage intervals ---------------- *)

let test_recovery_overlap_union () =
  let outages =
    [ (2.0, 4.0); (1.0, 3.0); (6.0, 7.0); (6.5, 6.8); (9.0, 9.0) ]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "overlaps coalesced, degenerate dropped"
    [ (1.0, 4.0); (6.0, 7.0) ]
    (Recovery.merge_intervals outages);
  Alcotest.(check (float 1e-9))
    "downtime counts each instant once" 4.0 (Recovery.downtime outages);
  Alcotest.(check (float 1e-9))
    "longest outage is overlap-aware" 3.0
    (Recovery.longest_outage outages);
  (match Recovery.mttr outages with
  | Some m -> Alcotest.(check (float 1e-9)) "mttr over merged outages" 2.0 m
  | None -> Alcotest.fail "mttr of a non-empty outage list");
  check "mttr of no outages" true (Recovery.mttr [] = None);
  Alcotest.(check (float 1e-9))
    "availability over the window" 0.6
    (Recovery.interval_availability ~outages ~from_:0.0 ~until_:10.0);
  Alcotest.(check (float 1e-9))
    "availability clips to the window" 0.5
    (Recovery.interval_availability ~outages ~from_:3.0 ~until_:5.0);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "touching intervals coalesce"
    [ (1.0, 3.0) ]
    (Recovery.merge_intervals [ (1.0, 2.0); (2.0, 3.0) ])

(* --- Bundle_pool: chaos at fleet scale ------------------------------ *)

let rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let delays = [| 0.001; 0.002; 0.005; 0.010 |]

let config () =
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta = Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ();
    marker_every = 4;
    guard = false;
    discipline = Bundle_pool.Srr;
  }

let sizes = [| 200; 1000; 400; 1500; 700; 200; 1200 |]

let push_n pool id n =
  for i = 0 to n - 1 do
    Bundle_pool.push pool id ~size:sizes.(i mod Array.length sizes)
  done

let test_recycled_slot_fresh_watchdog () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create
      ~watchdog:{ Resequencer.intervals = 2; fallback = 0.02 }
      ~sim ~initial_capacity:2 (config ())
  in
  let id = Bundle_pool.acquire pool in
  push_n pool id 200;
  Sim.run sim;
  (* Channel 3 goes silent while its carrier stays up, so the sender
     keeps striping onto it as a link-state-blind sender would: its
     share dies in flight and the receiver's watchdog declares it
     dead. *)
  Bundle_pool.set_channel_loss pool 3 (Loss.bernoulli ~p:1.0);
  push_n pool id 400;
  Sim.run sim;
  check "watchdog declared the silent channel dead" true
    (Bundle_pool.rx_channel_dead pool id 3);
  check "dead declaration recorded" true
    (Bundle_pool.rx_dead_declarations pool id > 0);
  (* Slot churn across the outage: the next tenant of the slot must not
     inherit its predecessor's dead-channel or cadence state. *)
  Bundle_pool.release pool id;
  Bundle_pool.set_channel_loss pool 3 (Loss.none ());
  let id2 = Bundle_pool.acquire pool in
  check_int "slot was recycled" id id2;
  check "recycled slot does not inherit the dead channel" false
    (Bundle_pool.rx_channel_dead pool id2 3);
  check_int "recycled slot's watchdog history is fresh" 0
    (Bundle_pool.rx_dead_declarations pool id2);
  push_n pool id2 300;
  Sim.run sim;
  check_int "no watchdog skips on the healthy recycled slot" 0
    (Bundle_pool.rx_watchdog_skips pool id2);
  check_int "recycled slot delivers everything" 300
    (Bundle_pool.delivered_packets pool id2)

let test_pool_crash_restart_delivers_again () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true ~sim ~initial_capacity:2 (config ())
  in
  let id = Bundle_pool.acquire pool in
  push_n pool id 100;
  Sim.run sim;
  (* Sender crash: pushes during the downtime are eaten. *)
  Bundle_pool.crash_sender pool id;
  push_n pool id 50;
  Sim.run sim;
  check "crashed sender eats pushes" true
    (Bundle_pool.sender_down_drops pool id >= 50);
  Bundle_pool.restart_sender pool id;
  check_int "restart bumps the sender epoch" 1 (Bundle_pool.sender_epoch pool id);
  let before = Bundle_pool.delivered_packets pool id in
  push_n pool id 100;
  Sim.run sim;
  check "delivers again after the sender restart" true
    (Bundle_pool.delivered_packets pool id > before);
  (* Receiver crash: buffered data is wiped, arrivals dropped until the
     restart, then cold resync through the markers. *)
  ignore (Bundle_pool.crash_receiver pool id);
  Bundle_pool.restart_receiver pool id;
  let before = Bundle_pool.delivered_packets pool id in
  push_n pool id 100;
  Sim.run sim;
  check "delivers again after the receiver restart" true
    (Bundle_pool.delivered_packets pool id > before);
  check "conservation holds across both crashes" true
    (Monitor.conserved
       ~pushed:(Bundle_pool.pushed_packets pool id)
       ~delivered:(Bundle_pool.delivered_packets pool id)
       ~pending:(Bundle_pool.rx_pending_packets pool id)
       ~drops:
         [
           Bundle_pool.carrier_drops pool id;
           Bundle_pool.receiver_down_drops pool id;
           Bundle_pool.rx_epoch_discards pool id;
           Bundle_pool.rx_wiped_packets pool id;
         ])

let test_pool_storm_conservation_and_order () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true
      ~watchdog:{ Resequencer.intervals = 4; fallback = 0.02 }
      ~sim ~initial_capacity:4 (config ())
  in
  let a = Bundle_pool.acquire pool in
  let b = Bundle_pool.acquire pool in
  push_n pool a 100;
  push_n pool b 100;
  Sim.run sim;
  (* Correlated storm: channels 1 and 2 share fate. *)
  Bundle_pool.set_channel_up pool 1 false;
  Bundle_pool.set_channel_up pool 2 false;
  push_n pool a 200;
  push_n pool b 200;
  Sim.run sim;
  Bundle_pool.set_channel_up pool 1 true;
  Bundle_pool.set_channel_up pool 2 true;
  (* The storm legally degrades order to quasi-FIFO while it drains;
     strictness resumes past the quiet line. *)
  Bundle_pool.set_fifo_check_after pool (Sim.now sim +. 0.2);
  push_n pool a 200;
  push_n pool b 200;
  Sim.run sim;
  let heal = Sim.now sim in
  push_n pool a 100;
  push_n pool b 100;
  Sim.run sim;
  List.iter
    (fun id ->
      check "bundle conserved at quiescence" true
        (Monitor.conserved
           ~pushed:(Bundle_pool.pushed_packets pool id)
           ~delivered:(Bundle_pool.delivered_packets pool id)
           ~pending:(Bundle_pool.rx_pending_packets pool id)
           ~drops:
             [
               Bundle_pool.carrier_drops pool id;
               Bundle_pool.receiver_down_drops pool id;
               Bundle_pool.rx_epoch_discards pool id;
               Bundle_pool.rx_wiped_packets pool id;
             ]);
      check "bundle delivers after the storm heals" true
        (Bundle_pool.last_delivery_time pool id > heal))
    [ a; b ];
  check_int "strict FIFO restored past the quiet line" 0
    (Bundle_pool.total_fifo_violations pool)

let test_pool_injected_violation_caught () =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~stamp_seq:true ~sim ~initial_capacity:2 (config ())
  in
  let id = Bundle_pool.acquire pool in
  push_n pool id 50;
  Sim.run sim;
  check_int "clean run has no violations" 0
    (Bundle_pool.total_fifo_violations pool);
  Bundle_pool.inject_violation pool id;
  push_n pool id 50;
  Sim.run sim;
  check "planted violation is caught" true
    (Bundle_pool.total_fifo_violations pool >= 1);
  match Bundle_pool.first_violation pool with
  | Some (_, bundle, _) ->
    check_int "pinned to the poisoned bundle" id bundle
  | None -> Alcotest.fail "violation not recorded"

(* External input raises nothing: any string, and any small edit of a
   valid spec, parses to [Ok] or [Error]. *)
let prop_parse_spec_total =
  Spec_fuzz.total ~name:"chaos: parse_spec never raises"
    ~valid:
      "storm=0+2/0.5@1,crash=rx/0/0.2@2,crash=tx/3/0.1@0.5,violate=1@4,\
       degrade=1/gilbert/0.5/1.5@2,degrade=0/loss/0.3/1@1,\
       degrade=2/rate/0.5/1@1,degrade=0/flap/0.1/1@3"
    (fun s -> ignore (Chaos.parse_spec s))

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "marker epoch+gen in checksum" `Quick
          test_marker_epoch_gen_in_checksum;
        Alcotest.test_case "sender crash restart recovers" `Quick
          test_sender_crash_restart_recovers;
        Alcotest.test_case "sender crash survives lost reset markers" `Quick
          test_sender_crash_survives_lost_reset_markers;
        Alcotest.test_case "receiver cold restart" `Quick
          test_receiver_cold_restart;
        Alcotest.test_case "generation tag pairs consecutive barriers" `Quick
          test_gen_pairs_consecutive_barriers;
        Alcotest.test_case "min-pair adoption with a lost reset" `Quick
          test_min_pair_adoption_with_lost_reset;
        Alcotest.test_case "parse_spec grammar" `Quick test_chaos_parse_spec;
        QCheck_alcotest.to_alcotest prop_parse_spec_total;
        Alcotest.test_case "spec errors are diagnosable" `Quick
          test_spec_errors_are_diagnosable;
        Alcotest.test_case "random plans are seeded" `Quick
          test_chaos_random_plan_deterministic;
        Alcotest.test_case "apply numbers events in time order" `Quick
          test_chaos_apply_numbers_events_in_time_order;
        Alcotest.test_case "recovery merges overlapping outages" `Quick
          test_recovery_overlap_union;
        Alcotest.test_case "recycled slot gets a fresh watchdog" `Quick
          test_recycled_slot_fresh_watchdog;
        Alcotest.test_case "pool crash restart delivers again" `Quick
          test_pool_crash_restart_delivers_again;
        Alcotest.test_case "pool storm conservation and order" `Quick
          test_pool_storm_conservation_and_order;
        Alcotest.test_case "pool injected violation caught" `Quick
          test_pool_injected_violation_caught;
      ] );
  ]
