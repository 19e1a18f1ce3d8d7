(* Tests for the sharded-fleet layer: the merge algebra must be
   partition-invariant (counters, recovery intervals, monitor verdicts),
   and Sharded_pool must honor its determinism contract — domains = 1
   replays exactly like a directly driven single pool, and any domain
   count merges to the same protocol aggregates. *)

open Stripe_netsim
module Counters = Stripe_obs.Counters
module Event = Stripe_obs.Event
module Monitor = Stripe_obs.Monitor
module Recovery = Stripe_metrics.Recovery
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let n_channels = 4

(* Channel-scoped event kinds only: partitioning by channel keeps each
   channel's whole stream (including the clamped buffered-bytes gauge
   arithmetic) inside one registry, which is the exactness condition
   Counters.merge_into documents. *)
let kinds =
  [|
    Event.Enqueue; Event.Deliver; Event.Transmit; Event.Drop; Event.Arrival;
    Event.Marker_sent; Event.Marker_applied; Event.Skip; Event.Channel_down;
    Event.Watchdog_skip; Event.Suspend; Event.Dup_discard; Event.Quarantine;
  |]

let counters_equal a b =
  Counters.n_channels a = Counters.n_channels b
  && Counters.resets a = Counters.resets b
  && Counters.rounds a = Counters.rounds b
  && Counters.events_seen a = Counters.events_seen b
  && Counters.no_channel_drops a = Counters.no_channel_drops b
  && List.for_all
       (fun c -> Counters.channel a c = Counters.channel b c)
       (List.init (Counters.n_channels a) Fun.id)

let prop_counters_partition_merge =
  QCheck.Test.make
    ~name:"counters: merge over any channel partition = unsharded" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list
           (triple
              (int_range 0 (Array.length kinds - 1))
              (int_range 0 (n_channels - 1))
              (int_range 1 1500))))
    (fun (shards, evs) ->
      let whole = Counters.create ~n:n_channels in
      let parts = Array.init shards (fun _ -> Counters.create ~n:n_channels) in
      List.iteri
        (fun i (k, c, size) ->
          let e =
            Event.v ~channel:c ~size ~seq:i
              ~time:(float_of_int i *. 1e-3)
              kinds.(k)
          in
          Counters.observe whole e;
          Counters.observe parts.(c mod shards) e)
        evs;
      counters_equal whole (Counters.merged (Array.to_list parts)))

let prop_recovery_partition_merge =
  QCheck.Test.make ~name:"recovery: interval union is partition-invariant"
    ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list (pair (int_range 0 1000) (int_range 1 150))))
    (fun (shards, raw) ->
      let outages =
        List.map
          (fun (s, d) ->
            (float_of_int s /. 10.0, float_of_int (s + d) /. 10.0))
          raw
      in
      let parts = Array.make shards [] in
      List.iteri (fun i iv -> parts.(i mod shards) <- iv :: parts.(i mod shards)) outages;
      Recovery.merge_parts [ outages ]
      = Recovery.merge_parts (Array.to_list parts))

let test_verdict_merge () =
  let a =
    {
      Monitor.violations = 2;
      seq_inversions = 5;
      first_violation = Some (3.0, "a");
      events_seen = 100;
    }
  in
  let b =
    {
      Monitor.violations = 1;
      seq_inversions = 0;
      first_violation = Some (1.5, "b");
      events_seen = 40;
    }
  in
  let c =
    {
      Monitor.violations = 0;
      seq_inversions = 7;
      first_violation = None;
      events_seen = 1;
    }
  in
  let m = Monitor.merged_verdict [ a; b; c ] in
  Alcotest.(check int) "violations sum" 3 m.Monitor.violations;
  Alcotest.(check int) "inversions sum" 12 m.Monitor.seq_inversions;
  Alcotest.(check int) "events sum" 141 m.Monitor.events_seen;
  (match m.Monitor.first_violation with
  | Some (t, msg) ->
    Alcotest.(check (float 1e-9)) "earliest violation time" 1.5 t;
    Alcotest.(check string) "earliest violation message" "b" msg
  | None -> Alcotest.fail "merged verdict lost the first violation");
  let b' = { b with Monitor.first_violation = Some (3.0, "b") } in
  (match (Monitor.merged_verdict [ a; b' ]).Monitor.first_violation with
  | Some (_, msg) -> Alcotest.(check string) "tie keeps the left shard" "a" msg
  | None -> Alcotest.fail "tie merge lost the violation");
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Monitor.merged_verdict: empty list") (fun () ->
      ignore (Monitor.merged_verdict []))

(* ---- Sharded_pool end-to-end ---- *)

let fleet_config () =
  let rates = [| 10e6; 10e6; 5e6; 2.5e6 |] in
  let delays = [| 0.001; 0.002; 0.005; 0.010 |] in
  let quanta =
    Stripe_core.Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ()
  in
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta;
    marker_every = 4;
    guard = false;
    discipline = Bundle_pool.Srr;
  }

type op =
  | Acquire of float * int
  | Release of float * int
  | Push of float * int * int

(* Scripted churn with staggered releases so slots recycle mid-run: up
   to [max_live] bundles, a new one one step in [acquire_one_in] while
   below that. The script's RNG never reads pool state, so every
   recorder sees the same op sequence; ids come back from the recorder's
   shadow allocator. *)
let record_churn ~steps ~dt ~max_live ~acquire_one_in sp =
  let rng = Rng.create 5 in
  let ops = ref [] in
  let live = ref [] in
  let t = ref 0.0 in
  for _ = 1 to steps do
    t := !t +. dt;
    let nlive = List.length !live in
    if nlive = 0 || (nlive < max_live && Rng.int rng acquire_one_in = 0)
    then begin
      let id = Sharded_pool.acquire sp ~at:!t in
      ops := Acquire (!t, id) :: !ops;
      live := id :: !live
    end
    else if Rng.int rng 12 = 0 then begin
      let i = Rng.int rng nlive in
      let id = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Sharded_pool.release sp ~at:!t id;
      ops := Release (!t, id) :: !ops
    end
    else begin
      let id = List.nth !live (Rng.int rng nlive) in
      let size = 200 + Rng.int rng 1100 in
      Sharded_pool.push sp ~at:!t id ~size;
      ops := Push (!t, id, size) :: !ops
    end
  done;
  List.rev !ops

(* At most 10 live bundles: every shard replays one group. *)
let record_script =
  record_churn ~steps:600 ~dt:0.0015 ~max_live:10 ~acquire_one_in:4

(* About 700 distinct slots: at 1, 2 and 3 domains every shard owns
   more than [Sharded_pool.group_slots] of them, so it replays several
   groups one after another on its reset pool. *)
let record_many_slots =
  record_churn ~steps:20_000 ~dt:0.0002 ~max_live:700 ~acquire_one_in:2

(* One released generation as both sides report it: ordinal, slot,
   birth, death, pushed packets/bytes, delivered packets/bytes. *)
type gen_key = int * int * float * float * int * int * int * int

let gen_key (g : Sharded_pool.gen_report) : gen_key =
  ( g.ordinal, g.slot, g.birth, g.death, g.pushed_packets, g.pushed_bytes,
    g.delivered_packets, g.delivered_bytes )

type direct = {
  gens : gen_key list;  (* by ordinal *)
  totals : int * int * int;  (* delivered packets, bytes, markers *)
  end_time : float;
}

(* The same script driven straight into one Bundle_pool — the legacy
   single-pool run the sharded replay must reproduce. Checks on the way
   that the recorder's shadow allocator predicted every slot id, and
   harvests every generation at its release. *)
let run_direct ~engine ops =
  let sim = Sim.create ~engine () in
  let pool =
    Bundle_pool.create ~rng:(Rng.stream ~seed:33 0) ~sim (fleet_config ())
  in
  let ordinal = Hashtbl.create 64 in
  let gens = ref [] in
  List.iter
    (fun op ->
      match op with
      | Acquire (at, id) ->
        Sim.schedule sim ~at (fun () ->
            Hashtbl.replace ordinal id (Bundle_pool.total_acquired pool);
            Alcotest.(check int)
              "shadow allocator predicts the real slot" id
              (Bundle_pool.acquire pool))
      | Release (at, id) ->
        Sim.schedule sim ~at (fun () ->
            gens :=
              ( Hashtbl.find ordinal id, id, Bundle_pool.birth_time pool id,
                Sim.now sim, Bundle_pool.pushed_packets pool id,
                Bundle_pool.pushed_bytes pool id,
                Bundle_pool.delivered_packets pool id,
                Bundle_pool.delivered_bytes pool id )
              :: !gens;
            Bundle_pool.release pool id)
      | Push (at, id, size) ->
        Sim.schedule sim ~at (fun () -> Bundle_pool.push pool id ~size))
    ops;
  Sim.run sim;
  {
    gens = List.sort compare !gens;
    totals =
      ( Bundle_pool.total_delivered_packets pool,
        Bundle_pool.total_delivered_bytes pool,
        Bundle_pool.markers_sent pool );
    end_time = Sim.now sim;
  }

(* Records [script] at 1, 2 and 3 domains and checks every replay against
   the directly driven single pool: per-generation reports, aggregates
   and end time. [min_slots] is a lower bound on every shard's slots. *)
let check_against_direct ~engine ~script ~min_slots =
  let reports =
    List.map
      (fun domains ->
        let sp =
          Sharded_pool.create ~engine ~domains ~seed:33 (fleet_config ())
        in
        let ops = script sp in
        (ops, Sharded_pool.run sp))
      [ 1; 2; 3 ]
  in
  let ops1, _ = List.hd reports in
  let direct = run_direct ~engine ops1 in
  let d_packets, _, _ = direct.totals in
  Alcotest.(check bool) "script delivered packets" true (d_packets > 0);
  Alcotest.(check bool) "script released generations" true (direct.gens <> []);
  List.iter
    (fun (ops, (r : Sharded_pool.report)) ->
      let label what = Printf.sprintf "domains=%d: %s" r.domains what in
      Alcotest.(check bool)
        (label "recorder is shard-count independent")
        true (ops = ops1);
      Array.iter
        (fun (s : Sharded_pool.shard_report) ->
          if s.slots < min_slots then
            Alcotest.failf "domains=%d: shard %d owns %d slots, want >= %d"
              r.domains s.shard s.slots min_slots)
        r.shards;
      Alcotest.(check (triple int int int))
        (label "aggregates equal the direct drive")
        direct.totals
        (r.delivered_packets, r.delivered_bytes, r.markers_sent);
      Alcotest.(check bool)
        (label "per-generation reports equal the direct drive")
        true
        (Array.to_list (Array.map gen_key r.gens) = direct.gens);
      Alcotest.(check (float 0.0))
        (label "end time equals the direct drive")
        direct.end_time r.end_time)
    reports

let e2e ~engine () =
  check_against_direct ~engine ~script:record_script ~min_slots:0

let grouped ~engine () =
  check_against_direct ~engine ~script:record_many_slots
    ~min_slots:(Sharded_pool.group_slots + 1)

(* A NaN time must be refused where it is recorded: [at < last_at] is
   false for NaN, and a NaN [last_at] would let every later time
   through. *)
let test_recorder_rejects_nan () =
  let sp = Sharded_pool.create ~domains:1 ~seed:1 (fleet_config ()) in
  let id = Sharded_pool.acquire sp ~at:1.0 in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "acquire at NaN" (fun () ->
      ignore (Sharded_pool.acquire sp ~at:Float.nan));
  rejects "release at NaN" (fun () -> Sharded_pool.release sp ~at:Float.nan id);
  rejects "push at NaN" (fun () -> Sharded_pool.push sp ~at:Float.nan id ~size:100);
  rejects "backwards push after a NaN" (fun () ->
      Sharded_pool.push sp ~at:0.5 id ~size:100);
  Alcotest.(check int) "rejected acquire took no slot" 1
    (Sharded_pool.total_acquired sp);
  Sharded_pool.push sp ~at:1.0 id ~size:100;
  let r = Sharded_pool.run sp in
  Alcotest.(check int) "only the accepted ops replay" 2 r.shards.(0).ops;
  Alcotest.(check int) "the accepted push is delivered" 1 r.delivered_packets

(* A state fingerprint of [pool] after a script: every slot's counters
   and the pool's totals, floats in hex so equal means bit-identical. *)
let fingerprint pool sim =
  let b = Buffer.create 1024 in
  for id = 0 to Bundle_pool.capacity pool - 1 do
    Printf.bprintf b "%d:%b %d %d %d %d %h %d %d %d|" id
      (Bundle_pool.is_live pool id)
      (Bundle_pool.pushed_packets pool id)
      (Bundle_pool.pushed_bytes pool id)
      (Bundle_pool.delivered_packets pool id)
      (Bundle_pool.delivered_bytes pool id)
      (Bundle_pool.last_delivery_time pool id)
      (Bundle_pool.rx_high_water_packets pool id)
      (Bundle_pool.rx_pending_packets pool id)
      (Bundle_pool.carrier_drops pool id)
  done;
  Printf.bprintf b "totals %d %d %d %d %d %d %d %d %h %h"
    (Bundle_pool.total_delivered_packets pool)
    (Bundle_pool.total_delivered_bytes pool)
    (Bundle_pool.markers_sent pool)
    (Bundle_pool.total_acquired pool)
    (Bundle_pool.recycles pool)
    (Bundle_pool.live_bundles pool)
    (Bundle_pool.crashes pool)
    (Bundle_pool.total_fifo_violations pool)
    (Bundle_pool.wire_busy_until pool)
    (Sim.now sim);
  Buffer.contents b

(* Stamped packets arm the FIFO monitor, so its state is compared too. *)
let pool_for_reset sim =
  Bundle_pool.create ~initial_capacity:8 ~stamp_seq:true
    ~rng:(Rng.stream ~seed:9 0) ~sim (fleet_config ())

(* The second script: acquires through the pool's own allocator (six
   slots, more than the first script left free, so the free stack's
   order shows), pushes, recycles a slot, and poisons one FIFO monitor
   (the violation counts only if the quiet line is back at 0). Returns
   the ids acquired. *)
let clean_script pool sim =
  let slots = Array.make 6 (-1) in
  let acquired = ref [] in
  let acquire at k =
    Sim.schedule sim ~at (fun () ->
        slots.(k) <- Bundle_pool.acquire pool;
        acquired := slots.(k) :: !acquired)
  in
  List.iteri (fun k at -> acquire at k) [ 0.0; 0.0; 0.001; 0.002; 0.003; 0.003 ];
  for k = 0 to 399 do
    Sim.schedule sim ~at:(0.01 +. (float_of_int k *. 2e-4)) (fun () ->
        let id = slots.(k mod 6) in
        if Bundle_pool.is_live pool id then
          Bundle_pool.push pool id ~size:(300 + (k * 7 mod 1200)))
  done;
  Sim.schedule sim ~at:0.03 (fun () -> Bundle_pool.inject_violation pool slots.(2));
  Sim.schedule sim ~at:0.05 (fun () -> Bundle_pool.release pool slots.(1));
  acquire 0.06 1;
  Sim.run sim;
  List.rev !acquired

let test_pool_reset () =
  let sim = Sim.create ~engine:Sim.Calendar () in
  let pool = pool_for_reset sim in
  (* A dirty first script: a dark carrier blocks every receiver on
     channel 3 (buffered data), a rate collapse leaves the wires busy
     past the reset clock, a crashed sender, a release, an armed FIFO
     quiet line, and live slots at the end. *)
  let ids = Array.init 6 (fun _ -> Bundle_pool.acquire pool) in
  for k = 0 to 299 do
    Sim.schedule sim ~at:(float_of_int k *. 1e-3) (fun () ->
        if Bundle_pool.is_live pool ids.(k mod 6) then
          Bundle_pool.push pool ids.(k mod 6) ~size:(200 + (k * 13 mod 1300)))
  done;
  Sim.schedule sim ~at:0.1 (fun () -> Bundle_pool.set_channel_up pool 3 false);
  Sim.schedule sim ~at:0.15 (fun () ->
      Bundle_pool.scale_channel_rate pool 0 0.05;
      Bundle_pool.set_fifo_check_after pool 9.0);
  Sim.schedule sim ~at:0.2 (fun () -> Bundle_pool.crash_sender pool ids.(2));
  Sim.schedule sim ~at:0.25 (fun () -> Bundle_pool.release pool ids.(4));
  Sim.run sim;
  Alcotest.(check bool) "live slots before reset" true
    (Bundle_pool.live_bundles pool > 0);
  Alcotest.(check bool) "buffered resequencer data before reset" true
    (Array.exists (fun id -> Bundle_pool.rx_pending_packets pool id > 0) ids);
  Alcotest.(check bool) "wires busy past the reset clock" true
    (Bundle_pool.wire_busy_until pool > 0.3);
  (* A packet still on a wire has an arrival pending: refused. *)
  Bundle_pool.push pool ids.(0) ~size:500;
  Alcotest.check_raises "reset refuses a wire in flight"
    (Invalid_argument "Bundle_pool.reset: a packet is still on a wire")
    (fun () -> Bundle_pool.reset pool);
  Sim.run sim;
  Sim.reset sim;
  Bundle_pool.reset pool;
  let fresh_sim = Sim.create ~engine:Sim.Calendar () in
  let fresh = pool_for_reset fresh_sim in
  Alcotest.(check string) "reset pool reads like a fresh one"
    (fingerprint fresh fresh_sim) (fingerprint pool sim);
  let ids_reset = clean_script pool sim in
  let ids_fresh = clean_script fresh fresh_sim in
  Alcotest.(check (list int)) "acquires pick the fresh pool's slots" ids_fresh
    ids_reset;
  Alcotest.(check int) "capacity kept" (Bundle_pool.capacity fresh)
    (Bundle_pool.capacity pool);
  Alcotest.(check string) "reset pool replays like a fresh one"
    (fingerprint fresh fresh_sim) (fingerprint pool sim)

(* The churn-shaped event population (dense near cluster + sparse far
   timers) that used to degenerate the calendar's span-derived bucket
   width: with the quantile-derived width the calendar must still fire
   the identical sequence the reference heap does. *)
let test_calendar_bimodal_equivalence () =
  let run engine =
    let sim = Sim.create ~engine () in
    let rng = Rng.create 17 in
    let next = ref 0 in
    let log = ref [] in
    let ops = ref 4000 in
    let rec schedule_one () =
      let id = !next in
      incr next;
      let delay =
        if Rng.bernoulli rng ~p:0.9 then Rng.exponential rng ~mean:0.01
        else Rng.uniform rng ~lo:1.0 ~hi:5.0
      in
      Sim.schedule_after sim ~delay (fun () ->
          log := (id, Sim.now sim) :: !log;
          if !ops > 0 then begin
            decr ops;
            schedule_one ()
          end)
    in
    for _ = 1 to 512 do
      schedule_one ()
    done;
    Sim.run sim;
    List.rev !log
  in
  Alcotest.(check bool)
    "calendar fires the heap's exact sequence on a bimodal population" true
    (run Sim.Heap = run Sim.Calendar)

let test_shard_of_bundle () =
  for domains = 1 to 5 do
    for id = 0 to 100 do
      let s = Sharded_pool.shard_of_bundle ~domains id in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < domains);
      Alcotest.(check int) "assignment is stable" s
        (Sharded_pool.shard_of_bundle ~domains id)
    done
  done;
  let parts = Sharded_pool.split_fleet ~domains:3 ~bundles:200 in
  Alcotest.(check int) "split covers the fleet" 200
    (Array.fold_left (fun a p -> a + Array.length p) 0 parts);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "shards are non-trivially loaded" true
        (Array.length p > 20))
    parts

let suites =
  [
    ( "sharded",
      [
        QCheck_alcotest.to_alcotest prop_counters_partition_merge;
        QCheck_alcotest.to_alcotest prop_recovery_partition_merge;
        Alcotest.test_case "verdict merge" `Quick test_verdict_merge;
        Alcotest.test_case "shard assignment" `Quick test_shard_of_bundle;
        Alcotest.test_case "e2e heap: domains 1/2/3" `Quick (e2e ~engine:Sim.Heap);
        Alcotest.test_case "e2e calendar: domains 1/2/3" `Quick
          (e2e ~engine:Sim.Calendar);
        Alcotest.test_case "grouped replay heap: domains 1/2/3" `Quick
          (grouped ~engine:Sim.Heap);
        Alcotest.test_case "grouped replay calendar: domains 1/2/3" `Quick
          (grouped ~engine:Sim.Calendar);
        Alcotest.test_case "recorder rejects NaN times" `Quick
          test_recorder_rejects_nan;
        Alcotest.test_case "pool reset replays like fresh" `Quick
          test_pool_reset;
        Alcotest.test_case "calendar bimodal equivalence" `Quick
          test_calendar_bimodal_equivalence;
      ] );
  ]
