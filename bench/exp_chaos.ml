(* Chaos soak: storm x fleet-size matrix with always-on invariant
   monitors.

   A static Bundle_pool fleet (4-channel SRR bundles, heterogeneous
   rates, markers every 4 rounds, sender-aware carrier tracking, the
   marker-cadence watchdog armed, [stamp_seq] FIFO monitoring on) is
   loaded by a fleet-wide Poisson packet process while a seeded
   [Chaos.random_plan] plays out against it: correlated carrier storms
   take shared-risk channel groups down across every bundle at once,
   and endpoint crashes kill one side of one bundle for a finite
   downtime (PROTOCOL.md §12).

   Monitored during and after the schedule:
   - FIFO: per-bundle delivered-sequence inversions are counted
     throughout and count as violations past the quiet line (last chaos
     event + drain grace) — chaos legally degrades delivery to
     quasi-FIFO while it drains (Thm 5.1), but afterwards order must be
     restored;
   - conservation, per bundle at quiescence:
       pushed = delivered + rx_pending + carrier_drops
                + receiver_down_drops + rx_epoch_discards + rx_wiped;
   - recovery: every crashed endpoint must deliver again after its
     restart; per-endpoint MTTR and availability come from the union of
     its actual outage intervals (overlap-aware, Recovery.mttr).

   Any violation or unrecovered endpoint fails the run loudly with the
   seed and the chaos event index to replay against.

   Usage:
     dune exec bench/exp_chaos.exe --                   # full matrix
     dune exec bench/exp_chaos.exe -- --quick           # one small cell
     dune exec bench/exp_chaos.exe -- --seed 7          # one seed
     dune exec bench/exp_chaos.exe -- --bundles 2000    # one fleet size
     dune exec bench/exp_chaos.exe -- --json FILE       # machine output
     dune exec bench/exp_chaos.exe -- --inject-violation
       # detection self-test: plant a violation, exit 0 iff it is caught *)

open Stripe_netsim
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool
module Recovery = Stripe_metrics.Recovery
module Monitor = Stripe_obs.Monitor

let reference_rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let reference_delays = [| 0.001; 0.002; 0.005; 0.010 |]
let n_channels = Array.length reference_rates
let chaos_horizon = 1.5 (* storms/crashes are drawn inside [0, this) *)
let drain_grace = 0.4 (* quiet-line grace floor; scaled up per cell *)
let traffic_tail = 0.8 (* post-quiet traffic proving recovery *)
let packet_rate = 200_000.0 (* fleet-wide data packets per simulated second *)
let marker_every = 4
let wd_intervals = 4

(* Every recovery horizon in the receiver — watchdog death, barrier
   staleness, post-crash cold resync — is a small multiple of the
   per-bundle marker cadence, and that cadence scales inversely with the
   per-bundle packet rate: markers ride the data schedule (every
   [marker_every] rounds), so a 1200-bundle fleet sharing the same
   offered load has 4x the inter-marker time of a 300-bundle one. The
   watchdog fallback (the operator's "slowest expected cadence" knob)
   and the quiet line's drain grace must scale the same way or a large
   fleet flaps channels dead between markers and drains past the quiet
   line. *)
let cell_horizons ~quanta ~bundles =
  let round_bytes = Array.fold_left ( + ) 0 quanta in
  let mean_size = 600.0 (* bimodal 200/1000 traffic below *) in
  let per_bundle_rate = packet_rate /. float_of_int bundles in
  let cadence =
    float_of_int marker_every *. float_of_int round_bytes /. mean_size
    /. per_bundle_rate
  in
  let fallback = Float.max 0.05 cadence in
  let grace =
    Float.max drain_grace ((float_of_int wd_intervals +. 2.0) *. fallback)
  in
  (fallback, grace)

type profile = {
  pname : string;
  storm_every : float;
  crash_every : float;
  degrade_every : float;
}

(* Cells with gray degradations ([degrade_every] > 0) also run the §13
   health engine fleet-wide: one engine on the pool's shared wire
   counters — one gray link must not require one detection per bundle —
   with its Quarantine/Reinstate events feeding a liveness monitor. *)
let profiles =
  [
    { pname = "storms"; storm_every = 0.25; crash_every = 0.0; degrade_every = 0.0 };
    { pname = "crashes"; storm_every = 0.0; crash_every = 0.02; degrade_every = 0.0 };
    { pname = "degrades"; storm_every = 0.0; crash_every = 0.0; degrade_every = 0.06 };
    { pname = "mixed"; storm_every = 0.3; crash_every = 0.03; degrade_every = 0.1 };
  ]

type run = {
  tag : string;
  seed : int;
  bundles : int;
  chaos_events : int;
  delivered : int;
  carrier_drops : int;
  crashes : int;
  restarts : int;
  crashed_endpoints : int;
  recovered : int;
  mttr_ms : float; (* -1 when the run crashed nothing *)
  avail_mean : float;
  avail_min : float;
  inversions : int;
  violations : int;
  conservation_failures : int;
  wd_dead : int;
  quarantines : int;
  health_violations : int;
  failure : string option; (* diagnosis incl. seed + event index *)
}

let side_index = function Chaos.Tx -> 0 | Chaos.Rx -> 1

(* What one shard of a cell reports back to the merge barrier. With the
   whole fleet in one shard ([--domains 1]) this is exactly the legacy
   single-pool cell, and the merge of one shard is the identity. *)
type shard_out = {
  sr : run;  (* [tag] empty and [failure] = non-FIFO causes only *)
  violate_event : int;
  mttr_sum : float;
  avail_sum : float;
  first_viol : (float * int * int) option;  (* global bundle id *)
}

(* One shard: [locals] lists the global ids of the bundles it owns
   (local id = index in [locals]); [fleet] is the global fleet size the
   chaos plan and marker-cadence horizons are drawn against, so every
   shard sees the same plan and the same quiet-line grace. Bundle
   events for non-owned bundles are filtered at the driver; channel
   events apply everywhere (a storm hits every shard's channels, as it
   hit every bundle of the single pool). *)
let run_shard ~profile ~discipline ~fleet ~locals ~traffic_rate ~chaos_rng
    ~traffic_rng ~size_rng ~seed ~inject () =
  let bundles = Array.length locals in
  let local_of_global = Array.make (max 1 fleet) (-1) in
  Array.iteri (fun l g -> local_of_global.(g) <- l) locals;
  let sim = Sim.create () in
  let quanta =
    Srr.quanta_for_rates ~rates_bps:reference_rates ~quantum_unit:1500 ()
  in
  let wd_fallback, grace = cell_horizons ~quanta ~bundles:fleet in
  let health_on = profile.degrade_every > 0.0 in
  let health_monitor = Monitor.create ~live_channels:n_channels () in
  let pool =
    Bundle_pool.create ~stamp_seq:true
      ~watchdog:{ Resequencer.intervals = wd_intervals; fallback = wd_fallback }
      ?health:(if health_on then Some Health.default_config else None)
      ?health_sink:
        (if health_on then Some (Monitor.sink health_monitor) else None)
      ~sim
      {
        Bundle_pool.rate_bps = reference_rates;
        prop_delay = reference_delays;
        quanta;
        marker_every;
        guard = false;
        discipline;
      }
  in
  for _ = 1 to bundles do
    ignore (Bundle_pool.acquire pool)
  done;
  let plan =
    Chaos.random_plan ~rng:chaos_rng ~n_channels ~n_bundles:fleet
      ~horizon:chaos_horizon ~storm_every:profile.storm_every
      ~crash_every:profile.crash_every ~degrade_every:profile.degrade_every
      ~mean_outage:0.08 ~mean_downtime:0.08 ~mean_degrade:0.15 ()
  in
  let plan =
    if inject then
      plan @ [ Chaos.Violate { bundle = 0; at = chaos_horizon /. 2.0 } ]
    else plan
  in
  (* Actual (not planned) endpoint outages: overlapping planned crashes
     collapse onto the first crash/restart pair that really fired. *)
  let down_since = Array.init 2 (fun _ -> Array.make bundles Float.nan) in
  let outages = Array.init 2 (fun _ -> Array.make bundles []) in
  let last_restart = Array.init 2 (fun _ -> Array.make bundles Float.nan) in
  let driver =
    {
      Chaos.set_channel_up = (fun c up -> Bundle_pool.set_channel_up pool c up);
      crash =
        (fun side b ->
          let b = local_of_global.(b) in
          let s = side_index side in
          if b >= 0 && Float.is_nan down_since.(s).(b) then begin
            (match side with
            | Chaos.Tx -> Bundle_pool.crash_sender pool b
            | Chaos.Rx -> ignore (Bundle_pool.crash_receiver pool b));
            down_since.(s).(b) <- Sim.now sim
          end);
      restart =
        (fun side b ->
          let b = local_of_global.(b) in
          let s = side_index side in
          if b >= 0 && not (Float.is_nan down_since.(s).(b)) then begin
            (match side with
            | Chaos.Tx -> Bundle_pool.restart_sender pool b
            | Chaos.Rx -> Bundle_pool.restart_receiver pool b);
            outages.(s).(b) <-
              (down_since.(s).(b), Sim.now sim) :: outages.(s).(b);
            down_since.(s).(b) <- Float.nan;
            last_restart.(s).(b) <- Sim.now sim
          end);
      violate =
        (fun b ->
          let b = local_of_global.(b) in
          if b >= 0 then Bundle_pool.inject_violation pool b);
      set_loss = (fun c l -> Bundle_pool.set_channel_loss pool c l);
      scale_rate = (fun c f -> Bundle_pool.scale_channel_rate pool c f);
    }
  in
  let last_event = ref (-1) in
  let violate_event = ref (-1) in
  Chaos.apply sim
    ~on_event:(fun ~index ~time:_ what ->
      last_event := index;
      if String.length what >= 7 && String.sub what 0 7 = "violate" then
        violate_event := index)
    driver plan;
  (* Post-incident resync: a watchdog skip over packets that were merely
     delayed (a rate collapse) leaves their late copies as a buffered
     surplus the resequencer delivers at a constant quasi-FIFO offset
     forever — data packets carry no round identity, so only a §5 reset
     barrier expunges it. Fire one pool-wide once the fault horizon has
     passed; the surplus drains during barrier assembly, before the
     FIFO check arms. (Health cells get further resyncs for free: every
     health retune fires a slot reset across the pool.) *)
  let resync_at = Chaos.horizon plan +. 0.05 in
  Sim.schedule sim ~at:resync_at (fun () -> Bundle_pool.resync pool);
  (* The quiet line is dynamic, pushed out by whichever settles last:

     - Wire backlog. A rate collapse leaves serialization debt that
       drains long after its window (and long after the plan's horizon
       when storms concentrate load on the collapsed channel).
       Predicting the drain is hopeless; measuring it is easy: at each
       provisional quiet line, ask the pool for its latest scheduled
       wire departure and push the line out while real backlog — beyond
       a normal few packets of serialization — remains.

     - Health engine actions. Every transition — probation retunes,
       quarantine suspensions, backoff reinstatements — rides a §5
       barrier whose adoption is only quasi-FIFO (Thm 5.1), so the FIFO
       check cannot arm until a grace after the engine's LAST action.
       The engine must run to convergence, not be cut off at the chaos
       horizon: freezing it mid-probation freezes the scaled quanta,
       and a probation cut concentrates the open-loop offered load onto
       the surviving channels — past the slowest wire's capacity, so
       the backlog would grow without bound. Left running, the engine
       converges on its own once the faults clear: probation channels
       collect clean windows and recover, quarantined channels
       reinstate on their backoff and heal, quanta return to nominal,
       and the wire drains. *)
  let max_prop = Array.fold_left Float.max 0.0 reference_delays in
  let last_health_action = ref resync_at in
  let armed_quiet = ref infinity in
  let traffic_until = ref 0.0 in
  let rec arm_quiet q =
    armed_quiet := q;
    Bundle_pool.set_fifo_check_after pool q;
    if q +. traffic_tail > !traffic_until then
      traffic_until := q +. traffic_tail;
    Sim.schedule sim ~at:q (fun () ->
        if !armed_quiet = q then begin
          let busy_end = Bundle_pool.wire_busy_until pool in
          let wire_q =
            if busy_end -. q > 0.05 then busy_end +. max_prop +. grace
            else q
          in
          let q' = Float.max wire_q (!last_health_action +. grace) in
          if q' > q +. 1e-6 then arm_quiet q'
        end)
  in
  arm_quiet (resync_at +. grace);
  let quarantines = ref 0 in
  if health_on then begin
    let rec health_tick () =
      if Sim.now sim < !traffic_until then begin
        let retunes_before = Bundle_pool.health_retunes pool in
        let transitions = Bundle_pool.health_tick pool ~now:(Sim.now sim) in
        List.iter
          (function
            | Health.To_quarantine _ -> incr quarantines
            | _ -> ())
          transitions;
        if
          (match transitions with _ :: _ -> true | [] -> false)
          || Bundle_pool.health_retunes pool <> retunes_before
        then begin
          let now = Sim.now sim in
          last_health_action := now;
          if !armed_quiet < now +. grace then arm_quiet (now +. grace)
        end;
        Sim.schedule_after sim ~delay:0.05 health_tick
      end
    in
    Sim.schedule sim ~at:0.05 health_tick
  end;
  let gen_size =
    Stripe_workload.Genpkt.bimodal ~rng:size_rng ~small:200 ~large:1000 ()
  in
  let rec traffic_tick () =
    if Sim.now sim < !traffic_until then begin
      Bundle_pool.push pool (Rng.int traffic_rng bundles) ~size:(gen_size ());
      Sim.schedule_after sim
        ~delay:(Rng.exponential traffic_rng ~mean:(1.0 /. traffic_rate))
        traffic_tick
    end
  in
  if bundles > 0 then traffic_tick ();
  Sim.run sim;
  let run_end = Sim.now sim in
  (* Recovery per crashed endpoint. *)
  let crashed = ref 0 in
  let recovered = ref 0 in
  let mttr_sum = ref 0.0 in
  let avail_sum = ref 0.0 in
  let avail_min = ref 1.0 in
  let first_unrecovered = ref None in
  for s = 0 to 1 do
    for b = 0 to bundles - 1 do
      if outages.(s).(b) <> [] then begin
        incr crashed;
        (match Recovery.mttr outages.(s).(b) with
        | Some m -> mttr_sum := !mttr_sum +. m
        | None -> ());
        let avail =
          Recovery.interval_availability ~outages:outages.(s).(b) ~from_:0.0
            ~until_:run_end
        in
        avail_sum := !avail_sum +. avail;
        if avail < !avail_min then avail_min := avail;
        let last_d = Bundle_pool.last_delivery_time pool b in
        if (not (Float.is_nan last_d)) && last_d > last_restart.(s).(b) then
          incr recovered
        else if !first_unrecovered = None then
          first_unrecovered :=
            Some
              (Printf.sprintf "%s/%d" (if s = 0 then "tx" else "rx") locals.(b))
      end
    done
  done;
  (* Conservation at quiescence, per bundle. *)
  let conservation_failures = ref 0 in
  let first_unconserved = ref None in
  for b = 0 to bundles - 1 do
    match
      Monitor.check_conservation
        ~what:(Printf.sprintf "bundle %d" locals.(b))
        ~pushed:(Bundle_pool.pushed_packets pool b)
        ~delivered:(Bundle_pool.delivered_packets pool b)
        ~pending:(Bundle_pool.rx_pending_packets pool b)
        ~drops:
          [
            Bundle_pool.carrier_drops pool b;
            Bundle_pool.receiver_down_drops pool b;
            Bundle_pool.rx_epoch_discards pool b;
            Bundle_pool.rx_wiped_packets pool b;
            Bundle_pool.wire_loss_drops pool b;
          ]
    with
    | Ok () -> ()
    | Error msg ->
      incr conservation_failures;
      if !first_unconserved = None then first_unconserved := Some msg
  done;
  let sums f = Array.init bundles (fun b -> f pool b) |> Array.fold_left ( + ) 0 in
  let violations = Bundle_pool.total_fifo_violations pool in
  let first_viol =
    match Bundle_pool.first_violation pool with
    | Some (time, b, sq) -> Some (time, locals.(b), sq)
    | None -> None
  in
  (* FIFO and injection verdicts need the fleet-wide violation count, so
     they are rendered at the merge barrier; here only the failures this
     shard can judge alone. *)
  let failure =
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Some
            (Printf.sprintf "%s (seed %d, last chaos event %d)" msg seed
               !last_event))
        fmt
    in
    if !conservation_failures > 0 then
      fail "%s" (Option.value ~default:"conservation" !first_unconserved)
    else if !recovered < !crashed then
      fail "endpoint %s never delivered after restart"
        (Option.value ~default:"?" !first_unrecovered)
    else if Monitor.violations health_monitor > 0 then
      fail "health engine liveness violation: %s"
        (match Monitor.first_violation health_monitor with
        | Some (_, msg) -> msg
        | None -> "?")
    else None
  in
  {
    sr =
      {
        tag = "";
        seed;
        bundles;
        chaos_events = !last_event + 1;
        delivered = Bundle_pool.total_delivered_packets pool;
        carrier_drops = sums Bundle_pool.carrier_drops;
        crashes = Bundle_pool.crashes pool;
        restarts = Bundle_pool.restarts pool;
        crashed_endpoints = !crashed;
        recovered = !recovered;
        mttr_ms =
          (if !crashed = 0 then -1.0
           else 1000.0 *. !mttr_sum /. float_of_int !crashed);
        avail_mean =
          (if !crashed = 0 then 1.0 else !avail_sum /. float_of_int !crashed);
        avail_min = !avail_min;
        inversions = sums Bundle_pool.seq_inversions;
        violations;
        conservation_failures = !conservation_failures;
        wd_dead = sums Bundle_pool.rx_dead_declarations;
        quarantines = !quarantines;
        health_violations = Monitor.violations health_monitor;
        failure;
      };
    violate_event = !violate_event;
    mttr_sum = !mttr_sum;
    avail_sum = !avail_sum;
    first_viol;
  }

(* A cell: the legacy single pool when [domains = 1] — bit-identical to
   the pre-sharding benchmark, same RNG split order and all — else the
   fleet partitioned by bundle id across N domains. Every shard replays
   the same seeded chaos plan (channel events everywhere, bundle events
   filtered to its own bundles), drives its proportional slice of the
   offered load from indexed RNG substreams, and runs its own sim,
   pool, health engine and monitors. The merge sums counters, pools the
   recovery stats (endpoint-weighted MTTR/availability, min
   availability) and renders the fleet-wide FIFO/injection verdicts.

   Unlike exp_fleet's recorded tape, the quiet line here adapts to each
   shard's own wire backlog and health-engine convergence, so cross-N
   byte-equality of counters is not a contract for chaos cells — the
   invariants (zero violations, conservation, full recovery) are. *)
let run_cell ~profile ~discipline ~bundles ~seed ~inject ~domains () =
  let shards =
    if domains = 1 then
      let rng = Rng.create seed in
      let chaos_rng = Rng.split rng in
      let traffic_rng = Rng.split rng in
      let size_rng = Rng.split rng in
      [|
        run_shard ~profile ~discipline ~fleet:bundles
          ~locals:(Array.init bundles (fun b -> b))
          ~traffic_rate:packet_rate ~chaos_rng ~traffic_rng ~size_rng ~seed
          ~inject ();
      |]
    else begin
      let parts = Sharded_pool.split_fleet ~domains ~bundles in
      let shard k () =
        (* Each shard re-derives the identical plan from the seed's
           first split; traffic and sizes come from indexed substreams
           so the per-shard Poisson processes are independent. *)
        let rng = Rng.create seed in
        let chaos_rng = Rng.split rng in
        let traffic_rng = Rng.stream ~seed ((2 * k) + 1) in
        let size_rng = Rng.stream ~seed ((2 * k) + 2) in
        let locals = parts.(k) in
        run_shard ~profile ~discipline ~fleet:bundles ~locals
          ~traffic_rate:
            (packet_rate
            *. float_of_int (Array.length locals)
            /. float_of_int bundles)
          ~chaos_rng ~traffic_rng ~size_rng ~seed ~inject ()
      in
      let joins =
        Array.init (domains - 1) (fun i -> Domain.spawn (shard (i + 1)))
      in
      let first = shard 0 () in
      Array.append [| first |] (Array.map Domain.join joins)
    end
  in
  let sum f = Array.fold_left (fun a s -> a + f s.sr) 0 shards in
  let violations = sum (fun r -> r.violations) in
  let crashed = sum (fun r -> r.crashed_endpoints) in
  let mttr_sum = Array.fold_left (fun a s -> a +. s.mttr_sum) 0.0 shards in
  let avail_sum = Array.fold_left (fun a s -> a +. s.avail_sum) 0.0 shards in
  let chaos_events =
    Array.fold_left (fun a s -> max a s.sr.chaos_events) 0 shards
  in
  let first_viol =
    Array.fold_left
      (fun acc s ->
        match (acc, s.first_viol) with
        | None, v | v, None -> v
        | (Some (ta, _, _) as a), Some (tb, _, _) ->
          if tb < ta then s.first_viol else a)
      None shards
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Some
          (Printf.sprintf "%s (seed %d, last chaos event %d)" msg seed
             (chaos_events - 1)))
      fmt
  in
  let shard_failure =
    Array.fold_left
      (fun acc s -> if acc = None then s.sr.failure else acc)
      None shards
  in
  let failure =
    if violations > 0 && not inject then begin
      match first_viol with
      | Some (time, b, sq) ->
        fail "FIFO violation: bundle %d seq %d at t=%.4f" b sq time
      | None -> fail "FIFO violation"
    end
    else if shard_failure <> None then shard_failure
    else if inject && violations = 0 then
      fail "injected violation was NOT caught"
    else None
  in
  let tag0 =
    Printf.sprintf "%s%s-%d-s%d" profile.pname
      (match discipline with
      | Bundle_pool.Srr -> ""
      | Bundle_pool.Sprinklers _ -> "-spr")
      bundles seed
  in
  ( {
      tag = (if domains = 1 then tag0 else Printf.sprintf "%s-d%d" tag0 domains);
      seed;
      bundles;
      chaos_events;
      delivered = sum (fun r -> r.delivered);
      carrier_drops = sum (fun r -> r.carrier_drops);
      crashes = sum (fun r -> r.crashes);
      restarts = sum (fun r -> r.restarts);
      crashed_endpoints = crashed;
      recovered = sum (fun r -> r.recovered);
      mttr_ms =
        (if crashed = 0 then -1.0
         else 1000.0 *. mttr_sum /. float_of_int crashed);
      avail_mean =
        (if crashed = 0 then 1.0 else avail_sum /. float_of_int crashed);
      avail_min =
        Array.fold_left (fun a s -> Float.min a s.sr.avail_min) 1.0 shards;
      inversions = sum (fun r -> r.inversions);
      violations;
      conservation_failures = sum (fun r -> r.conservation_failures);
      wd_dead = sum (fun r -> r.wd_dead);
      quarantines = sum (fun r -> r.quarantines);
      health_violations = sum (fun r -> r.health_violations);
      failure;
    },
    Array.fold_left (fun a s -> max a s.violate_event) (-1) shards )

let print_run r =
  Printf.printf
    "  %-18s %4d ev  %8d pkts  drops %6d  crash %3d/%3d  recovered %3d/%3d  \
     mttr %s  avail %.4f/%.4f  inv %5d  wd %4d  quar %3d  viol %d/%d  consv \
     %d\n\
     %!"
    r.tag r.chaos_events r.delivered r.carrier_drops r.crashes r.restarts
    r.recovered r.crashed_endpoints
    (if r.mttr_ms < 0.0 then "   n/a" else Printf.sprintf "%5.1fms" r.mttr_ms)
    r.avail_mean r.avail_min r.inversions r.wd_dead r.quarantines r.violations
    r.health_violations r.conservation_failures

let fields_of_run r =
  Bench_gate.
    [
      ("run", Str r.tag);
      ("seed", Int r.seed);
      ("bundles", Int r.bundles);
      ("chaos_events", Int r.chaos_events);
      ("delivered", Int r.delivered);
      ("carrier_drops", Int r.carrier_drops);
      ("crashes", Int r.crashes);
      ("restarts", Int r.restarts);
      ("crashed_endpoints", Int r.crashed_endpoints);
      ("recovered", Int r.recovered);
      ("mttr_ms", Num (3, r.mttr_ms));
      ("avail_mean", Num (5, r.avail_mean));
      ("avail_min", Num (5, r.avail_min));
      ("inversions", Int r.inversions);
      ("violations", Int r.violations);
      ("conservation_failures", Int r.conservation_failures);
      ("watchdog_dead", Int r.wd_dead);
      ("quarantines", Int r.quarantines);
      ("health_violations", Int r.health_violations);
    ]

let health_selftest () =
  (* The liveness monitor must fire when quarantines zero the live
     membership, and shadow reinstatements back out. No simulation:
     drive the event stream directly. *)
  let mon = Monitor.create ~live_channels:n_channels () in
  let sink = Monitor.sink mon in
  let ev kind c t =
    Stripe_obs.Sink.emit sink
      (Stripe_obs.Event.v ~channel:c ~size:0 ~seq:0 ~time:t kind)
  in
  for c = 0 to n_channels - 2 do
    ev Stripe_obs.Event.Quarantine c (float_of_int c)
  done;
  if Monitor.violations mon <> 0 then begin
    Printf.eprintf
      "  FAIL: liveness monitor fired with one live channel left\n";
    exit 1
  end;
  ev Stripe_obs.Event.Reinstate 0 10.0;
  ev Stripe_obs.Event.Quarantine 0 11.0;
  ev Stripe_obs.Event.Quarantine (n_channels - 1) 12.0;
  if Monitor.violations mon <> 1 then begin
    Printf.eprintf
      "  FAIL: liveness monitor missed a membership-zeroing quarantine \
       (saw %d violations)\n"
      (Monitor.violations mon);
    exit 1
  end;
  Printf.printf
    "exp_chaos: health-monitor self-test passed — %d quarantines tolerated \
     with a live member, the zeroing one caught\n"
    n_channels;
  exit 0

let usage =
  "exp_chaos [--quick] [--bundles N] [--seed S] [--profile \
   storms|crashes|degrades|mixed] [--discipline srr|sprinklers] \
   [--domains N] [--json FILE] [--inject-violation] [--health-selftest]"

let () =
  let quick = ref false in
  let bundles = ref None in
  let seed = ref None in
  let json_out = ref None in
  let inject = ref false in
  let profile_filter = ref None in
  let domains = ref 1 in
  let discipline = ref Bundle_pool.Srr in
  Bench_gate.Flag.(
    parse ~usage
      [
        ("--quick", Unit (fun () -> quick := true));
        ("--bundles", Int (fun n -> bundles := Some n));
        ("--domains", Int (fun n -> domains := Sharded_pool.resolve_domains n));
        ("--seed", Int (fun n -> seed := Some n));
        ("--profile", String (fun v -> profile_filter := Some v));
        ( "--discipline",
          String
            (fun v ->
              discipline :=
                match v with
                | "srr" -> Bundle_pool.Srr
                | "sprinklers" -> Bundle_pool.Sprinklers 0x5eed
                | _ -> Bench_gate.usage_error ~usage ("--discipline " ^ v)) );
        ("--json", String (fun file -> json_out := Some file));
        ("--inject-violation", Unit (fun () -> inject := true));
        ("--health-selftest", Unit health_selftest);
      ]);
  let seeds = match !seed with Some s -> [ s ] | None -> [ 11; 23; 42 ] in
  let profiles =
    match !profile_filter with
    | None -> profiles
    | Some name -> (
      match List.filter (fun p -> p.pname = name) profiles with
      | [] ->
        Printf.eprintf
          "unknown profile %S (want storms|crashes|degrades|mixed)\n" name;
        exit 2
      | ps -> ps)
  in
  if !inject then begin
    (* Detection self-test: one small cell with a planted violation;
       success means the monitor caught it and can name the event. *)
    let b = Option.value ~default:200 !bundles in
    let s = List.hd seeds in
    let mixed =
      { pname = "mixed"; storm_every = 0.3; crash_every = 0.03; degrade_every = 0.1 }
    in
    Printf.printf
      "exp_chaos: detection self-test, %d bundles, seed %d, planted FIFO \
       violation\n\
       %!"
      b s;
    let r, violate_event =
      run_cell ~profile:mixed ~discipline:!discipline ~bundles:b ~seed:s
        ~inject:true ~domains:!domains ()
    in
    print_run r;
    match r.failure with
    | Some msg ->
      Printf.eprintf "  FAIL: %s\n" msg;
      exit 1
    | None ->
      Printf.printf
        "  caught planted violation (seed %d, chaos event %d): monitors are \
         live\n"
        s violate_event;
      exit 0
  end;
  let sizes =
    match !bundles with
    | Some n -> [ n ]
    | None -> if !quick then [ 200 ] else [ 300; 1200 ]
  in
  let cells =
    if !quick then
      [ (List.nth profiles (List.length profiles - 1), List.hd sizes, List.hd seeds) ]
    else
      List.concat_map
        (fun p -> List.map (fun n -> (p, n, List.hd seeds)) sizes)
        profiles
      @ (match (List.rev profiles, List.rev sizes) with
        | p :: _, n :: _ -> List.map (fun s -> (p, n, s)) (List.tl seeds)
        | _ -> [])
  in
  Printf.printf
    "exp_chaos: %d cells x 4ch SRR fleet, chaos horizon %.1fs, quiet line = \
     last event + cadence-scaled grace (>= %.1fs), %.0fk pkts/s offered%s\n\
     %!"
    (List.length cells) chaos_horizon drain_grace
    (packet_rate /. 1000.0)
    (if !domains > 1 then Printf.sprintf ", %d domains" !domains else "");
  let runs =
    List.map
      (fun (p, n, s) ->
        let r, _ =
          run_cell ~profile:p ~discipline:!discipline ~bundles:n ~seed:s
            ~inject:false ~domains:!domains ()
        in
        print_run r;
        r)
      cells
  in
  (match !json_out with
  | None -> ()
  | Some file ->
    Bench_gate.(
      write file
        ~header:
          [
            ( "scenario",
              Str
                "chaos soak: 4ch SRR fleet, seeded storms + endpoint crashes, \
                 monitors on" );
          ]
        ~array:"runs"
        (List.map fields_of_run runs)));
  let failures = List.filter (fun r -> r.failure <> None) runs in
  if failures <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf "  FAIL %s: %s\n" r.tag
          (Option.value ~default:"" r.failure))
      failures;
    exit 1
  end;
  Printf.printf
    "  all %d cells clean: zero violations, every crashed endpoint recovered\n"
    (List.length runs)
