(* Many-bundle fleet benchmark: the scale gate.

   Reference scenario: a Bundle_pool of 4-channel SRR bundles
   (heterogeneous rates, markers every 4 rounds, logical reception)
   churned by a Poisson process — bundles arrive at a fixed rate, live
   an exponential lifetime, and die; a global Poisson packet process
   sprays bimodal data packets uniformly over whatever bundles are
   alive.

   The workload is generated once (a cheap protocol-free pass) and
   recorded into a [Stripe_fleet.Sharded_pool], which replays it across
   [--domains N] OCaml 5 domains, each shard carrying its slice of the
   fleet on its own Sim event loop (DESIGN.md §10). The partition is by
   pool slot, so the replay is bit-deterministic in the shard count:
   [--domains 1] reproduces the legacy single-pool run byte-identically
   (the BENCH_fleet.json anchor), and any N merges to the same
   delivered/markers/share numbers — only wall-clock changes.

   Reported:
   - aggregate pps: data packets delivered per wall-clock second across
     the fleet — the number the CI gate protects; with [--domains N],
     also per-shard pps and a scaling-efficiency line;
   - minor words allocated per delivered packet during the replay: the
     machine-independent cost gate;
   - per-bundle fairness: every bundle runs the same configuration and
     sees the same arrival statistics, so delivered goodput normalized
     by lifetime should be equal across bundles. The p50/p99 of the
     relative share error |rate/mean - 1| measure how uniformly the
     engine serves 10k+ bundles through churn (the tail is dominated by
     short-lived bundles' Poisson variance, which is why the committed
     numbers carry it: a scheduling bug that starves recycled slots
     shows up as a p99 step).

   Usage:
     dune exec bench/exp_fleet.exe --                  # full run, table
     dune exec bench/exp_fleet.exe -- --quick          # 10k bundles
     dune exec bench/exp_fleet.exe -- --bundles 50000  # custom fleet
     dune exec bench/exp_fleet.exe -- --domains 4      # 4 shards (0 = auto)
     dune exec bench/exp_fleet.exe -- --json FILE      # machine output
     dune exec bench/exp_fleet.exe -- --check FILE --max-regress 0.30
       # CI gate: exit 1 if pps drops >30% below FILE's committed
       # numbers, if single-domain calendar runs allocate >2% more
       # minor words per delivered packet than committed, or if the
       # protocol aggregates (delivered, markers, share p50/p99) drift
       # from the committed single-domain anchor — the latter holds for
       # every --domains N, so a multicore run is gated on aggregate
       # equality, not wall-clock.

   Like exp_throughput, each engine runs [--repeat] times and the
   fastest run is reported (wall-clock noise is one-sided); the
   simulated behavior is seed-deterministic, so fairness numbers are
   identical across repeats, engines, and domain counts. *)

open Stripe_netsim
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let reference_rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let reference_delays = [| 0.001; 0.002; 0.005; 0.010 |]
let reference_seed = 42

(* Churn process: steady-state population = arrival_rate * mean_life. *)
let arrival_rate = 2000.0 (* bundles per simulated second *)
let mean_life = 0.5 (* seconds *)
let packet_rate = 100_000.0 (* fleet-wide data packets per simulated second *)

(* Lifetimes shorter than this yield goodput estimates too noisy to
   count against the equal-share reference. *)
let min_measured_life = 0.02

type result = {
  engine : string;
  domains : int;
  bundles : int;
  peak_live : int;
  delivered : int;
  markers : int;
  wall_s : float;
  pps : float;
  share_p50 : float;
  share_p99 : float;
  sim_seconds : float;
  minor_words_per_pkt : float;
  efficiency : float;
  shards : Sharded_pool.shard_report array;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(min (n - 1) (max 0 i))

let run_once ~engine ~total_bundles ~domains () =
  (* Generation pass: protocol-free, so it always runs on the heap
     engine of a private sim. The RNG stream structure and the dense
     live-table dynamics are identical to the legacy single-pool loop,
     so the recorded op tape is the exact op sequence that loop issued
     against its pool. *)
  let gsim = Sim.create ~engine:Sim.Heap () in
  let rng = Rng.create reference_seed in
  let arrivals_rng = Rng.split rng in
  let life_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let pool =
    Sharded_pool.create ~engine ~clock:Unix.gettimeofday ~domains
      ~seed:reference_seed
      {
        Bundle_pool.rate_bps = reference_rates;
        prop_delay = reference_delays;
        quanta =
          Srr.quanta_for_rates ~rates_bps:reference_rates ~quantum_unit:1500 ();
        marker_every = 4;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  let gen_size = Stripe_workload.Genpkt.bimodal ~rng:size_rng ~small:200 ~large:1000 () in
  (* Dense table of live bundle ids for O(1) uniform picks; [pos] maps
     a slot id back to its dense index for swap-removal. *)
  let ids = ref (Array.make 1024 0) in
  let pos = ref (Array.make 1024 (-1)) in
  let n_ids = ref 0 in
  let add_live id =
    if !n_ids = Array.length !ids then begin
      let bigger = Array.make (2 * !n_ids) 0 in
      Array.blit !ids 0 bigger 0 !n_ids;
      ids := bigger
    end;
    !ids.(!n_ids) <- id;
    (if id >= Array.length !pos then begin
       let bigger = Array.make (2 * (id + 1)) (-1) in
       Array.blit !pos 0 bigger 0 (Array.length !pos);
       pos := bigger
     end);
    !pos.(id) <- !n_ids;
    incr n_ids
  in
  let remove_live id =
    let i = !pos.(id) in
    let last = !ids.(!n_ids - 1) in
    !ids.(i) <- last;
    !pos.(last) <- i;
    !pos.(id) <- -1;
    decr n_ids
  in
  let arrivals_done = ref false in
  let start_bundle () =
    let id = Sharded_pool.acquire pool ~at:(Sim.now gsim) in
    add_live id;
    let life = Rng.exponential life_rng ~mean:mean_life in
    Sim.schedule_after gsim ~delay:life (fun () ->
        remove_live id;
        Sharded_pool.release pool ~at:(Sim.now gsim) id)
  in
  let rec arrival_tick () =
    if Sharded_pool.total_acquired pool < total_bundles then begin
      start_bundle ();
      Sim.schedule_after gsim
        ~delay:(Rng.exponential arrivals_rng ~mean:(1.0 /. arrival_rate))
        arrival_tick
    end
    else arrivals_done := true
  in
  let rec traffic_tick () =
    (* The packet process outlives the arrival process just long enough
       to keep the tail population loaded; it stops once the last
       bundle has departed, letting the run drain to a natural end. *)
    if not (!arrivals_done && !n_ids = 0) then begin
      if !n_ids > 0 then begin
        let id = !ids.(Rng.int traffic_rng !n_ids) in
        Sharded_pool.push pool ~at:(Sim.now gsim) id ~size:(gen_size ())
      end;
      Sim.schedule_after gsim
        ~delay:(Rng.exponential traffic_rng ~mean:(1.0 /. packet_rate))
        traffic_tick
    end
  in
  (* Warm start at the steady-state population so the measured window
     is churn around equilibrium rather than a cold ramp. *)
  let steady = int_of_float (arrival_rate *. mean_life) in
  for _ = 1 to min steady total_bundles do
    start_bundle ()
  done;
  arrival_tick ();
  traffic_tick ();
  Sim.run gsim;
  Gc.compact ();
  (* Allocation is machine-independent, so it is the fleet's speed gate
     that any machine can check. The counters are read after a minor
     collection, which flushes this domain's allocation into totals
     that already hold what the joined shard domains allocated. *)
  let minor0 = (Gc.quick_stat ()).Gc.minor_words in
  let report = Sharded_pool.run pool in
  Gc.minor ();
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. minor0 in
  (* Internal merge consistency: the aggregate the report carries must
     equal the sum of its per-shard entries — always on, every run. *)
  let shard_sum f =
    Array.fold_left (fun acc s -> acc + f s) 0 report.Sharded_pool.shards
  in
  assert (
    report.Sharded_pool.delivered_packets
    = shard_sum (fun s -> s.Sharded_pool.delivered_packets)
    && report.Sharded_pool.markers_sent
       = shard_sum (fun s -> s.Sharded_pool.markers_sent));
  let shares = ref (Array.make 4096 0.0) in
  let n_shares = ref 0 in
  Array.iter
    (fun (g : Sharded_pool.gen_report) ->
      let life = g.death -. g.birth in
      if life >= min_measured_life then begin
        if !n_shares = Array.length !shares then begin
          let bigger = Array.make (2 * !n_shares) 0.0 in
          Array.blit !shares 0 bigger 0 !n_shares;
          shares := bigger
        end;
        !shares.(!n_shares) <- float_of_int g.delivered_bytes /. life;
        incr n_shares
      end)
    report.Sharded_pool.gens;
  let n = !n_shares in
  let errors =
    let s = Array.sub !shares 0 n in
    let mean = Array.fold_left ( +. ) 0.0 s /. float_of_int (max 1 n) in
    let e = Array.map (fun r -> Float.abs ((r /. mean) -. 1.0)) s in
    Array.sort compare e;
    e
  in
  {
    engine = Sim.engine_name engine;
    domains = report.Sharded_pool.domains;
    bundles = report.Sharded_pool.acquired;
    peak_live = report.Sharded_pool.peak_live;
    delivered = report.Sharded_pool.delivered_packets;
    markers = report.Sharded_pool.markers_sent;
    wall_s = report.Sharded_pool.wall_s;
    pps =
      float_of_int report.Sharded_pool.delivered_packets
      /. report.Sharded_pool.wall_s;
    share_p50 = percentile errors 0.50;
    share_p99 = percentile errors 0.99;
    sim_seconds = report.Sharded_pool.end_time;
    minor_words_per_pkt =
      minor_words /. float_of_int (max 1 report.Sharded_pool.delivered_packets);
    efficiency = report.Sharded_pool.efficiency;
    shards = report.Sharded_pool.shards;
  }

let quick_tag engine = engine ^ "-quick"
let domain_tag domains tag = Printf.sprintf "%s-d%d" tag domains

let fields_of_shard (s : Sharded_pool.shard_report) =
  Bench_gate.
    [
      ("shard", Int s.Sharded_pool.shard);
      ("slots", Int s.Sharded_pool.slots);
      ("generations", Int s.Sharded_pool.generations);
      ("delivered", Int s.Sharded_pool.delivered_packets);
      ("markers", Int s.Sharded_pool.markers_sent);
      ("wall_s", Num (4, s.Sharded_pool.wall_s));
    ]

let fields_of_result ~tag r =
  let shard_part =
    if r.domains = 1 then []
    else
      Bench_gate.
        [
          ("efficiency", Num (3, r.efficiency));
          ( "shards",
            List
              (Array.to_list
                 (Array.map (fun s -> Obj (fields_of_shard s)) r.shards)) );
        ]
  in
  Bench_gate.
    [
      ("engine", Str tag);
      ("domains", Int r.domains);
      ("bundles", Int r.bundles);
      ("peak_live", Int r.peak_live);
      ("delivered", Int r.delivered);
      ("markers", Int r.markers);
      ("wall_s", Num (4, r.wall_s));
      ("pps", Num (1, r.pps));
      ("share_p50", Num (4, r.share_p50));
      ("share_p99", Num (4, r.share_p99));
      ("sim_seconds", Num (4, r.sim_seconds));
      ("minor_words_per_pkt", Num (3, r.minor_words_per_pkt));
    ]
  @ shard_part

let print_result r =
  Printf.printf
    "  %-10s %6d bundles (peak %4d live)  %8d pkts  %6.3f s wall  %9.0f \
     pkts/s  %.3f minor_words_per_pkt  share err p50 %.3f p99 %.3f\n\
     %!"
    r.engine r.bundles r.peak_live r.delivered r.wall_s r.pps
    r.minor_words_per_pkt r.share_p50 r.share_p99;
  if r.domains > 1 then begin
    let pps_of (s : Sharded_pool.shard_report) =
      if s.Sharded_pool.wall_s > 0.0 then
        float_of_int s.Sharded_pool.delivered_packets /. s.Sharded_pool.wall_s
      else 0.0
    in
    Printf.printf "  %-10s %d domains: shard pps [%s]  efficiency %.0f%%\n%!" ""
      r.domains
      (String.concat " "
         (Array.to_list
            (Array.map (fun s -> Printf.sprintf "%.0fk" (pps_of s /. 1e3))
               r.shards)))
      (100.0 *. r.efficiency)
  end

let best_of ~repeat ~engine ~total_bundles ~domains () =
  let best = ref (run_once ~engine ~total_bundles ~domains ()) in
  for _ = 2 to repeat do
    let r = run_once ~engine ~total_bundles ~domains () in
    if r.pps > !best.pps then best := r
  done;
  !best

(* Ceiling on minor words per delivered packet, relative to the
   committed calendar entry. *)
let max_words_regress = 0.02

let quick_bundles = 10_000
let full_bundles = 25_000

let usage =
  "exp_fleet [--quick] [--bundles N] [--repeat N] [--domains N] [--json \
   FILE] [--check FILE] [--max-regress F] [--engine heap|calendar]"

let () =
  let quick = ref false in
  let bundles = ref None in
  let json_out = ref None in
  let check = ref None in
  let max_regress = ref 0.30 in
  let repeat = ref 3 in
  let domains = ref 1 in
  let engines = ref [ Sim.Heap; Sim.Calendar ] in
  Bench_gate.Flag.(
    parse ~usage
      [
        ("--quick", Unit (fun () -> quick := true));
        ("--bundles", Int (fun n -> bundles := Some n));
        ("--repeat", Int (fun n -> repeat := max 1 n));
        ("--domains", Int (fun n -> domains := Sharded_pool.resolve_domains n));
        ("--json", String (fun file -> json_out := Some file));
        ("--check", String (fun file -> check := Some file));
        ("--max-regress", Float (( := ) max_regress));
        ( "--engine",
          String
            (function
            | "heap" -> engines := [ Sim.Heap ]
            | "calendar" -> engines := [ Sim.Calendar ]
            | v -> Bench_gate.usage_error ~usage ("--engine " ^ v)) );
      ]);
  let domains = !domains in
  let total_bundles =
    match !bundles with
    | Some n -> n
    | None -> if !quick then quick_bundles else full_bundles
  in
  Printf.printf
    "exp_fleet: %d bundles x 4ch SRR markers=4, Poisson churn (%.0f/s, mean \
     life %.2fs), %.0fk pkts/s offered, %d domain%s, best of %d\n\
     %!"
    total_bundles arrival_rate mean_life
    (packet_rate /. 1000.0)
    domains
    (if domains = 1 then "" else "s")
    !repeat;
  let results =
    List.map
      (fun e -> best_of ~repeat:!repeat ~engine:e ~total_bundles ~domains ())
      !engines
  in
  List.iter print_result results;
  (* The committed anchor entries are single-domain; a multi-domain run
     tags its entries with the domain count and is gated purely on
     aggregate equality against the anchor. *)
  let base_tag r = if !quick then quick_tag r.engine else r.engine in
  let entry_tag r =
    let t = base_tag r in
    if r.domains = 1 then t else domain_tag r.domains t
  in
  (match !json_out with
  | None -> ()
  | Some file ->
    (* A full-run export also measures and embeds the quick size, so the
       committed file supports like-for-like [--quick --check] in CI. *)
    let quick_entries =
      if !quick then []
      else
        List.map
          (fun e ->
            let r =
              best_of ~repeat:!repeat ~engine:e ~total_bundles:quick_bundles
                ~domains ()
            in
            fields_of_result
              ~tag:(entry_tag { r with engine = quick_tag r.engine })
              r)
          !engines
    in
    Bench_gate.(
      write file
        ~header:
          [
            ( "scenario",
              Str
                "bundle-pool fleet, 4ch SRR markers=4, poisson churn 2000/s \
                 life 0.5s, 100k pps offered" );
            ("bundles", Int total_bundles);
          ]
        ~array:"engines"
        (List.map (fun r -> fields_of_result ~tag:(entry_tag r) r) results
        @ quick_entries)));
  match !check with
  | None -> ()
  | Some file ->
    let gate = Bench_gate.load ~key:"engine" file in
    List.iter
      (fun r ->
        let anchor = base_tag r in
        (* Wall-clock gate: single-domain only (CI runners may be
           single-core, so a sharded run's pps is not comparable). *)
        if r.domains = 1 then
          Bench_gate.check gate ~tag:anchor ~field:"pps" (Floor !max_regress)
            r.pps;
        (* Allocation gate: the calendar anchors, the engine the
           benchmark runs; +2%, the rule exp_throughput applies. *)
        if r.domains = 1 && r.engine = "calendar" then
          Bench_gate.check gate ~tag:anchor ~field:"minor_words_per_pkt"
            (Ceiling { rel = max_words_regress; abs = 0.0 })
            r.minor_words_per_pkt;
        (* Determinism gate: the protocol aggregates must equal the
           committed single-domain anchor — for every domain count. The
           committed JSON rounds the share errors to 4 decimals. *)
        Bench_gate.check gate ~tag:anchor ~field:"delivered" Exact
          (float_of_int r.delivered);
        Bench_gate.check gate ~tag:anchor ~field:"markers" Exact
          (float_of_int r.markers);
        Bench_gate.check gate ~tag:anchor ~field:"share_p50" (Within 5e-5)
          r.share_p50;
        Bench_gate.check gate ~tag:anchor ~field:"share_p99" (Within 5e-5)
          r.share_p99)
      results;
    Bench_gate.finish gate
