(* Striping-discipline comparison matrix: the same 3 x 10 Mbps bundle
   (skewed one-way delays 8/1/4 ms) under the same bursty source, run
   once per discipline per scenario:

   disciplines   SRR, RR, GRR (CFQ engines, quasi-FIFO machinery),
                 Sprinklers (randomized variable-size stripes: SRR
                 quanta scaled to burst granularity + seeded per-round
                 permuted visit order — still causal, still replayed),
                 RFQ (seeded random draw per packet — causal but
                 engine-less), Load-aware (min completion time by
                 transmit-queue debt over rate — non-causal). The
                 engine-less disciplines deliver in arrival order.
   scenarios     clean | impair (channel 1 reorders/duplicates/corrupts
                 behind a channel guard until 1.2 s) | failover
                 (channel 2 carrier drops at 0.5 s, heals at 1.1 s,
                 suspend/resume + §5 barrier through the striper) |
                 health (Gilbert-Elliott gray loss on channel 1 from
                 0.5 s to 1.2 s under the §13 health engine:
                 quarantine on evidence, timed reinstatement).

   The source is deliberately bursty — trains of 6 consecutive 1000 B
   packets every 12 ms, each train exactly one Sprinklers stripe —
   because burst locality is exactly what variable-size stripes buy:
   SRR's packet-grain rotation sprays each train across all three
   (delay-skewed) channels, so trains arrive interleaved; Sprinklers
   parks a whole train on one wire, trading a wider fairness bound for
   burst-local FIFO arrivals. The gaps matter too: at saturation every
   discipline is backlogged and depth degenerates to bytes-in-flight
   (which larger stripes make {e worse}); with idle gaps between
   trains the depth reading isolates placement. The [depth] columns
   quantify it: max/p99 over arrivals of how far each packet's sequence
   trails the highest sequence already arrived (what
   [Resequencer.reorder_depth_max] measures, read here from a second
   delivery log fed at the wire exit, so engine-less disciplines are
   comparable).

   Reported per cell: the discipline's analytic fairness bound (bytes;
   n/a for the engine-less disciplines), goodput, arrival reorder depth
   (max and p99), delivered-order inversions, and post-fault resync
   time. Everything runs in virtual time on seeded randomness, so the
   matrix is deterministic: test/baselines.t holds the committed
   BENCH_disciplines.json byte for byte. Every run also holds the
   Sprinklers acceptance bar and exits 1 if it fails: strictly lower
   clean-scenario arrival reorder depth than SRR at equal (±2%)
   goodput.

     dune exec bench/exp_disciplines.exe --                  # table
     dune exec bench/exp_disciplines.exe -- --json FILE      # baseline *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let rates = [| 10e6; 10e6; 10e6 |]
let delays = [| 0.008; 0.001; 0.004 |]
let errors_stop = 1.2
let fail_at = 0.5
let heal_at = 1.1
let gray_at = 0.5
let run_until = 1.6
let drain_until = 2.0
let guard_window = 48
let seed = 0x5eed

(* Every discipline but random selection: it is non-causal, and RFQ
   already represents the seeded-draw family in the matrix. *)
let disciplines =
  List.filter (fun (_, d) -> d <> Scheduler.Random) Scheduler.disciplines

type scenario = Clean | Impair_s | Failover | Health_s

let scenarios =
  [
    ("clean", Clean); ("impair", Impair_s); ("failover", Failover);
    ("health", Health_s);
  ]

type result = {
  slug : string;  (* "<discipline>_<scenario>" *)
  disc_label : string;
  scen_label : string;
  fairness : int;  (* analytic bound, bytes; -1 = not bounded *)
  delivered : int;
  goodput_mbps : float;
  depth_max : int;
  depth_p99 : int;
  inversions : int;  (* delivered-order inversions *)
  resync_ms : float;  (* negative = FIFO never restored / not applicable *)
}

let run_cell (disc_slug, disc) (scen_slug, scen) =
  let sim = Sim.create () in
  let master = Rng.create 4242 in
  let recovery = Stripe_metrics.Recovery.create () in
  let arrivals = Stripe_metrics.Recovery.create () in
  (* Goodput over the offered window [0, run_until]: the backlog drained
     up to [drain_until] is not counted. *)
  let goodput =
    Stripe_metrics.Throughput.create
      ~capacity_bps:(Array.fold_left ( +. ) 0.0 rates) ()
  in
  Stripe_metrics.Throughput.start_at goodput 0.0;
  Stripe_metrics.Throughput.stop_at goodput run_until;
  let la_debt = ref (fun (_ : int) -> 0.0) in
  let scheduler =
    Scheduler.of_discipline disc ~rates_bps:rates ~seed
      ~debt:(fun c -> !la_debt c)
  in
  let engine_opt = Scheduler.deficit scheduler in
  let deliver (pkt : Packet.t) =
    Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
      ~seq:pkt.Packet.seq;
    Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim)
      ~bytes:pkt.Packet.size
  in
  let corrupt_rng = Rng.split master in
  let impairment =
    Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ~dup_p:0.05
      ~corrupt_p:0.02 ()
  in
  let cell (type w) (wire : w Bundle.wire) =
    let b =
      Bundle.create sim ~scheduler
        ~channels:(Array.mapi (fun i r -> (r, delays.(i))) rates)
        ~wire
        ~receiver:(if engine_opt = None then Unordered else Logical)
        ?marker:(Option.map (fun _ -> Marker.make ~every_rounds:4 ()) engine_opt)
        ~rng:master
        ~impair:(fun i ->
          if scen = Impair_s && i = 1 then impairment else Impair.none)
        ~corrupt_rng
          (* The arrival log sees every data arrival first (a uniform
             measurement point), then the guard (impair scenario only),
             then the resequencer or arrival-order delivery. *)
        ~drop:(fun ~channel:_ pkt ->
          if not (Packet.is_marker pkt) then
            Stripe_metrics.Recovery.observe arrivals ~now:(Sim.now sim)
              ~seq:pkt.Packet.seq;
          false)
        ~watchdog:{ Resequencer.intervals = 3; fallback = 0.02 }
        ~deliver ()
    in
    let links = Bundle.links b and striper = Bundle.striper b in
    la_debt := (fun c -> float_of_int (Link.queue_bytes links.(c)));
    (* Scenario events. *)
    (match scen with
    | Clean -> ()
    | Impair_s ->
      Sim.schedule sim ~at:errors_stop (fun () ->
          Array.iter (fun l -> Link.set_impairments l Impair.none) links)
    | Failover ->
      Sim.schedule sim ~at:fail_at (fun () ->
          Link.set_up links.(2) false;
          Striper.suspend_channel striper 2);
      Sim.schedule sim ~at:heal_at (fun () ->
          Link.set_up links.(2) true;
          Striper.resume_channel striper 2)
    | Health_s ->
      let gray =
        Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
          ~loss_bad:0.9
      in
      Sim.schedule sim ~at:gray_at (fun () -> Link.set_loss links.(1) gray);
      Sim.schedule sim ~at:errors_stop (fun () ->
          Link.set_loss links.(1) (Loss.none ()));
      let h =
        Health.create
          ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
          ~n ()
      in
      let last_sent = Array.make n 0 in
      let last_lost = Array.make n 0 in
      let rec tick () =
        for c = 0 to n - 1 do
          let ds = Link.sent_packets links.(c) - last_sent.(c) in
          let dl = Link.lost_packets links.(c) - last_lost.(c) in
          last_sent.(c) <- Link.sent_packets links.(c);
          last_lost.(c) <- Link.lost_packets links.(c);
          if ds > 0 || dl > 0 then
            Health.observe h ~channel:c ~sent:ds ~lost:dl ~goodput_ratio:1.0 ()
        done;
        List.iter
          (function
            | Health.To_quarantine { channel; _ } ->
              Striper.suspend_channel striper channel
            | Health.To_probation { channel; from_quarantine = true } ->
              Striper.resume_channel striper channel
            | Health.To_suspect _ | Health.To_probation _
            | Health.To_healthy _ -> ())
          (Health.sample h ~now:(Sim.now sim));
        if Sim.now sim < run_until then Sim.schedule_after sim ~delay:0.05 tick
      in
      Sim.schedule sim ~at:0.05 tick);
    (* Bursty source: a train of 6 consecutive 1000 B packets every 12
       ms — long enough for each train to serialize and propagate
       before the next, so what the arrival log sees is pure placement,
       not queueing. One train is exactly one Sprinklers stripe (6000
       B); burst locality is the whole experiment — see the header
       comment. *)
    ignore
      (Bundle.pace b ~burst:6 ~every:0.012 ~until:run_until (fun () -> 1000));
    Sim.schedule sim ~at:drain_until (fun () ->
        Option.iter Channel_guard.flush (Bundle.guard b));
    Sim.run sim
  in
  (match scen with
  | Impair_s -> cell (Bundle.Guarded guard_window)
  | Clean | Failover | Health_s -> cell Bundle.Plain);
  let delivered = Stripe_metrics.Recovery.deliveries recovery in
  let resync_ms =
    match engine_opt with
    | None -> -1.0  (* arrival order: FIFO is never the contract *)
    | Some _ -> (
      match
        Stripe_metrics.Recovery.resync_time recovery ~errors_stop
      with
      | Some dt -> 1000.0 *. dt
      | None -> -1.0)
  in
  {
    slug = disc_slug ^ "_" ^ scen_slug;
    disc_label = disc_slug;
    scen_label = scen_slug;
    fairness =
      (match engine_opt with
      | Some e -> Srr.fairness_bound e
      | None -> -1);
    delivered;
    goodput_mbps = Stripe_metrics.Throughput.mbps goodput;
    depth_max = Stripe_metrics.Recovery.max_displacement arrivals;
    depth_p99 = Stripe_metrics.Recovery.displacement_percentile arrivals ~p:0.99;
    inversions = Stripe_metrics.Recovery.out_of_order recovery;
    resync_ms;
  }

let fmt_ms v = if v < 0.0 then "n/a" else Printf.sprintf "%.1f" v
let fmt_bound v = if v < 0 then "n/a" else Printf.sprintf "%dB" v

let print_table results =
  let tbl =
    Stripe_metrics.Table.create ~title:"Striping disciplines"
      ~columns:
        [
          "discipline"; "scenario"; "fair bound"; "delivered"; "goodput";
          "depth max"; "depth p99"; "inversions"; "resync (ms)";
        ]
  in
  List.iter
    (fun r ->
      Stripe_metrics.Table.add_row tbl
        [
          r.disc_label;
          r.scen_label;
          fmt_bound r.fairness;
          string_of_int r.delivered;
          Printf.sprintf "%.2f Mbps" r.goodput_mbps;
          string_of_int r.depth_max;
          string_of_int r.depth_p99;
          string_of_int r.inversions;
          fmt_ms r.resync_ms;
        ])
    results;
  Stripe_metrics.Table.print tbl;
  print_endline
    "Engine disciplines (srr/rr/grr/sprinklers) resequence: inversions stay 0";
  print_endline
    "and FIFO returns within about a marker interval of each fault horizon.";
  print_endline
    "Sprinklers trades a stripe_scale-wider fairness bound for burst-local";
  print_endline
    "FIFO arrivals: on the bursty source its arrival reorder depth sits well";
  print_endline
    "under SRR's at the same goodput, which shrinks the resequencing buffer";
  print_endline
    "the receiver must hold. The engine-less disciplines (rfq/load-aware)";
  print_endline
    "deliver in arrival order: load-aware's queue-debt selector keeps the";
  print_endline
    "wire busy (goodput) but surrenders ordering entirely - the depth and";
  print_endline "inversion columns price that trade.\n"

let fields_of_result r =
  Bench_gate.
    [
      ("config", Str r.slug);
      ("fairness", Int r.fairness);
      ("delivered", Int r.delivered);
      ("goodput_mbps", Num (4, r.goodput_mbps));
      ("depth_max", Int r.depth_max);
      ("depth_p99", Int r.depth_p99);
      ("inversions", Int r.inversions);
      ("resync_ms", Num (3, r.resync_ms));
    ]

(* The Sprinklers acceptance bar, enforced on every run: on the bursty
   clean scenario it must beat SRR's arrival reorder depth strictly, at
   equal (±2%) goodput. *)
let acceptance results =
  let get slug = List.find (fun r -> r.slug = slug) results in
  let srr = get "srr_clean" and spr = get "sprinklers_clean" in
  let ok_depth = spr.depth_max < srr.depth_max in
  let ok_goodput =
    Float.abs (spr.goodput_mbps -. srr.goodput_mbps)
    <= 0.02 *. srr.goodput_mbps
  in
  Printf.printf
    "acceptance: sprinklers depth %d %s srr depth %d at %.2f vs %.2f Mbps \
     (%s)\n"
    spr.depth_max
    (if ok_depth then "<" else ">=")
    srr.depth_max spr.goodput_mbps srr.goodput_mbps
    (if ok_depth && ok_goodput then "ok" else "FAIL");
  ok_depth && ok_goodput

let usage = "exp_disciplines [--json FILE]"

let () =
  let json_out = ref None in
  Bench_gate.Flag.(
    parse ~usage [ ("--json", String (fun file -> json_out := Some file)) ]);
  print_endline
    "Striping disciplines - 3 x 10 Mbps, delays 8/1/4 ms, bursty source (6 x \
     1000 B trains every 12 ms), scenarios clean/impair/failover/health";
  let results =
    List.concat_map
      (fun d -> List.map (fun s -> run_cell d s) scenarios)
      disciplines
  in
  print_table results;
  Bench_gate.require (acceptance results)
    "sprinklers misses the acceptance bar against srr";
  match !json_out with
  | None -> ()
  | Some file ->
    Bench_gate.(
      write file ~key:"config"
        ~header:
          [
            ( "scenario",
              Str
                "disciplines: 3x10Mbps delays 8/1/4ms, bursty 6x1000B trains \
                 every 12ms, scenarios clean/impair/failover/health" );
          ]
        ~array:"configs"
        (List.map fields_of_result results))
