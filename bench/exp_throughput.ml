(* End-to-end simulator throughput benchmark: the perf trajectory gate.

   Reference scenario: 4 channels at 10 Mbps with dissimilar one-way
   delays, SRR striping with markers every 4 rounds, quasi-FIFO logical
   reception through the resequencer, 1M bimodal packets (the paper's
   sending program). Measures *simulated packets per wall-clock second*,
   the allocation rate of the hot path (minor words per packet), the
   simulation events fired per packet ([Sim.events], an exact count) and
   the markers sent ([Striper.markers_sent], exact too). With words and
   markers both pinned, a change in words per packet splits into its
   data-packet part and its marker part.

   Usage:
     dune exec bench/exp_throughput.exe --             # full run, table
     dune exec bench/exp_throughput.exe -- --quick     # 100k packets
     dune exec bench/exp_throughput.exe -- --json FILE # machine output
     dune exec bench/exp_throughput.exe -- --repeat 5  # best of 5 runs
     dune exec bench/exp_throughput.exe -- --check FILE
       # CI gate: exit 1 if minor words/packet move >2% either way from
       # FILE's committed numbers (a drop means a stale anchor:
       # regenerate), or if the event or marker count differs from the
       # committed one. pps is reported, never gated: it measures the
       # machine as much as the code.

   The scenario runs [--repeat] times (default 3) and the fastest run
   is reported: wall-clock noise on a shared machine is one-sided, so
   best-of-N converges on the machine's true throughput while the
   allocation rate (minor words per packet) is identical across runs
   anyway.

   BENCH_throughput.json at the repo root records the trajectory: the
   frozen pre-optimization baseline (boxed binary heap, tuple FIFO
   queues, closure-per-send links, measured at commit 60b89d5) next to
   the calendar-queue simulator's entries, so every future change can
   see where the hot path stands. *)

open Stripe_netsim
open Stripe_core

(* The pre-optimization baseline, measured on this scenario (full size,
   release profile) at commit 60b89d5 before the calendar queue and the
   allocation-lean hot path landed. Frozen here — and echoed into the
   JSON — so the speedup is always reported against the same reference
   point. *)
let baseline_pps = 730780.0
let baseline_minor_words_per_packet = 132.78

(* [--check] band on minor words per packet, either way. Allocation is a
   count, not a timing: it does not move with the machine's load, so it
   can be gated where pps cannot, and a drop below the band fails too,
   so an improvement cannot leave a stale anchor. *)
let words_band = 0.02

type result = {
  n_packets : int;
  delivered : int;
  wall_s : float;
  pps : float;
  minor_words : float;
  minor_words_per_packet : float;
  events : int;
  events_per_pkt : float;
  markers : int;
  sim_seconds : float;
}

let reference_delays = [| 0.001; 0.002; 0.005; 0.010 |]
let reference_rate = 10e6
let reference_seed = 42

let run_once ~n_packets () =
  let sim = Sim.create () in
  let rng = Rng.create reference_seed in
  let n = Array.length reference_delays in
  let rates = Array.make n reference_rate in
  let srr = Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 () in
  let delivered = ref 0 in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" srr)
      ~channels:(Array.mapi (fun i r -> (r, reference_delays.(i))) rates)
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~rng
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  let aggregate = Array.fold_left ( +. ) 0.0 rates in
  let interval = 700.0 *. 8.0 /. (aggregate *. 0.9) in
  ignore (Bundle.pace b ~every:interval ~count:n_packets gen);
  (* Compact so each run starts from the same flat major heap rather
     than inheriting the previous run's fragmentation. *)
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run sim;
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  if !delivered <> n_packets then
    failwith
      (Printf.sprintf "exp_throughput: delivered %d of %d packets" !delivered
         n_packets);
  {
    n_packets;
    delivered = !delivered;
    wall_s;
    pps = float_of_int !delivered /. wall_s;
    minor_words;
    minor_words_per_packet = minor_words /. float_of_int n_packets;
    events = Sim.events sim;
    events_per_pkt = float_of_int (Sim.events sim) /. float_of_int n_packets;
    markers = Striper.markers_sent (Bundle.striper b);
    sim_seconds = Sim.now sim;
  }

(* Every count and the words per packet depend on the run size, so the
   committed file carries both sizes and [--check] compares
   like-for-like: a [--quick] check reads the ["calendar-quick"]
   entry. *)
let full_tag = "calendar"
let quick_tag = "calendar-quick"

let fields_of_result ~tag r =
  Bench_gate.
    [
      ("engine", Str tag);
      ("n_packets", Int r.n_packets);
      ("delivered", Int r.delivered);
      ("wall_s", Num (4, r.wall_s));
      ("pps", Num (1, r.pps));
      ("minor_words", Num (0, r.minor_words));
      ("minor_words_per_packet", Num (2, r.minor_words_per_packet));
      ("events", Int r.events);
      ("events_per_pkt", Num (4, r.events_per_pkt));
      ("markers", Int r.markers);
      ("sim_seconds", Num (4, r.sim_seconds));
    ]

let print_result ~tag r =
  Printf.printf
    "  %-14s %9d pkts  %7.3f s wall  %10.0f pkts/s  %8.2f minor words/pkt  \
     %.4f events_per_pkt\n\
     %!"
    tag r.n_packets r.wall_s r.pps r.minor_words_per_packet
    r.events_per_pkt

let best_of ~repeat ~n_packets () =
  Bench_gate.best_of ~repeat ~by:(fun r -> r.pps) (run_once ~n_packets)

let usage = "exp_throughput [--quick] [--repeat N] [--json FILE] [--check FILE]"

let () =
  let quick = ref false in
  let json_out = ref None in
  let check = ref None in
  let repeat = ref 3 in
  Bench_gate.Flag.(
    parse ~usage
      [
        ("--quick", Unit (fun () -> quick := true));
        ("--repeat", Int (fun n -> repeat := max 1 n));
        ("--json", String (fun file -> json_out := Some file));
        ("--check", String (fun file -> check := Some file));
      ]);
  let n_packets = if !quick then 100_000 else 1_000_000 in
  Printf.printf
    "exp_throughput: 4 channels x %.0f Mbps, SRR + markers(4) + resequencer, \
     %d packets, best of %d\n%!"
    (reference_rate /. 1e6) n_packets !repeat;
  let r = best_of ~repeat:!repeat ~n_packets () in
  let tag = if !quick then quick_tag else full_tag in
  print_result ~tag r;
  Printf.printf "  %-14s vs baseline: %.2fx pps, %.2fx fewer minor words/pkt\n"
    tag (r.pps /. baseline_pps)
    (baseline_minor_words_per_packet /. r.minor_words_per_packet);
  (match !json_out with
  | None -> ()
  | Some file ->
    (* A full-run export also measures and embeds the quick size, so a
       committed file supports like-for-like [--quick --check] in CI. *)
    let quick_entries =
      if !quick then []
      else
        [
          fields_of_result ~tag:quick_tag
            (best_of ~repeat:!repeat ~n_packets:100_000 ());
        ]
    in
    Bench_gate.(
      write file ~key:"engine"
        ~header:
          [
            ("scenario", Str "4ch 10Mbps SRR markers=4 resequencer bimodal");
            ( "baseline",
              Obj
                [
                  ("engine", Str "boxed-heap@60b89d5");
                  ("pps", Num (1, baseline_pps));
                  ( "minor_words_per_packet",
                    Num (2, baseline_minor_words_per_packet) );
                ] );
          ]
        ~array:"engines"
        (fields_of_result ~tag r :: quick_entries)));
  match !check with
  | None -> ()
  | Some file ->
    let gate = Bench_gate.load ~key:"engine" file in
    Bench_gate.check gate ~tag ~field:"minor_words_per_packet"
      (Band words_band) r.minor_words_per_packet;
    (* Events per packet, held through its exact numerator (every packet
       is delivered, so the denominator is fixed). *)
    Bench_gate.check gate ~tag ~field:"events" Exact (float_of_int r.events);
    Bench_gate.check gate ~tag ~field:"markers" Exact (float_of_int r.markers);
    Bench_gate.finish gate
