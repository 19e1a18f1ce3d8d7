(* Latency ablation: what logical reception costs in delay. The §4
   blocking discipline holds fast-channel packets until the slow
   channel's turn passes, so per-packet latency inherits the skew the
   buffers absorb; without resequencing latency is minimal but order is
   lost. Reported as distribution percentiles against the channel skew. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

type mode =
  | Logical_reception
  | No_resequencing

let run_one ~mode ~skew =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let lat = Stripe_metrics.Summary.create ~keep_samples:true () in
  let log = Stripe_metrics.Recovery.create () in
  let observe pkt =
    Stripe_metrics.Summary.add lat (Sim.now sim -. pkt.Packet.born);
    Stripe_metrics.Recovery.observe log ~now:(Sim.now sim) ~seq:pkt.Packet.seq
  in
  let engine = Srr.create ~quanta:[| 1400; 1400 |] () in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~channels:[| (10e6, 0.002); (10e6, 0.002 +. skew) |]
      ~wire:Plain
      ~receiver:
        (match mode with
        | Logical_reception -> Logical
        | No_resequencing -> Unordered)
      ?marker:
        (match mode with
        | Logical_reception -> Some (Marker.make ~every_rounds:8 ())
        | No_resequencing -> None)
      ~deliver:observe ()
  in
  ignore
    (Bundle.pace b ~every:0.0006 ~count:4000 (fun () ->
         if Rng.bool rng then 200 else 1000));
  Sim.run sim;
  (lat, Stripe_metrics.Recovery.out_of_order log)

let run () =
  Exp_common.section
    "Latency ablation - the delay cost of logical reception vs channel skew";
  let tbl =
    Stripe_metrics.Table.create
      ~title:
        "Per-packet latency (ms) over two 10 Mbps channels, channel 2 slower \
         by the skew"
      ~columns:
        [
          "skew (ms)"; "mode"; "p50"; "p95"; "p99"; "max"; "out-of-order";
        ]
  in
  List.iter
    (fun skew ->
      List.iter
        (fun (label, mode) ->
          let lat, ooo = run_one ~mode ~skew in
          let ms p = Printf.sprintf "%.2f" (1000.0 *. Stripe_metrics.Summary.percentile lat p) in
          Stripe_metrics.Table.add_row tbl
            [
              Printf.sprintf "%.0f" (1000.0 *. skew);
              label;
              ms 50.0;
              ms 95.0;
              ms 99.0;
              Printf.sprintf "%.2f" (1000.0 *. Stripe_metrics.Summary.max_value lat);
              string_of_int ooo;
            ])
        [ ("logical reception", Logical_reception); ("none", No_resequencing) ])
    [ 0.0; 0.005; 0.020; 0.050 ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Logical reception pins every packet's latency to the slower channel's";
  print_endline
    "(the price of order without headers); without resequencing fast-channel";
  print_endline
    "packets arrive early but half the stream is misordered. Applications";
  print_endline
    "that need order anyway (TCP, MPEG - Section 7) pay the skew either way,";
  print_endline "in the striping layer or in their own reassembly buffers.\n"
