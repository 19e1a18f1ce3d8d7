(* §6.3 synchronization-recovery experiments:
   E1 - markers restore FIFO after loss stops, for loss rates up to 80%;
        measures recovery latency in simulated time.
   E2 - out-of-order deliveries vs marker frequency at a fixed loss rate.
   E3 - out-of-order deliveries vs marker position within the round. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

type rig = {
  sim : Sim.t;
  bundle : Packet.t Bundle.t;
  recovery : Stripe_metrics.Recovery.t;
  lossy : bool ref;
}

let make_rig ?(n = 2) ?(lose_markers = false) ~loss_p ~marker () =
  let sim = Sim.create () in
  let lossy = ref true in
  let loss_rng = Rng.create 1234 in
  let recovery = Stripe_metrics.Recovery.create () in
  let bundle =
    Bundle.create sim
      ~scheduler:
        (Scheduler.of_deficit ~name:"SRR"
           (Srr.create ~quanta:(Array.make n 1500) ()))
      ~channels:
        (Array.init n (fun i -> (10e6, 0.004 +. (0.002 *. float_of_int i))))
      ~wire:Plain ~receiver:Logical ~marker
        (* Controlled loss while the lossy phase lasts. Recovery only
           needs some marker to get through after errors stop, which the
           periodic emission guarantees, so markers may share the data
           packets' fate. *)
      ~drop:(fun ~channel:_ pkt ->
        !lossy
        && (lose_markers || not (Packet.is_marker pkt))
        && Rng.bernoulli loss_rng ~p:loss_p)
      ~deliver:(fun pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq)
      ()
  in
  { sim; bundle; recovery; lossy }

(* Paced source: bimodal mix at ~80% of aggregate capacity. *)
let drive rig ~until =
  ignore
    (Bundle.pace rig.bundle ~burst:2 ~every:0.0006 ~until
       (Stripe_workload.Genpkt.bimodal ~rng:(Rng.create 77)
          ~small:Sizes.small_packet ~large:Sizes.large_packet ()))

let run_e1 () =
  Exp_common.section
    "E1 - recovery of FIFO delivery after loss stops (marker every 4 rounds)";
  let tbl =
    Stripe_metrics.Table.create ~title:"Loss sweep (loss applies to markers too)"
      ~columns:
        [
          "loss rate"; "delivered"; "ooo during loss"; "resync time (ms)";
          "FIFO after recovery";
        ]
  in
  List.iter
    (fun loss_p ->
      let rig =
        make_rig ~lose_markers:true ~loss_p
          ~marker:(Marker.make ~every_rounds:4 ())
          ()
      in
      let errors_stop = 2.0 in
      drive rig ~until:4.0;
      (* Losses stop mid-run. *)
      Sim.schedule rig.sim ~at:errors_stop (fun () -> rig.lossy := false);
      Sim.run rig.sim;
      let resync =
        Stripe_metrics.Recovery.resync_time rig.recovery ~errors_stop
      in
      let fifo_after =
        match resync with
        | Some dt ->
          Stripe_metrics.Recovery.in_order_after rig.recovery
            ~time:(errors_stop +. dt)
        | None -> false
      in
      Stripe_metrics.Table.add_row tbl
        [
          Printf.sprintf "%.0f%%" (100.0 *. loss_p);
          string_of_int (Stripe_metrics.Recovery.deliveries rig.recovery);
          string_of_int (Stripe_metrics.Recovery.out_of_order rig.recovery);
          (match resync with
          | Some dt -> Printf.sprintf "%.1f" (1000.0 *. dt)
          | None -> "never");
          string_of_bool fifo_after;
        ])
    [ 0.1; 0.2; 0.4; 0.6; 0.8 ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Paper: for loss up to 80%, marker resynchronization restored FIFO once";
  print_endline
    "losses stopped, within about a marker interval + one-way delay.\n"

let run_e2 () =
  Exp_common.section
    "E2 - out-of-order deliveries vs marker frequency (20% continuous loss)";
  let tbl =
    Stripe_metrics.Table.create ~title:"Marker frequency sweep"
      ~columns:[ "markers every N rounds"; "delivered"; "out-of-order"; "ooo rate" ]
  in
  List.iter
    (fun every_rounds ->
      let rig =
        make_rig ~loss_p:0.2 ~marker:(Marker.make ~every_rounds ()) ()
      in
      drive rig ~until:4.0;
      Sim.run rig.sim;
      let n = Stripe_metrics.Recovery.deliveries rig.recovery in
      let ooo = Stripe_metrics.Recovery.out_of_order rig.recovery in
      Stripe_metrics.Table.add_row tbl
        [
          string_of_int every_rounds;
          string_of_int n;
          string_of_int ooo;
          Printf.sprintf "%.2f%%" (100.0 *. float_of_int ooo /. float_of_int (max 1 n));
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Paper: increasing marker frequency decreases out-of-order deliveries.\n"

let run_e3 () =
  Exp_common.section
    "E3 - out-of-order deliveries vs marker position in the round (20% loss, every 4 rounds)";
  let tbl =
    Stripe_metrics.Table.create ~title:"Marker position sweep"
      ~columns:[ "position"; "delivered"; "out-of-order"; "ooo rate" ]
  in
  List.iter
    (fun (label, position) ->
      let rig =
        make_rig ~n:4 ~loss_p:0.2
          ~marker:(Marker.make ~position ~every_rounds:4 ())
          ()
      in
      drive rig ~until:4.0;
      Sim.run rig.sim;
      let n = Stripe_metrics.Recovery.deliveries rig.recovery in
      let ooo = Stripe_metrics.Recovery.out_of_order rig.recovery in
      Stripe_metrics.Table.add_row tbl
        [
          label;
          string_of_int n;
          string_of_int ooo;
          Printf.sprintf "%.2f%%" (100.0 *. float_of_int ooo /. float_of_int (max 1 n));
        ])
    [
      ("round start", Marker.Round_start);
      ("mid round", Marker.Mid_round);
      ("round end", Marker.Round_end);
    ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Paper: fewest out-of-order deliveries with markers at the beginning or";
  print_endline
    "end of a round; the paper recommends the end. In this implementation";
  print_endline
    "every marker carries the exact per-channel (round, DC) stamp of §5, so";
  print_endline
    "its position within the round affects only how fresh the information is";
  print_endline
    "- the three positions measure within noise of each other, a slightly";
  print_endline
    "stronger robustness property than the position sensitivity the paper's";
  print_endline "round-number-based prototype observed (see EXPERIMENTS.md).\n"

let run () =
  run_e1 ();
  run_e2 ();
  run_e3 ()
