(* Quasi-FIFO and marker recovery (§5): stripe through a loss burst and
   watch delivery go out of order, then snap back to FIFO one marker
   interval after the burst ends.

   Run with: dune exec examples/lossy_resync.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let () =
  let sim = Sim.create () in
  let lossy = ref false in
  let loss_rng = Rng.create 99 in
  let recovery = Stripe_metrics.Recovery.create () in

  let bundle =
    Bundle.create sim
      ~scheduler:
        (Scheduler.of_deficit ~name:"SRR" (Srr.create ~quanta:[| 1500; 1500 |] ()))
      ~channels:[| (10e6, 0.005); (10e6, 0.005) |]
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~drop:(fun ~channel:_ pkt ->
        !lossy && (not (Packet.is_marker pkt)) && Rng.bernoulli loss_rng ~p:0.4)
      ~deliver:(fun pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq)
      ()
  in

  (* Paced mixed-size stream for 3 s; 40% loss between t=1s and t=2s. *)
  let rng = Rng.create 4 in
  ignore
    (Bundle.pace bundle ~every:0.0008 ~until:3.0 (fun () ->
         if Rng.bool rng then 200 else 1000));
  Sim.schedule sim ~at:1.0 (fun () -> lossy := true);
  Sim.schedule sim ~at:2.0 (fun () -> lossy := false);
  Sim.run sim;

  Printf.printf "3 s stream, 40%% loss burst during [1 s, 2 s], markers every 4 rounds\n";
  Printf.printf "  delivered: %d  out-of-order deliveries: %d (all during the burst)\n"
    (Stripe_metrics.Recovery.deliveries recovery)
    (Stripe_metrics.Recovery.out_of_order recovery);
  Printf.printf "  channel visits skipped by the marker rule: %d\n"
    (Resequencer.skips (Bundle.resequencer bundle));
  (match Stripe_metrics.Recovery.resync_time recovery ~errors_stop:2.0 with
  | Some dt ->
    Printf.printf "  FIFO delivery restored %.1f ms after the burst ended\n"
      (1000.0 *. dt)
  | None -> Printf.printf "  stream never recovered (unexpected)\n");
  Printf.printf "  in order after recovery: %b\n"
    (Stripe_metrics.Recovery.in_order_after recovery ~time:2.05)
