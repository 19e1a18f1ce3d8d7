(* §6.3's application study: an NV-style video-conference trace striped
   over two lossy UDP channels with quasi-FIFO delivery, judged by a
   playout-buffer quality model. Reordering that stays inside the playout
   window is invisible; loss is what hurts.

   Run with: dune exec examples/video_striping.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
open Stripe_workload

let () =
  let rng = Rng.create 11 in
  let trace = Video.generate ~rng ~fps:10.0 ~n_frames:200 () in
  Printf.printf "NV-style trace: %d frames, %d packets, %.0f s at %g fps\n"
    (Array.length trace.Video.frames)
    (Video.n_packets trace) (Video.duration trace) trace.Video.fps;

  let run ~loss_p =
    let sim = Sim.create () in
    let loss_rng = Rng.create 5 in
    let playback = Playback.create ~trace ~playout_delay:0.4 () in
    let log = Stripe_metrics.Recovery.create () in
    let bundle =
      Bundle.create sim
        ~scheduler:
          (Scheduler.of_deficit ~name:"SRR" (Srr.create ~quanta:[| 1500; 1500 |] ()))
        ~channels:(Array.init 2 (fun i -> (2e6, 0.01 +. (0.02 *. float_of_int i))))
        ~wire:Plain ~receiver:Logical
        ~marker:(Marker.make ~every_rounds:4 ())
        ~drop:(fun ~channel:_ pkt ->
          (not (Packet.is_marker pkt)) && Rng.bernoulli loss_rng ~p:loss_p)
        ~deliver:(fun pkt ->
          Stripe_metrics.Recovery.observe log ~now:(Sim.now sim)
            ~seq:pkt.Packet.seq;
          Playback.packet_arrived playback ~frame:(Packet.frame pkt)
            ~now:(Sim.now sim))
        ()
    in
    let striper = Bundle.striper bundle in
    List.iter
      (fun (t, pkt) -> Sim.schedule sim ~at:t (fun () -> Striper.push striper pkt))
      (Video.packets trace);
    Sim.run sim;
    (Playback.finalize playback, Stripe_metrics.Recovery.out_of_order log)
  in

  List.iter
    (fun loss_p ->
      let report, ooo = run ~loss_p in
      Printf.printf
        "loss %2.0f%%: %3d reordered packets, %3d frames glitched, %3d badly \
         degraded (%.0f%%)\n"
        (100.0 *. loss_p) ooo report.Playback.glitched_frames
        report.Playback.degraded_frames
        (100.0 *. report.Playback.degraded_rate))
    [ 0.0; 0.1; 0.2; 0.4; 0.6 ];
  print_endline
    "Reordering from quasi-FIFO delivery never shows; degradation tracks loss."
