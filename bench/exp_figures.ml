(* Regenerates the paper's worked examples: the fair-queuing /
   load-sharing duality of Figures 2-3, the SRR traces with deficit
   counters of Figures 5-6, and the marker-recovery walkthrough of
   Figures 8-13. *)

open Stripe_core
open Stripe_packet

let paper_packets =
  [ (550, "a"); (200, "d"); (400, "e"); (150, "b"); (300, "c"); (400, "f") ]

let run_fig2_3 () =
  Exp_common.section
    "Figures 2 & 3 - fair queuing vs load sharing duality (quantum 500)";
  let srr = Scheduler.srr ~quanta:[| 500; 500 |] () in
  let dispatch = Scheduler.load_share srr paper_packets in
  Printf.printf "Load sharing (Fig 3): input a d e b c f ->\n";
  List.iter
    (fun (ch, (size, id)) ->
      Printf.printf "  packet %s (%4d B) -> channel %d\n" id size (ch + 1))
    dispatch;
  let queues = Scheduler.outputs_by_channel ~n:2 dispatch in
  Printf.printf "Fair queuing (Fig 2): serving those channel queues back:\n  ";
  (match Scheduler.fair_queue srr queues with
  | Some order ->
    List.iter (fun (_, (_, id)) -> Printf.printf "%s " id) order;
    print_newline ();
    let restored = List.map snd order = paper_packets in
    Printf.printf "Round-trip reproduces the input stream: %b\n" restored
  | None -> print_endline "  (left backlogged regime - unexpected)");
  print_newline ()

let run_fig5_6 () =
  Exp_common.section
    "Figures 5 & 6 - SRR deficit counter trace (two channels, quantum 500)";
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  Deficit.set_hook d
    (Some
       (function
       | Deficit.Begin_visit { channel; round; dc } ->
         Printf.printf "  round %d: visit channel %d, DC+quantum = %d\n"
           (round + 1) (channel + 1) dc
       | Deficit.Consume { channel; round = _; dc_before; dc_after } ->
         Printf.printf "    send on channel %d: DC %d -> %d\n" (channel + 1)
           dc_before dc_after
       | Deficit.End_visit { channel; round; dc } ->
         Printf.printf "  round %d: leave channel %d with DC = %d\n" (round + 1)
           (channel + 1) dc
       | Deficit.New_round { round } ->
         Printf.printf "  --- start of round %d ---\n" (round + 1)
       | Deficit.Retune _ -> ()));
  List.iter
    (fun (size, id) ->
      let c = Deficit.select d in
      Printf.printf "  packet %s (%d B) assigned to channel %d\n" id size (c + 1);
      Deficit.consume d ~size)
    paper_packets;
  Deficit.set_hook d None;
  print_newline ()

let run_fig8_13 () =
  Exp_common.section
    "Figures 8-13 - marker recovery walkthrough (packet 7 lost on channel 1)";
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := (p.Packet.seq + 1) :: !delivered)
      ()
  in
  let wire = Queue.create () in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~position:Marker.Round_end ~every_rounds:6 ())
      ~emit:(fun ~channel pkt -> Queue.add (channel, pkt) wire)
      ()
  in
  for seq = 0 to 17 do
    Striper.push striper (Packet.data ~seq ~size:100 ())
  done;
  Queue.iter
    (fun (channel, pkt) ->
      match pkt.Packet.kind with
      | Packet.Marker m ->
        Printf.printf "  marker on channel %d carrying G=%d\n" (channel + 1)
          (m.m_round + 1);
        Resequencer.receive reseq ~channel pkt
      | Data when pkt.Packet.seq = 6 ->
        Printf.printf "  packet 7 LOST on channel %d\n" (channel + 1)
      | Data -> Resequencer.receive reseq ~channel pkt)
    wire;
  Printf.printf "Delivery order (paper: 1-6, 9, 8, 11, 10, 12, 13-18):\n  ";
  List.iter (Printf.printf "%d ") (List.rev !delivered);
  print_newline ();
  Printf.printf "Channel visits skipped by the marker rule: %d\n"
    (Resequencer.skips reseq);
  Printf.printf
    "FIFO restored from packet 13 on (one marker interval after the loss)\n\n"

let run () =
  run_fig2_3 ();
  run_fig5_6 ();
  run_fig8_13 ()
