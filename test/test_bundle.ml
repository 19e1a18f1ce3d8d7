(* Tests for the single-bundle builder: the receiver it pairs with the
   sender, the guard's tagged wire, the receive-edge drop hook, the
   paced source's stop conditions, and the configurations it refuses. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let srr n = Scheduler.of_deficit ~name:"SRR" (Srr.create ~quanta:(Array.make n 1500) ())

let skewed = [| (10e6, 0.001); (4e6, 0.020); (8e6, 0.007) |]

let delivered_seqs () =
  let log = ref [] in
  ((fun pkt -> log := pkt.Packet.seq :: !log), fun () -> List.rev !log)

(* Logical reception over skewed links delivers the paced source's
   packets in order (Thm 4.1), and the source stops at its count. *)
let test_logical_fifo () =
  let sim = Sim.create () in
  let deliver, seqs = delivered_seqs () in
  let b =
    Bundle.create sim ~scheduler:(srr 3) ~channels:skewed ~wire:Plain
      ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~deliver ()
  in
  let rng = Rng.create 3 in
  let src = Bundle.pace b ~every:0.0004 ~count:500 (fun () -> 64 + Rng.int rng 1400) in
  Sim.run sim;
  Alcotest.(check int) "offered" 500 src.Bundle.offered;
  Alcotest.(check bool) "finished" true src.finished;
  Alcotest.(check (list int)) "FIFO" (List.init 500 Fun.id) (seqs ());
  Alcotest.(check bool) "markers sent" true
    (Striper.markers_sent (Bundle.striper b) > 0)

(* The source pushes [burst] packets per tick until the clock reaches
   [until]; the tick that finds it done pushes nothing. *)
let test_pace_until () =
  let sim = Sim.create () in
  let b =
    Bundle.create sim ~scheduler:(srr 2)
      ~channels:[| (10e6, 0.001); (10e6, 0.001) |]
      ~wire:Plain ~receiver:Unordered ~deliver:ignore ()
  in
  let src = Bundle.pace b ~burst:3 ~every:0.01 ~until:0.035 (fun () -> 100) in
  Alcotest.(check int) "first burst at once" 3 src.Bundle.offered;
  Sim.run sim;
  Alcotest.(check int) "ticks at 0, 10, 20, 30 ms" 12 src.offered;
  Alcotest.(check bool) "finished" true src.finished

(* A channel that duplicates behind the guard still delivers each packet
   once and in order; the drop hook sees every arrival first. *)
let test_guarded_wire () =
  let sim = Sim.create () in
  let deliver, seqs = delivered_seqs () in
  let arrivals = ref 0 in
  let b =
    Bundle.create sim ~scheduler:(srr 3) ~channels:skewed ~wire:(Guarded 32)
      ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~rng:(Rng.create 11)
      ~impair:(fun c -> if c = 1 then Impair.make ~dup_p:0.3 () else Impair.none)
      ~drop:(fun ~channel:_ _ ->
        incr arrivals;
        false)
      ~deliver ()
  in
  ignore (Bundle.pace b ~every:0.0004 ~count:300 (fun () -> 500));
  Sim.run sim;
  let guard = Option.get (Bundle.guard b) in
  Alcotest.(check (list int)) "once each, in order" (List.init 300 Fun.id)
    (seqs ());
  Alcotest.(check bool) "duplicates discarded" true
    (Channel_guard.dup_discards guard > 0);
  let links = Bundle.links b in
  let landed = Array.fold_left (fun a l -> a + Link.delivered_packets l) 0 links in
  Alcotest.(check int) "hook sees every arrival" landed !arrivals

(* A drop hook that takes a data packet away is a loss to the
   receiver: sequence-number reception skips it and keeps the rest in
   order. *)
let test_drop_hook_is_loss () =
  let sim = Sim.create () in
  let deliver, seqs = delivered_seqs () in
  let b =
    Bundle.create sim ~scheduler:(srr 3) ~channels:skewed ~wire:Plain
      ~receiver:Seq
      ~drop:(fun ~channel:_ pkt -> pkt.Packet.seq = 7)
      ~deliver ()
  in
  ignore (Bundle.pace b ~every:0.001 ~count:40 (fun () -> 200));
  Sim.run sim;
  Alcotest.(check (list int)) "all but 7"
    (List.filter (fun s -> s <> 7) (List.init 40 Fun.id))
    (seqs ());
  Alcotest.(check int) "loss detected" 1
    (Seq_resequencer.detected_losses (Bundle.seq_resequencer b))

let test_refusals () =
  let sim = Sim.create () in
  let create ?(channels = skewed) scheduler receiver =
    Bundle.create sim ~scheduler ~channels ~wire:Plain ~receiver
      ~deliver:ignore ()
  in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "logical needs CFQ" (fun () ->
      create (Scheduler.seeded_rfq ~n:3 ~seed:1) Logical);
  raises "width" (fun () ->
      create ~channels:[| (10e6, 0.001) |] (srr 3) Logical);
  let b = create (srr 3) Unordered in
  raises "no resequencer" (fun () -> Bundle.resequencer b);
  raises "no seq resequencer" (fun () -> Bundle.seq_resequencer b);
  Alcotest.(check bool) "plain wire has no guard" true (Bundle.guard b = None)

let suites =
  [
    ( "bundle",
      [
        Alcotest.test_case "logical reception is FIFO" `Quick test_logical_fifo;
        Alcotest.test_case "pace stops at until" `Quick test_pace_until;
        Alcotest.test_case "guarded wire" `Quick test_guarded_wire;
        Alcotest.test_case "drop hook is a loss" `Quick test_drop_hook_is_loss;
        Alcotest.test_case "refusals" `Quick test_refusals;
      ] );
  ]
