(* Tests for the crash-recovery reset barrier: Striper.send_reset +
   Resequencer epoch reinitialization. *)

open Stripe_core
open Stripe_packet

type pair = {
  striper : Striper.t;
  reseq : Resequencer.t;
  wires : Packet.t Queue.t array;
  delivered : int list ref;
}

let make ~n () =
  let quanta = Array.make n 1000 in
  let engine = Srr.create ~quanta () in
  let wires = Array.init n (fun _ -> Queue.create ()) in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
      ()
  in
  { striper; reseq; wires; delivered }

let shuttle ?(drop = fun _ -> false) t =
  Array.iteri
    (fun c q ->
      Queue.iter (fun pkt -> if not (drop pkt) then Resequencer.receive t.reseq ~channel:c pkt) q)
    t.wires;
  Array.iter Queue.clear t.wires

(* Interleave delivery across wires round-robin to mimic similar-speed
   channels. *)
let shuttle_interleaved ?(drop = fun _ -> false) t =
  let remaining = ref true in
  while !remaining do
    remaining := false;
    Array.iteri
      (fun c q ->
        match Queue.take_opt q with
        | Some pkt ->
          remaining := true;
          if not (drop pkt) then Resequencer.receive t.reseq ~channel:c pkt
        | None -> ())
      t.wires
  done

let test_reset_requires_cfq () =
  let striper =
    Striper.create
      ~scheduler:(Scheduler.random_selection ~n:2 ~seed:1)
      ~emit:(fun ~channel:_ _ -> ())
      ()
  in
  Alcotest.check_raises "reset on non-causal scheduler"
    (Invalid_argument "Striper.send_reset: requires a CFQ scheduler") (fun () ->
      Striper.send_reset striper)

let test_reset_markers_on_every_channel () =
  let t = make ~n:3 () in
  Striper.send_reset t.striper;
  Array.iter
    (fun q ->
      match Queue.peek_opt q with
      | Some { Packet.kind = Marker m; _ } ->
        Alcotest.(check bool) "reset flag" true m.m_reset;
        Alcotest.(check int) "fresh round" 0 m.m_round;
        Alcotest.(check int) "fresh DC" 1000 m.m_dc
      | Some _ | None -> Alcotest.fail "missing reset marker")
    t.wires

let test_clean_reset_mid_stream () =
  let t = make ~n:2 () in
  for seq = 0 to 9 do
    Striper.push t.striper (Packet.data ~seq ~size:1000 ())
  done;
  Striper.send_reset t.striper;
  for seq = 10 to 19 do
    Striper.push t.striper (Packet.data ~seq ~size:1000 ())
  done;
  shuttle_interleaved t;
  Alcotest.(check (list int)) "stream unbroken across a clean reset"
    (List.init 20 Fun.id)
    (List.rev !(t.delivered));
  Alcotest.(check int) "one barrier completed" 1 (Resequencer.resets t.reseq)

let test_reset_recovers_corrupt_receiver () =
  (* Lose many packets with NO periodic markers: the receiver is now
     arbitrarily desynchronized. A reset must restore FIFO for the new
     epoch. *)
  let t = make ~n:2 () in
  let rng = Stripe_netsim.Rng.create 5 in
  for seq = 0 to 199 do
    Striper.push t.striper (Packet.data ~seq ~size:1000 ())
  done;
  shuttle_interleaved
    ~drop:(fun pkt ->
      (not (Packet.is_marker pkt)) && Stripe_netsim.Rng.bernoulli rng ~p:0.4)
    t;
  (* The old epoch is misordered. *)
  let old_out = List.rev !(t.delivered) in
  Alcotest.(check bool) "old epoch is desynchronized" true
    (old_out <> List.sort compare old_out);
  (* Crash recovery: reset, then a fresh epoch. *)
  Striper.send_reset t.striper;
  for seq = 1000 to 1199 do
    Striper.push t.striper (Packet.data ~seq ~size:1000 ())
  done;
  t.delivered := [];
  shuttle_interleaved t;
  Alcotest.(check int) "barrier completed" 1 (Resequencer.resets t.reseq);
  let new_out = List.rev !(t.delivered) in
  let new_epoch = List.filter (fun s -> s >= 1000) new_out in
  Alcotest.(check (list int)) "fresh epoch delivered FIFO and complete"
    (List.init 200 (fun i -> 1000 + i))
    new_epoch

let test_double_reset () =
  let t = make ~n:2 () in
  Striper.push t.striper (Packet.data ~seq:0 ~size:1000 ());
  Striper.push t.striper (Packet.data ~seq:1 ~size:1000 ());
  Striper.send_reset t.striper;
  Striper.send_reset t.striper;
  Striper.push t.striper (Packet.data ~seq:2 ~size:1000 ());
  Striper.push t.striper (Packet.data ~seq:3 ~size:1000 ());
  shuttle_interleaved t;
  Alcotest.(check (list int)) "both barriers cross cleanly" [ 0; 1; 2; 3 ]
    (List.rev !(t.delivered));
  Alcotest.(check int) "two barriers" 2 (Resequencer.resets t.reseq)

let test_straggler_delivery_before_barrier () =
  (* Data buffered ahead of the reset marker on a channel is delivered
     before the barrier applies. *)
  let t = make ~n:2 () in
  for seq = 0 to 3 do
    Striper.push t.striper (Packet.data ~seq ~size:1000 ())
  done;
  Striper.send_reset t.striper;
  (* Deliver channel 1 fully first, then channel 0: the receiver blocks
     on channel 0, drains stragglers in schedule order, then crosses. *)
  shuttle t;
  Alcotest.(check (list int)) "stragglers then barrier" [ 0; 1; 2; 3 ]
    (List.rev !(t.delivered));
  Alcotest.(check int) "barrier done" 1 (Resequencer.resets t.reseq)

let test_barrier_completes_on_in_service_channel () =
  (* The last reset marker of the barrier arrives on the channel the
     receiver is currently blocked on, mid-visit, in the same round — the
     barrier must complete from inside that visit and the fresh epoch
     flow immediately. *)
  let t = make ~n:2 () in
  Striper.push t.striper (Packet.data ~seq:0 ~size:1000 ());
  Striper.push t.striper (Packet.data ~seq:1 ~size:1000 ());
  Striper.send_reset t.striper;
  Striper.push t.striper (Packet.data ~seq:2 ~size:1000 ());
  Striper.push t.striper (Packet.data ~seq:3 ~size:1000 ());
  (* Old epoch: seq 0 -> ch0, seq 1 -> ch1. Deliver channel 0's whole
     stream first: seq 0, then its reset marker — half the barrier. *)
  Queue.iter (fun pkt -> Resequencer.receive t.reseq ~channel:0 pkt) t.wires.(0);
  Queue.clear t.wires.(0);
  Alcotest.(check (option int)) "blocked mid-visit on channel 1" (Some 1)
    (Resequencer.blocked_on t.reseq);
  Alcotest.(check int) "barrier not yet complete" 0 (Resequencer.resets t.reseq);
  (* Channel 1: straggler, then the barrier-completing reset marker, then
     new-epoch data. *)
  Queue.iter (fun pkt -> Resequencer.receive t.reseq ~channel:1 pkt) t.wires.(1);
  Queue.clear t.wires.(1);
  Alcotest.(check int) "barrier completed in-visit" 1 (Resequencer.resets t.reseq);
  Alcotest.(check (list int)) "old epoch, then fresh epoch, all FIFO"
    [ 0; 1; 2; 3 ]
    (List.rev !(t.delivered));
  Alcotest.(check int) "no stranded packets" 0 (Resequencer.pending t.reseq)

let prop_reset_restores_fifo =
  QCheck.Test.make
    ~name:"reset: fresh epoch is FIFO after arbitrary prior corruption"
    ~count:60
    QCheck.(pair (int_range 0 1000) (float_range 0.0 0.8))
    (fun (seed, loss_p) ->
      let t = make ~n:3 () in
      let rng = Stripe_netsim.Rng.create seed in
      for seq = 0 to 99 do
        Striper.push t.striper
          (Packet.data ~seq ~size:(100 + Stripe_netsim.Rng.int rng 900) ())
      done;
      shuttle_interleaved
        ~drop:(fun pkt ->
          (not (Packet.is_marker pkt))
          && Stripe_netsim.Rng.bernoulli rng ~p:loss_p)
        t;
      Striper.send_reset t.striper;
      for seq = 500 to 599 do
        Striper.push t.striper
          (Packet.data ~seq ~size:(100 + Stripe_netsim.Rng.int rng 900) ())
      done;
      t.delivered := [];
      shuttle_interleaved t;
      let fresh = List.filter (fun s -> s >= 500) (List.rev !(t.delivered)) in
      fresh = List.init 100 (fun i -> 500 + i))

let suites =
  [
    ( "reset",
      [
        Alcotest.test_case "requires cfq" `Quick test_reset_requires_cfq;
        Alcotest.test_case "markers on every channel" `Quick
          test_reset_markers_on_every_channel;
        Alcotest.test_case "clean mid-stream reset" `Quick test_clean_reset_mid_stream;
        Alcotest.test_case "recovers corrupt receiver" `Quick
          test_reset_recovers_corrupt_receiver;
        Alcotest.test_case "double reset" `Quick test_double_reset;
        Alcotest.test_case "stragglers before barrier" `Quick
          test_straggler_delivery_before_barrier;
        Alcotest.test_case "barrier completes on in-service channel" `Quick
          test_barrier_completes_on_in_service_channel;
        QCheck_alcotest.to_alcotest prop_reset_restores_fifo;
      ] );
  ]
