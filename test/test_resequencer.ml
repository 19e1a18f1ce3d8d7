(* Tests for logical reception and marker-based synchronization recovery:
   Theorem 4.1 (FIFO without loss), quasi-FIFO under loss, the Figures
   8-13 walkthrough as a golden test, and Theorem 5.1 (recovery) as a
   randomized property. *)

open Stripe_core
open Stripe_packet

(* A synchronous sender/receiver pair: the striper's emissions per channel
   are appended to per-channel wires; [deliver_in_order] feeds the
   receiver each wire's packets under an arbitrary interleaving that
   preserves per-channel FIFO (which is all the protocol assumes). *)
module Pair = struct
  type t = {
    striper : Striper.t;
    reseq : Resequencer.t;
    rx_engine : Deficit.t;  (* The receiver's simulated sender. *)
    wires : Packet.t Queue.t array;
    delivered : int list ref;
  }

  let create ?marker ~quanta () =
    let n = Array.length quanta in
    let engine = Srr.create ~quanta () in
    let sched = Scheduler.of_deficit ~name:"SRR" engine in
    let wires = Array.init n (fun _ -> Queue.create ()) in
    let delivered = ref [] in
    let rx_engine = Deficit.clone_initial engine in
    let reseq =
      Resequencer.create ~deficit:rx_engine
        ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
        ()
    in
    let striper =
      Striper.create ~scheduler:sched ?marker
        ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
        ()
    in
    { striper; reseq; rx_engine; wires; delivered }

  let send ?(first = 0) t sizes =
    List.iteri
      (fun i size ->
        Striper.push t.striper (Packet.data ~seq:(first + i) ~size ()))
      sizes

  (* Deliver all wire contents with a per-step random choice of channel —
     any interleaving that keeps each channel FIFO. [drop] filters
     packets by global arrival index. *)
  let shuttle ?(drop = fun _ _ -> false) ~rng t =
    let idx = ref 0 in
    let nonempty () =
      Array.to_list t.wires
      |> List.mapi (fun i q -> (i, q))
      |> List.filter (fun (_, q) -> not (Queue.is_empty q))
    in
    let rec go () =
      match nonempty () with
      | [] -> ()
      | live ->
        let c, q = List.nth live (Stripe_netsim.Rng.int rng (List.length live)) in
        let pkt = Queue.pop q in
        incr idx;
        if not (drop !idx pkt) then Resequencer.receive t.reseq ~channel:c pkt;
        go ()
    in
    go ()

  let delivered t = List.rev !(t.delivered)
end

let test_theorem41_fifo_no_loss () =
  let rng = Stripe_netsim.Rng.create 1 in
  let pair = Pair.create ~quanta:[| 1500; 1500; 1500 |] () in
  let sizes = List.init 500 (fun _ -> 50 + Stripe_netsim.Rng.int rng 1450) in
  Pair.send pair sizes;
  Pair.shuttle ~rng pair;
  Alcotest.(check (list int)) "receiver output = sender input"
    (List.init 500 Fun.id) (Pair.delivered pair)

let prop_theorem41 =
  QCheck.Test.make
    ~name:"logical reception: FIFO for any sizes, quanta and interleaving"
    ~count:100
    QCheck.(triple (Arb.int_range 1 5) (int_range 0 10_000)
              (list_of_size (Gen.int_range 0 300) (Arb.int_range 1 1500)))
    (fun (n, seed, sizes) ->
      let rng = Stripe_netsim.Rng.create seed in
      let pair = Pair.create ~quanta:(Array.make n 1500) () in
      Pair.send pair sizes;
      Pair.shuttle ~rng pair;
      Pair.delivered pair = List.init (List.length sizes) Fun.id)

let test_blocking_on_expected_channel () =
  (* The §4 narrative: receiver must not deliver packet N+1 from a fast
     channel before packet 2 arrives on the slow one. *)
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let p seq = Packet.data ~seq ~size:100 () in
  (* Sender sends 0 -> ch0, 1 -> ch1, 2 -> ch0. Fast channel 0 delivers
     both its packets first. *)
  Resequencer.receive reseq ~channel:0 (p 0);
  Resequencer.receive reseq ~channel:0 (p 2);
  Alcotest.(check (list int)) "only packet 0 delivered" [ 0 ] (List.rev !delivered);
  Alcotest.(check (option int)) "blocked on channel 1" (Some 1)
    (Resequencer.blocked_on reseq);
  Alcotest.(check int) "packet 2 buffered" 1 (Resequencer.pending reseq);
  Resequencer.receive reseq ~channel:1 (p 1);
  Alcotest.(check (list int)) "unblocked in order" [ 0; 1; 2 ] (List.rev !delivered)

let test_quasi_fifo_without_markers () =
  (* Round robin example of §4: losing one packet permanently reorders
     when no resynchronization exists. *)
  let rng = Stripe_netsim.Rng.create 2 in
  let pair = Pair.create ~quanta:[| 100; 100 |] () in
  Pair.send pair (List.init 40 (fun _ -> 100));
  (* Drop the sender's 7th emission (a data packet, no markers here). *)
  Pair.shuttle ~rng ~drop:(fun idx _ -> idx = 7) pair;
  let out = Pair.delivered pair in
  let sorted = List.sort compare out in
  Alcotest.(check bool) "delivery is misordered after the loss" true (out <> sorted);
  Alcotest.(check int) "everything else still delivered once... eventually buffered"
    39
    (List.length out + Resequencer.pending pair.Pair.reseq)

(* Figures 8-13: two equal channels, equal-size packets, quantum = packet
   size (SRR reduces to RR). Packet 7 (1-indexed; seq 6) is lost on
   channel 0. A marker sent before round 7 (1-indexed) resynchronizes.
   Expected delivery (paper, 1-indexed): 1..6, 9, 8, 11, 10, 12, 13..18. *)
let test_figures_8_13_walkthrough () =
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let arrivals = Queue.create () in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~position:Marker.Round_end ~every_rounds:6 ())
      ~emit:(fun ~channel pkt -> Queue.add (channel, pkt) arrivals)
      ()
  in
  for seq = 0 to 17 do
    Striper.push striper (Packet.data ~seq ~size:100 ())
  done;
  (* Equal channels: arrival order equals send order; drop seq 6. *)
  Queue.iter
    (fun (channel, pkt) ->
      if pkt.Packet.seq <> 6 then Resequencer.receive reseq ~channel pkt)
    arrivals;
  Alcotest.(check (list int)) "paper's recovery sequence"
    [ 0; 1; 2; 3; 4; 5; 8; 7; 10; 9; 11; 12; 13; 14; 15; 16; 17 ]
    (List.rev !delivered);
  Alcotest.(check bool) "receiver skipped a channel visit" true
    (Resequencer.skips reseq >= 1);
  Alcotest.(check int) "nothing left buffered" 0 (Resequencer.pending reseq)

let run_recovery ~seed ~loss_p ~n_channels ~every_rounds =
  (* Lossy phase, then lossless phase: Theorem 5.1 says delivery must be
     FIFO from (shortly after) the moment losses stop. *)
  let rng = Stripe_netsim.Rng.create seed in
  let quanta = Array.make n_channels 1500 in
  let pair =
    Pair.create ~marker:(Marker.make ~every_rounds ()) ~quanta ()
  in
  let n_lossy = 600 and n_clean = 600 in
  let sizes =
    List.init (n_lossy + n_clean) (fun _ -> 50 + Stripe_netsim.Rng.int rng 1450)
  in
  Pair.send pair sizes;
  (* Drop only packets from the lossy prefix of the sender's stream. *)
  let drop _idx pkt =
    (not (Packet.is_marker pkt))
    && pkt.Packet.seq < n_lossy
    && Stripe_netsim.Rng.bernoulli rng ~p:loss_p
  in
  Pair.shuttle ~rng ~drop pair;
  let out = Pair.delivered pair in
  (* Theorem 5.1 promises FIFO once a marker has been delivered on every
     channel after errors stop; allow a recovery window of packets past
     the loss boundary before demanding order, but require the whole tail
     to be present. *)
  let slack = 200 in
  let tail = List.filter (fun seq -> seq >= n_lossy + slack) out in
  let in_order = List.sort compare tail = tail in
  let complete = List.length tail = n_clean - slack in
  (in_order, complete)

let test_recovery_moderate_loss () =
  let in_order, complete = run_recovery ~seed:5 ~loss_p:0.3 ~n_channels:2 ~every_rounds:4 in
  Alcotest.(check bool) "clean-phase tail complete" true complete;
  Alcotest.(check bool) "clean-phase tail in order" true in_order

let test_recovery_extreme_loss () =
  (* The paper measured recovery at loss rates up to 80 %. *)
  let in_order, complete = run_recovery ~seed:6 ~loss_p:0.8 ~n_channels:3 ~every_rounds:2 in
  Alcotest.(check bool) "survives 80% loss" true (in_order && complete)

let prop_recovery =
  QCheck.Test.make
    ~name:"marker recovery: FIFO restored after losses stop (any rate/shape)"
    ~count:40
    QCheck.(triple (int_range 0 1000) (float_range 0.05 0.8) (Arb.int_range 2 4))
    (fun (seed, loss_p, n_channels) ->
      let in_order, complete =
        run_recovery ~seed ~loss_p ~n_channels ~every_rounds:3
      in
      in_order && complete)

let test_drain () =
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  (* Two packets buffered on channel 1 while blocked on channel 0. *)
  Resequencer.receive reseq ~channel:1 (Packet.data ~seq:10 ~size:100 ());
  Resequencer.receive reseq ~channel:1 (Packet.data ~seq:11 ~size:100 ());
  Alcotest.(check int) "buffered" 2 (Resequencer.pending reseq);
  let drained = Resequencer.drain reseq in
  Alcotest.(check (list int)) "drain returns them in channel order" [ 10; 11 ]
    (List.map (fun p -> p.Packet.seq) drained);
  Alcotest.(check int) "empty after drain" 0 (Resequencer.pending reseq)

let test_drain_clears_blocking_state () =
  (* Regression: drain used to empty the buffers but leave [waiting] and
     the recorded marker stamps behind, so [blocked_on] reported a stale
     channel and a stale stamp could skip a channel forever. *)
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  (* A future-round marker on channel 0 forces a skip; the scan moves on
     and blocks on channel 1, leaving marker state recorded for 0. *)
  Resequencer.receive reseq ~channel:0
    (Packet.marker ~channel:0 ~round:7 ~dc:100 ~born:0.0 ());
  Alcotest.(check (option int)) "blocked on ch1 after the skip" (Some 1)
    (Resequencer.blocked_on reseq);
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:20 ~size:100 ());
  Alcotest.(check int) "data buffered behind the block" 1
    (Resequencer.pending reseq);
  let drained = Resequencer.drain reseq in
  Alcotest.(check (list int)) "drain returns the buffered data" [ 20 ]
    (List.map (fun p -> p.Packet.seq) drained);
  Alcotest.(check (option int)) "drain clears the blocked channel" None
    (Resequencer.blocked_on reseq);
  (* The recorded marker stamp died with the drained stream: channel 0
     must be servable again, not skipped until round 7. *)
  Resequencer.receive reseq ~channel:1 (Packet.data ~seq:30 ~size:100 ());
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:31 ~size:100 ());
  Alcotest.(check (list int)) "both channels flow after drain" [ 30; 31 ]
    (List.rev !delivered)

let test_mid_visit_marker_correction () =
  (* A marker for the channel currently in service, stamped with the
     receiver's own round, must correct the DC mid-visit (the sender's
     authoritative value supersedes the simulated one) rather than be
     deferred or treated as a skip. *)
  let engine = Srr.create ~quanta:[| 200; 200 |] () in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let p seq = Packet.data ~seq ~size:100 () in
  (* One packet into the round-0 visit of channel 0: DC simulated at 100,
     blocked mid-visit awaiting more channel-0 data. *)
  Resequencer.receive reseq ~channel:0 (p 0);
  Alcotest.(check (option int)) "blocked mid-visit on ch0" (Some 0)
    (Resequencer.blocked_on reseq);
  (* Same-round marker corrects the DC upward: the sender actually has
     250 bytes of service left for this visit. *)
  Resequencer.receive reseq ~channel:0
    (Packet.marker ~channel:0 ~round:0 ~dc:250 ~born:0.0 ());
  Alcotest.(check int) "correction is not a skip" 0 (Resequencer.skips reseq);
  Alcotest.(check (option int)) "still awaiting ch0 data" (Some 0)
    (Resequencer.blocked_on reseq);
  (* With the corrected DC of 250, three more 100-byte packets belong to
     this visit (250 -> 150 -> 50 -> -50); the simulated DC of 100 would
     have moved on after one. *)
  Resequencer.receive reseq ~channel:0 (p 1);
  Resequencer.receive reseq ~channel:0 (p 2);
  Resequencer.receive reseq ~channel:0 (p 3);
  Resequencer.receive reseq ~channel:1 (p 4);
  Alcotest.(check (list int)) "visit served to the corrected DC"
    [ 0; 1; 2; 3; 4 ]
    (List.rev !delivered);
  Alcotest.(check int) "nothing stranded in the buffers" 0
    (Resequencer.pending reseq)

let test_bad_channel_rejected () =
  let engine = Srr.create ~quanta:[| 100 |] () in
  let reseq =
    Resequencer.create ~deficit:engine ~deliver:(fun ~channel:_ _ -> ()) ()
  in
  Alcotest.check_raises "bad channel"
    (Invalid_argument "Resequencer.receive: bad channel") (fun () ->
      Resequencer.receive reseq ~channel:5 (Packet.data ~seq:0 ~size:10 ()))

let test_buffer_high_water () =
  let engine = Srr.create ~quanta:[| 100; 100 |] () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  for i = 0 to 9 do
    Resequencer.receive reseq ~channel:1 (Packet.data ~seq:(i * 2 + 1) ~size:100 ())
  done;
  Alcotest.(check bool) "high water reflects skew run-ahead" true
    (Resequencer.buffer_high_water_packets reseq >= 10)

(* Logical reception on arrival: a data packet landing on the channel
   the scan is blocked on is the packet due next, so it is delivered
   within [receive] without waiting in its buffer. Every figure reads as
   if it had passed through the buffer. *)
let two_channel_rx ?sink ?budget_bytes ?on_pressure () =
  let rx = Deficit.clone_initial (Srr.create ~quanta:[| 100; 100 |] ()) in
  let delivered = ref [] in
  let reseq =
    Resequencer.create ~deficit:rx ?sink ?budget_bytes ?on_pressure
      ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  (rx, reseq, delivered)

let test_delivered_on_arrival () =
  let _, reseq, delivered = two_channel_rx () in
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:0 ~size:60 ());
  Alcotest.(check (list int)) "delivered within receive" [ 0 ] !delivered;
  Alcotest.(check int) "nothing pending" 0 (Resequencer.pending reseq);
  Alcotest.(check int) "high water counts it as one packet" 1
    (Resequencer.buffer_high_water_packets reseq);
  Alcotest.(check int) "high water counts its bytes" 60
    (Resequencer.buffer_high_water_bytes reseq);
  Alcotest.(check int) "max buffered bytes counts its bytes" 60
    (Resequencer.max_buffered_bytes reseq);
  Alcotest.(check (option int)) "the scan stays on channel 0, 40 bytes left"
    (Some 0) (Resequencer.blocked_on reseq)

(* Each condition of the arrival path, broken on its own, sends the
   packet through its buffer as before. Where the scan cannot serve the
   packet's channel, the packet stays there and the scan blocks on
   channel 1. *)
let check_kept_buffered ~what (reseq, delivered) =
  Alcotest.(check (list int)) (what ^ ": not delivered") [] !delivered;
  Alcotest.(check int) (what ^ ": buffered") 1 (Resequencer.pending reseq);
  Alcotest.(check (option int)) (what ^ ": blocked on channel 1") (Some 1)
    (Resequencer.blocked_on reseq)

let test_arrival_guards () =
  let p () = Packet.data ~seq:0 ~size:60 () in
  (* Another channel, even one with DC to spend: the scan stays blocked
     on channel 0 with 40 bytes of its visit left. *)
  (let rx, reseq, delivered = two_channel_rx () in
   Resequencer.receive reseq ~channel:0 (p ());
   delivered := [];
   Deficit.set_dc rx 1 100;
   Resequencer.receive reseq ~channel:1 (Packet.data ~seq:5 ~size:60 ());
   Alcotest.(check (list int)) "another channel: not delivered" [] !delivered;
   Alcotest.(check int) "another channel: buffered" 1
     (Resequencer.pending reseq);
   Alcotest.(check (option int)) "another channel: blocked on channel 0"
     (Some 0) (Resequencer.blocked_on reseq));
  (* A packet queued ahead on the channel: it leaves first. The engine
     is moved onto channel 1 with packet 5 still buffered there. *)
  (let rx, reseq, delivered = two_channel_rx () in
   Resequencer.receive reseq ~channel:1 (Packet.data ~seq:5 ~size:60 ());
   Deficit.advance rx;
   Resequencer.receive reseq ~channel:1 (Packet.data ~seq:6 ~size:30 ());
   Alcotest.(check (list int)) "queued ahead: delivered behind it" [ 5; 6 ]
     (List.rev !delivered));
  (* A pending marker stamp: a future-round marker skips channel 0 and
     leaves its stamp; the engine is then moved back onto channel 0. *)
  (let rx, reseq, delivered = two_channel_rx () in
   Resequencer.receive reseq ~channel:0
     (Packet.marker ~channel:0 ~round:7 ~dc:100 ~born:0.0 ());
   Deficit.advance rx;
   Resequencer.receive reseq ~channel:0 (p ());
   check_kept_buffered ~what:"queued stamp" (reseq, delivered));
  (* A channel parked at a reset barrier the other channel has not
     joined. *)
  (let rx, reseq, delivered = two_channel_rx () in
   Resequencer.receive reseq ~channel:0
     (Packet.marker ~channel:0 ~round:0 ~dc:100 ~reset:true ~born:0.0 ());
   Deficit.advance rx;
   Resequencer.receive reseq ~channel:0 (p ());
   check_kept_buffered ~what:"parked" (reseq, delivered));
  (* An exhausted DC: the visit begins at -400 + 100. *)
  (let rx, reseq, delivered = two_channel_rx () in
   Deficit.set_dc rx 0 (-500);
   Resequencer.receive reseq ~channel:0 (p ());
   check_kept_buffered ~what:"exhausted DC" (reseq, delivered))

(* One log of sink events and pressure callbacks, in order. *)
let logged_rx ?budget_bytes () =
  let log = ref [] in
  let note s = log := s :: !log in
  let sink =
    Stripe_obs.Sink.of_fn (fun e ->
        note
          (Printf.sprintf "%s ch=%d seq=%d round=%d dc=%d"
             (Stripe_obs.Event.kind_name e.Stripe_obs.Event.kind)
             e.channel e.seq e.round e.dc))
  in
  let on_pressure ~high = note (Printf.sprintf "pressure %b" high) in
  let _, reseq, delivered = two_channel_rx ~sink ?budget_bytes ~on_pressure () in
  (reseq, delivered, fun () -> List.rev !log)

let test_arrival_pressure () =
  (* 80 bytes of a 100-byte budget crosses 3/4 on arrival and falls
     below 1/2 on delivery. *)
  let reseq, delivered, log = logged_rx ~budget_bytes:100 () in
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:0 ~size:80 ());
  Alcotest.(check (list int)) "delivered" [ 0 ] !delivered;
  Alcotest.(check bool) "pressure cleared" false
    (Resequencer.pressure_high reseq);
  Alcotest.(check (list string)) "raised, then cleared around the delivery"
    [
      "pressure true";
      "enqueue ch=0 seq=0 round=-1 dc=0";
      "pressure false";
      "deliver ch=0 seq=0 round=0 dc=100";
      "block ch=0 seq=-1 round=-1 dc=0";
    ]
    (log ())

let test_arrival_events () =
  (* Packet 1 waits on channel 1 and leaves through the pop path; packets
     0 and 2 land on the channel the scan is blocked on. *)
  let reseq, delivered, log = logged_rx () in
  Resequencer.receive reseq ~channel:1 (Packet.data ~seq:1 ~size:100 ());
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:0 ~size:100 ());
  Resequencer.receive reseq ~channel:0 (Packet.data ~seq:2 ~size:100 ());
  Alcotest.(check (list int)) "in order" [ 2; 1; 0 ] !delivered;
  Alcotest.(check (list string)) "the buffered path's events"
    [
      "enqueue ch=1 seq=1 round=-1 dc=0";
      "block ch=0 seq=-1 round=-1 dc=0";
      "enqueue ch=0 seq=0 round=-1 dc=0";
      "unblock ch=0 seq=-1 round=-1 dc=0";
      "deliver ch=0 seq=0 round=0 dc=100";
      "deliver ch=1 seq=1 round=0 dc=100";
      "block ch=0 seq=-1 round=-1 dc=0";
      "enqueue ch=0 seq=2 round=-1 dc=0";
      "unblock ch=0 seq=-1 round=-1 dc=0";
      "deliver ch=0 seq=2 round=1 dc=100";
      "block ch=1 seq=-1 round=-1 dc=0";
    ]
    (log ())

(* State corruption of the receiver's global round [G] (§5 mentions
   snapshot-and-reset for it): markers alone repair it, with no reset
   barrier. Ahead of the sender, the next marker pins below [G] and
   re-anchors the round translation once; behind it, the C1 skip rule
   fast-forwards. *)
let marked_pair () =
  Pair.create ~marker:(Marker.make ~every_rounds:2 ()) ~quanta:[| 1000; 1000 |]
    ()

let corrupt_round_then_send ~shift =
  let pair = marked_pair () in
  let rng = Stripe_netsim.Rng.create 1 in
  Pair.send pair (List.init 100 (fun _ -> 1000));
  Pair.shuttle ~rng pair;
  let g = Deficit.round pair.rx_engine in
  Deficit.set_round pair.rx_engine (max 0 (g + shift));
  pair.delivered := [];
  Pair.send ~first:1000 pair (List.init 300 (fun _ -> 1000));
  Pair.shuttle ~rng pair;
  (pair.reseq, Pair.delivered pair)

let test_round_high_reanchors () =
  let reseq, out = corrupt_round_then_send ~shift:50 in
  Alcotest.(check int) "one re-anchoring" 1 (Resequencer.round_realigns reseq);
  Alcotest.(check int) "no reset barrier" 0 (Resequencer.resets reseq);
  Alcotest.(check (list int)) "all 300 in order" (List.init 300 (( + ) 1000))
    out

let test_round_low_skips () =
  let reseq, out = corrupt_round_then_send ~shift:(-30) in
  Alcotest.(check int) "no reset barrier" 0 (Resequencer.resets reseq);
  Alcotest.(check int) "nothing lost" 300 (List.length out);
  (* Skips cost a transient misorder while [G] catches up; FIFO after. *)
  let tail = List.filteri (fun i _ -> i >= 10) out in
  Alcotest.(check bool) "the skip rule recovers" true
    (List.sort compare tail = tail)

(* A restart while a retune is staged drops it: the receiver comes back
   on the engine's own quanta, and the next reset barrier resynchronizes
   it with the sender, which never retuned. Had the staged vector
   survived, that barrier would adopt it and misorder the stream. *)
let test_restart_drops_staged_retune ~restart () =
  let pair = marked_pair () in
  let rng = Stripe_netsim.Rng.create 2 in
  Pair.send pair (List.init 40 (fun _ -> 1000));
  Pair.shuttle ~rng pair;
  Resequencer.retune pair.reseq ~quanta:[| 3000; 1000 |];
  Alcotest.(check bool) "staged" true
    (Resequencer.transition_pending pair.reseq);
  restart pair.reseq;
  Alcotest.(check bool) "retune dropped" false
    (Resequencer.transition_pending pair.reseq);
  pair.delivered := [];
  Striper.send_reset pair.striper;
  Pair.send ~first:1000 pair (List.init 300 (fun _ -> 1000));
  Pair.shuttle ~rng pair;
  Alcotest.(check bool) "still on the sender's quanta" true
    (Resequencer.has_quanta pair.reseq [| 1000; 1000 |]);
  Alcotest.(check (list int)) "all 300 in order after the barrier"
    (List.init 300 (( + ) 1000))
    (Pair.delivered pair)

let crash r = ignore (Resequencer.crash_restart r)

let suites =
  [
    ( "resequencer",
      [
        Alcotest.test_case "theorem 4.1 FIFO" `Quick test_theorem41_fifo_no_loss;
        Alcotest.test_case "blocking semantics" `Quick test_blocking_on_expected_channel;
        Alcotest.test_case "quasi-FIFO without markers" `Quick
          test_quasi_fifo_without_markers;
        Alcotest.test_case "figures 8-13 walkthrough" `Quick
          test_figures_8_13_walkthrough;
        Alcotest.test_case "recovery at 30% loss" `Quick test_recovery_moderate_loss;
        Alcotest.test_case "recovery at 80% loss" `Quick test_recovery_extreme_loss;
        Alcotest.test_case "drain" `Quick test_drain;
        Alcotest.test_case "drain clears blocking state" `Quick
          test_drain_clears_blocking_state;
        Alcotest.test_case "mid-visit marker correction" `Quick
          test_mid_visit_marker_correction;
        Alcotest.test_case "bad channel" `Quick test_bad_channel_rejected;
        Alcotest.test_case "buffer high water" `Quick test_buffer_high_water;
        Alcotest.test_case "delivered on arrival" `Quick
          test_delivered_on_arrival;
        Alcotest.test_case "arrival guards keep buffering" `Quick
          test_arrival_guards;
        Alcotest.test_case "pressure on arrival" `Quick test_arrival_pressure;
        Alcotest.test_case "events on arrival" `Quick test_arrival_events;
        Alcotest.test_case "round jumped high re-anchors" `Quick
          test_round_high_reanchors;
        Alcotest.test_case "round dropped low skips" `Quick
          test_round_low_skips;
        Alcotest.test_case "crash_restart drops a staged retune" `Quick
          (test_restart_drops_staged_retune ~restart:crash);
        Alcotest.test_case "recycle drops a staged retune" `Quick
          (test_restart_drops_staged_retune ~restart:Resequencer.recycle);
        QCheck_alcotest.to_alcotest prop_theorem41;
        QCheck_alcotest.to_alcotest prop_recovery;
      ] );
  ]
