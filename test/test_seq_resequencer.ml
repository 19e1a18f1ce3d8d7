(* Tests for the guaranteed-FIFO sequence-number resequencer: fast-path
   confirmation, loss detection, and the FIFO guarantee under arbitrary
   loss (the "with header" rows of Table 1). *)

open Stripe_core
open Stripe_packet

let p seq = Packet.data ~seq ~size:100 ()

(* Stripe with SRR, deliver arrivals under a random per-channel-FIFO
   interleaving with losses, feed the Seq_resequencer. Returns delivered
   seq list and the resequencer. *)
let run ?(with_fast_path = true) ~seed ~n_channels ~n_packets ~loss_p () =
  let rng = Stripe_netsim.Rng.create seed in
  let quanta = Array.make n_channels 1500 in
  let engine = Srr.create ~quanta () in
  let wires = Array.init n_channels (fun _ -> Queue.create ()) in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
      ()
  in
  for seq = 0 to n_packets - 1 do
    Striper.push striper
      (Packet.data ~seq ~size:(50 + Stripe_netsim.Rng.int rng 1450) ())
  done;
  let delivered = ref [] in
  let reseq =
    Seq_resequencer.create
      ?deficit:(if with_fast_path then Some (Deficit.clone_initial engine) else None)
      ~n_channels
      ~deliver:(fun pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  let nonempty () =
    Array.to_list wires
    |> List.mapi (fun i q -> (i, q))
    |> List.filter (fun (_, q) -> not (Queue.is_empty q))
  in
  let rec shuttle () =
    match nonempty () with
    | [] -> ()
    | live ->
      let c, q = List.nth live (Stripe_netsim.Rng.int rng (List.length live)) in
      let pkt = Queue.pop q in
      if not (Stripe_netsim.Rng.bernoulli rng ~p:loss_p) then
        Seq_resequencer.receive reseq ~channel:c pkt;
      shuttle ()
  in
  shuttle ();
  (List.rev !delivered, reseq)

let is_strictly_increasing l =
  let rec go = function
    | a :: (b :: _ as rest) -> a < b && go rest
    | [ _ ] | [] -> true
  in
  go l

let test_lossless_uses_fast_path () =
  let out, reseq = run ~seed:1 ~n_channels:3 ~n_packets:500 ~loss_p:0.0 () in
  Alcotest.(check (list int)) "exact FIFO" (List.init 500 Fun.id) out;
  Alcotest.(check int) "every delivery on the fast path" 500
    (Seq_resequencer.fast_deliveries reseq);
  Alcotest.(check int) "no confirmation failures" 0
    (Seq_resequencer.confirmations_failed reseq);
  Alcotest.(check int) "no losses detected" 0
    (Seq_resequencer.detected_losses reseq)

let test_loss_never_reorders () =
  let out, reseq = run ~seed:2 ~n_channels:2 ~n_packets:800 ~loss_p:0.2 () in
  Alcotest.(check bool) "strictly increasing despite 20% loss" true
    (is_strictly_increasing out);
  Alcotest.(check bool) "losses were detected" true
    (Seq_resequencer.detected_losses reseq > 0);
  Alcotest.(check bool) "the simulation break was noticed" true
    (Seq_resequencer.confirmations_failed reseq >= 1)

let test_without_fast_path () =
  let out, reseq =
    run ~with_fast_path:false ~seed:3 ~n_channels:3 ~n_packets:400 ~loss_p:0.1 ()
  in
  Alcotest.(check bool) "pure sequenced mode also FIFO" true
    (is_strictly_increasing out);
  Alcotest.(check int) "no fast deliveries without a deficit engine" 0
    (Seq_resequencer.fast_deliveries reseq)

let test_blocking_on_empty_channel () =
  (* seq 1 is missing but channel 1's buffer is empty: it could still be
     in flight there, so delivery must wait rather than skip. *)
  let reseq =
    Seq_resequencer.create ~n_channels:2 ~deliver:(fun _ -> ()) ()
  in
  Seq_resequencer.receive reseq ~channel:0 (p 0);
  Seq_resequencer.receive reseq ~channel:0 (p 2);
  Alcotest.(check int) "0 delivered, 2 held" 1 (Seq_resequencer.delivered reseq);
  Alcotest.(check int) "waiting for seq 1" 1 (Seq_resequencer.next_seq reseq);
  (* seq 1 arrives late on the other channel: everything drains. *)
  Seq_resequencer.receive reseq ~channel:1 (p 1);
  Alcotest.(check int) "all delivered in order" 3 (Seq_resequencer.delivered reseq);
  Alcotest.(check int) "nothing skipped" 0 (Seq_resequencer.detected_losses reseq)

let test_gap_skip_when_provably_lost () =
  (* Both channels have advanced past seq 1: FIFO channels mean it can
     never arrive, so the gap is skipped. *)
  let delivered = ref [] in
  let reseq =
    Seq_resequencer.create ~n_channels:2
      ~deliver:(fun pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  Seq_resequencer.receive reseq ~channel:0 (p 0);
  Seq_resequencer.receive reseq ~channel:0 (p 2);
  Seq_resequencer.receive reseq ~channel:1 (p 3);
  Alcotest.(check (list int)) "gap skipped, order preserved" [ 0; 2; 3 ]
    (List.rev !delivered);
  Alcotest.(check int) "one loss detected" 1 (Seq_resequencer.detected_losses reseq);
  Alcotest.(check int) "now expecting 4" 4 (Seq_resequencer.next_seq reseq)

let test_markers_ignored () =
  let reseq = Seq_resequencer.create ~n_channels:1 ~deliver:(fun _ -> ()) () in
  Seq_resequencer.receive reseq ~channel:0
    (Packet.marker ~channel:0 ~round:3 ~dc:100 ~born:0.0 ());
  Alcotest.(check int) "marker not buffered" 0 (Seq_resequencer.pending reseq);
  Seq_resequencer.receive reseq ~channel:0 (p 0);
  Alcotest.(check int) "data still flows" 1 (Seq_resequencer.delivered reseq)

let test_drain_sorted () =
  let delivered = ref [] in
  let reseq =
    Seq_resequencer.create ~n_channels:2
      ~deliver:(fun pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  Seq_resequencer.receive reseq ~channel:0 (p 5);
  (* Once both heads are past seq 0..2, the gap skips and 3 delivers;
     5 and 7 stay parked behind the (possibly in-flight) 4 on channel 1. *)
  Seq_resequencer.receive reseq ~channel:1 (p 3);
  Seq_resequencer.receive reseq ~channel:0 (p 7);
  Alcotest.(check (list int)) "gap skip delivered 3" [ 3 ] (List.rev !delivered);
  let drained = Seq_resequencer.drain reseq in
  Alcotest.(check (list int)) "drain in sequence order" [ 5; 7 ]
    (List.map (fun q -> q.Packet.seq) drained)

let test_arity_checks () =
  Alcotest.check_raises "zero channels"
    (Invalid_argument "Seq_resequencer.create: no channels") (fun () ->
      ignore (Seq_resequencer.create ~n_channels:0 ~deliver:(fun _ -> ()) ()));
  let d = Srr.create ~quanta:[| 100 |] () in
  Alcotest.check_raises "deficit arity"
    (Invalid_argument "Seq_resequencer.create: deficit arity mismatch")
    (fun () ->
      ignore
        (Seq_resequencer.create ~deficit:d ~n_channels:2 ~deliver:(fun _ -> ()) ()))

let prop_guaranteed_fifo =
  QCheck.Test.make
    ~name:"seq resequencer: delivery strictly increasing under any loss"
    ~count:100
    QCheck.(triple (int_range 0 1000) (float_range 0.0 0.7) (Arb.int_range 1 4))
    (fun (seed, loss_p, n_channels) ->
      let out, _ = run ~seed ~n_channels ~n_packets:300 ~loss_p () in
      is_strictly_increasing out)

let prop_lossless_complete =
  QCheck.Test.make
    ~name:"seq resequencer: lossless delivery is complete and exact" ~count:80
    QCheck.(pair (int_range 0 1000) (Arb.int_range 1 5))
    (fun (seed, n_channels) ->
      let out, _ = run ~seed ~n_channels ~n_packets:250 ~loss_p:0.0 () in
      out = List.init 250 Fun.id)

let suites =
  [
    ( "seq_resequencer",
      [
        Alcotest.test_case "lossless fast path" `Quick test_lossless_uses_fast_path;
        Alcotest.test_case "loss never reorders" `Quick test_loss_never_reorders;
        Alcotest.test_case "without fast path" `Quick test_without_fast_path;
        Alcotest.test_case "blocks on empty channel" `Quick
          test_blocking_on_empty_channel;
        Alcotest.test_case "gap skip" `Quick test_gap_skip_when_provably_lost;
        Alcotest.test_case "markers ignored" `Quick test_markers_ignored;
        Alcotest.test_case "drain sorted" `Quick test_drain_sorted;
        Alcotest.test_case "arity checks" `Quick test_arity_checks;
        QCheck_alcotest.to_alcotest prop_guaranteed_fifo;
        QCheck_alcotest.to_alcotest prop_lossless_complete;
      ] );
  ]
