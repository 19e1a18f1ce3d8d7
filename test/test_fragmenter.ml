(* Tests for the fragmenting (minipacket) striping mode: exact splits,
   parallel reassembly, in-order release, and loss amplification. *)

open Stripe_core
open Stripe_packet

let collect_fragments shares pkts =
  let out = ref [] in
  let sender =
    Fragmenter.Sender.create ~shares
      ~emit:(fun ~channel f -> out := (channel, f) :: !out)
      ()
  in
  List.iter (Fragmenter.Sender.push sender) pkts;
  (sender, List.rev !out)

let test_split_conserves_bytes () =
  let _, frags =
    collect_fragments [| 1.0; 2.0; 3.0 |] [ Packet.data ~seq:0 ~size:1000 () ]
  in
  Alcotest.(check int) "one fragment per channel" 3 (List.length frags);
  let payloads = List.map (fun (_, f) -> f.Fragmenter.fg_payload) frags in
  Alcotest.(check int) "payloads sum to the datagram" 1000
    (List.fold_left ( + ) 0 payloads);
  (* 1:2:3 split of 1000 ~ 167/333/500. *)
  Alcotest.(check (list int)) "proportional split" [ 167; 333; 500 ] payloads

let test_tiny_packet_still_covers_channels () =
  let _, frags =
    collect_fragments [| 1.0; 1.0; 1.0; 1.0 |] [ Packet.data ~seq:0 ~size:2 () ]
  in
  Alcotest.(check int) "four fragments for a 2-byte packet" 4 (List.length frags);
  let payloads = List.map (fun (_, f) -> f.Fragmenter.fg_payload) frags in
  Alcotest.(check int) "bytes conserved" 2 (List.fold_left ( + ) 0 payloads);
  Alcotest.(check bool) "some fragments are header-only" true
    (List.mem 0 payloads)

let test_sender_accounting () =
  let sender, _ =
    collect_fragments [| 1.0; 1.0 |]
      [ Packet.data ~seq:0 ~size:500 (); Packet.data ~seq:1 ~size:300 () ]
  in
  Alcotest.(check int) "pushed" 2 (Fragmenter.Sender.pushed sender);
  Alcotest.(check int) "byte split"
    (Fragmenter.Sender.channel_payload_bytes sender 0)
    (Fragmenter.Sender.channel_payload_bytes sender 1);
  Alcotest.(check int) "total accounted" 800
    (Fragmenter.Sender.channel_payload_bytes sender 0
    + Fragmenter.Sender.channel_payload_bytes sender 1)

let test_wire_size () =
  let f =
    {
      Fragmenter.fg_id = 0; fg_channel = 0; fg_n = 2; fg_payload = 100;
      fg_total = 200; fg_seq = 0; fg_frame = -1; fg_born = 0.0;
    }
  in
  Alcotest.(check int) "payload + header" (100 + Fragmenter.header_size)
    (Fragmenter.wire_size f)

(* End-to-end: fragment, interleave arrivals arbitrarily per channel
   FIFO, reassemble. *)
let roundtrip ~seed ~shares ~loss_p ~sizes =
  let rng = Stripe_netsim.Rng.create seed in
  let n = Array.length shares in
  let wires = Array.init n (fun _ -> Queue.create ()) in
  let sender =
    Fragmenter.Sender.create ~shares
      ~emit:(fun ~channel f -> Queue.add f wires.(channel))
      ()
  in
  List.iteri
    (fun seq size -> Fragmenter.Sender.push sender (Packet.data ~seq ~size ()))
    sizes;
  let delivered = ref [] in
  let reasm =
    Fragmenter.Reassembler.create ~n_channels:n
      ~deliver:(fun pkt -> delivered := pkt :: !delivered)
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
      let f = Queue.pop q in
      if not (Stripe_netsim.Rng.bernoulli rng ~p:loss_p) then
        Fragmenter.Reassembler.receive reasm ~channel:c f;
      shuttle ()
  in
  shuttle ();
  (List.rev !delivered, reasm)

let test_lossless_roundtrip () =
  let rng = Stripe_netsim.Rng.create 3 in
  let sizes = List.init 300 (fun _ -> 10 + Stripe_netsim.Rng.int rng 8000) in
  let out, reasm = roundtrip ~seed:4 ~shares:[| 2.0; 1.0; 1.0 |] ~loss_p:0.0 ~sizes in
  Alcotest.(check int) "all delivered" 300 (List.length out);
  Alcotest.(check (list int)) "in order"
    (List.init 300 Fun.id)
    (List.map (fun p -> p.Packet.seq) out);
  Alcotest.(check (list int)) "sizes reconstructed" sizes
    (List.map (fun p -> p.Packet.size) out);
  Alcotest.(check int) "no drops" 0 (Fragmenter.Reassembler.dropped_incomplete reasm)

let test_loss_drops_whole_datagram () =
  let sizes = List.init 400 (fun _ -> 1000) in
  let out, reasm = roundtrip ~seed:5 ~shares:[| 1.0; 1.0 |] ~loss_p:0.05 ~sizes in
  let seqs = List.map (fun p -> p.Packet.seq) out in
  Alcotest.(check bool) "delivery stays in order" true
    (List.sort compare seqs = seqs);
  Alcotest.(check bool) "incomplete datagrams dropped" true
    (Fragmenter.Reassembler.dropped_incomplete reasm > 0);
  (* Loss amplification: with 2 fragments at 5% each, ~9.75% of datagrams
     die - more than the per-fragment rate. *)
  let drop_rate =
    float_of_int (Fragmenter.Reassembler.dropped_incomplete reasm) /. 400.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f amplified above 0.05" drop_rate)
    true (drop_rate > 0.06)

let test_bundle_mtu_exceeds_members () =
  (* An 8 KB datagram fits nowhere individually but fragments fit
     everywhere: the bundle MTU grows with the member count. *)
  let _, frags =
    collect_fragments [| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
      [ Packet.data ~seq:0 ~size:8192 () ]
  in
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "each fragment within a 1500 MTU" true
        (Fragmenter.wire_size f <= 1500))
    frags

let test_validation () =
  Alcotest.check_raises "no channels"
    (Invalid_argument "Fragmenter.Sender.create: no channels") (fun () ->
      ignore (Fragmenter.Sender.create ~shares:[||] ~emit:(fun ~channel:_ _ -> ()) ()));
  Alcotest.check_raises "bad share"
    (Invalid_argument "Fragmenter.Sender.create: shares must be positive")
    (fun () ->
      ignore
        (Fragmenter.Sender.create ~shares:[| 1.0; 0.0 |]
           ~emit:(fun ~channel:_ _ -> ())
           ()))

let prop_roundtrip_fifo =
  QCheck.Test.make
    ~name:"fragmenter: reassembly is ordered and complete-or-dropped under loss"
    ~count:80
    QCheck.(triple (int_range 0 1000) (float_range 0.0 0.3) (Arb.int_range 1 4))
    (fun (seed, loss_p, n) ->
      let rng = Stripe_netsim.Rng.create (seed + 1) in
      let sizes = List.init 150 (fun _ -> 1 + Stripe_netsim.Rng.int rng 9000) in
      let shares = Array.init n (fun i -> 1.0 +. float_of_int i) in
      let out, _reasm = roundtrip ~seed ~shares ~loss_p ~sizes in
      let seqs = List.map (fun p -> p.Packet.seq) out in
      List.sort compare seqs = seqs
      && (loss_p > 0.0 || List.length out = 150)
      && List.for_all2
           (fun p expected -> p.Packet.size = expected)
           out
           (List.filteri (fun i _ -> List.mem i seqs) sizes))

let suites =
  [
    ( "fragmenter",
      [
        Alcotest.test_case "split conserves bytes" `Quick test_split_conserves_bytes;
        Alcotest.test_case "tiny packets" `Quick test_tiny_packet_still_covers_channels;
        Alcotest.test_case "sender accounting" `Quick test_sender_accounting;
        Alcotest.test_case "wire size" `Quick test_wire_size;
        Alcotest.test_case "lossless roundtrip" `Quick test_lossless_roundtrip;
        Alcotest.test_case "loss amplification" `Quick test_loss_drops_whole_datagram;
        Alcotest.test_case "bundle mtu" `Quick test_bundle_mtu_exceeds_members;
        Alcotest.test_case "validation" `Quick test_validation;
        QCheck_alcotest.to_alcotest prop_roundtrip_fifo;
      ] );
  ]
