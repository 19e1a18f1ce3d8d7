(* Tests for packet construction, marker codepoints, queues, and size
   helpers. *)

open Stripe_packet

let test_data_fields () =
  let p = Packet.data ~flow:3 ~frame:7 ~off:100 ~born:1.5 ~seq:42 ~size:550 () in
  Alcotest.(check int) "seq" 42 p.Packet.seq;
  Alcotest.(check int) "size" 550 p.Packet.size;
  Alcotest.(check int) "flow" 3 (Packet.flow p);
  Alcotest.(check int) "frame" 7 (Packet.frame p);
  Alcotest.(check int) "off" 100 (Packet.off p);
  Alcotest.(check bool) "not a marker" false (Packet.is_marker p)

let test_data_defaults () =
  let p = Packet.data ~seq:0 ~size:1 () in
  Alcotest.(check int) "default flow" 0 (Packet.flow p);
  Alcotest.(check int) "default frame" (-1) (Packet.frame p);
  Alcotest.(check int) "default off" (-1) (Packet.off p);
  Alcotest.(check bool) "untagged shares no_meta" true
    (p.Packet.meta == Packet.no_meta);
  Alcotest.(check bool) "explicit defaults share no_meta" true
    ((Packet.data ~flow:0 ~frame:(-1) ~off:(-1) ~seq:0 ~size:1 ()).Packet.meta
    == Packet.no_meta);
  Alcotest.(check bool) "one tag gets its own block" false
    ((Packet.data ~frame:0 ~seq:0 ~size:1 ()).Packet.meta == Packet.no_meta)

let test_data_validation () =
  Alcotest.check_raises "zero size rejected"
    (Invalid_argument "Packet.data: size must be positive") (fun () ->
      ignore (Packet.data ~seq:0 ~size:0 ()))

let test_marker_fields () =
  let m = Packet.marker ~credit:12 ~channel:1 ~round:7 ~dc:300 ~born:2.0 () in
  Alcotest.(check bool) "is marker" true (Packet.is_marker m);
  Alcotest.(check int) "marker wire size" Packet.marker_size m.Packet.size;
  (match m.Packet.kind with
  | Packet.Marker info ->
    Alcotest.(check int) "channel" 1 info.m_channel;
    Alcotest.(check int) "round" 7 info.m_round;
    Alcotest.(check int) "dc" 300 info.m_dc;
    Alcotest.(check int) "credit" 12 info.m_credit
  | Data -> Alcotest.fail "marker built a data packet");
  Alcotest.(check bool) "marker shares no_meta" true
    (m.Packet.meta == Packet.no_meta);
  let bare = Packet.marker ~channel:1 ~round:7 ~dc:300 ~born:2.0 () in
  match bare.Packet.kind with
  | Packet.Marker info ->
    Alcotest.(check int) "no credit" Packet.no_credit info.m_credit
  | Data -> Alcotest.fail "marker built a data packet"

(* A data packet has no checksum to fail: [marker_valid] holds. *)
let test_marker_valid_on_data () =
  Alcotest.(check bool) "data packet is valid" true
    (Packet.marker_valid (Packet.data ~seq:0 ~size:10 ()))

let test_pp () =
  let p = Packet.data ~seq:12 ~size:550 () in
  Alcotest.(check string) "data pp" "#12(550B)" (Format.asprintf "%a" Packet.pp p);
  let m = Packet.marker ~channel:1 ~round:7 ~dc:300 ~born:0.0 () in
  Alcotest.(check string) "marker pp" "M(ch=1,R=7,DC=300)"
    (Format.asprintf "%a" Packet.pp m)

let test_fifo_queue_order () =
  let q = Fifo_queue.create () in
  Fifo_queue.push q ~size:10 "a";
  Fifo_queue.push q ~size:20 "b";
  Fifo_queue.push q ~size:30 "c";
  Alcotest.(check (option string)) "peek oldest" (Some "a") (Fifo_queue.peek q);
  Alcotest.(check (option string)) "pop oldest" (Some "a") (Fifo_queue.pop q);
  Alcotest.(check (list string)) "to_list order" [ "b"; "c" ] (Fifo_queue.to_list q)

let test_fifo_queue_bytes () =
  let q = Fifo_queue.create () in
  Fifo_queue.push q ~size:10 ();
  Fifo_queue.push q ~size:20 ();
  Alcotest.(check int) "bytes" 30 (Fifo_queue.bytes q);
  ignore (Fifo_queue.pop q);
  Alcotest.(check int) "bytes after pop" 20 (Fifo_queue.bytes q)

let test_fifo_queue_high_water () =
  let q = Fifo_queue.create () in
  Fifo_queue.push q ~size:10 ();
  Fifo_queue.push q ~size:10 ();
  ignore (Fifo_queue.pop q);
  ignore (Fifo_queue.pop q);
  Fifo_queue.push q ~size:50 ();
  Alcotest.(check int) "hw packets" 2 (Fifo_queue.high_water_packets q);
  Alcotest.(check int) "hw bytes" 50 (Fifo_queue.high_water_bytes q)

let test_fifo_queue_clear () =
  let q = Fifo_queue.create () in
  Fifo_queue.push q ~size:10 ();
  Fifo_queue.clear q;
  Alcotest.(check bool) "empty after clear" true (Fifo_queue.is_empty q);
  Alcotest.(check int) "bytes zero" 0 (Fifo_queue.bytes q)

let test_atm_overhead () =
  (* A 40-byte packet + 8-byte trailer fits one 48-byte cell payload:
     one 53-byte cell, overhead 13. *)
  Alcotest.(check int) "40B in one cell" 13 (Sizes.atm_overhead_for 40);
  (* 41..88 payload bytes need two cells. *)
  Alcotest.(check int) "41B needs two cells" (106 - 41) (Sizes.atm_overhead_for 41);
  (* 1000B: (1000+8+47)/48 = 21 cells; 21*53 - 1000 = 113. *)
  Alcotest.(check int) "1000B" 113 (Sizes.atm_overhead_for 1000)

let test_constants () =
  Alcotest.(check int) "ethernet mtu" 1500 Sizes.ethernet_mtu;
  Alcotest.(check int) "paper small packet" 200 Sizes.small_packet;
  Alcotest.(check int) "paper large packet" 1000 Sizes.large_packet

let prop_queue_fifo =
  QCheck.Test.make ~name:"fifo_queue preserves order for any sequence"
    ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let q = Fifo_queue.create () in
      List.iter (fun x -> Fifo_queue.push q ~size:1 x) xs;
      let rec drain acc =
        match Fifo_queue.pop q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = xs)

(* Random pushes, pops and clears over three rings of a small starting
   capacity, so that rings wrap and every slice doubles under the
   others' contents, against one list per ring. *)
let prop_int_rings_fifo =
  QCheck.Test.make ~name:"int_rings are per-ring fifos" ~count:200
    QCheck.(
      pair (Arb.int_range 1 3)
        (list (triple (int_range 0 2) (int_range 0 9) small_nat)))
    (fun (cap, ops) ->
      let t = Int_rings.create ~rings:2 ~cap in
      Int_rings.extend t ~rings:3;
      let model = Array.make 3 [] in
      List.for_all
        (fun (r, op, v) ->
          let ok =
            match model.(r) with
            | _ when op = 0 ->
              Int_rings.clear t r;
              model.(r) <- [];
              true
            | x :: rest when op <= 3 ->
              model.(r) <- rest;
              Int_rings.pop t r = x
            | _ ->
              Int_rings.push t r v;
              model.(r) <- model.(r) @ [ v ];
              true
          in
          ok && Int_rings.to_list t r = model.(r))
        ops)

let suites =
  [
    ( "packet",
      [
        Alcotest.test_case "data fields" `Quick test_data_fields;
        Alcotest.test_case "data defaults" `Quick test_data_defaults;
        Alcotest.test_case "data validation" `Quick test_data_validation;
        Alcotest.test_case "marker fields" `Quick test_marker_fields;
        Alcotest.test_case "marker_valid on data" `Quick
          test_marker_valid_on_data;
        Alcotest.test_case "pp" `Quick test_pp;
        Alcotest.test_case "queue order" `Quick test_fifo_queue_order;
        Alcotest.test_case "queue bytes" `Quick test_fifo_queue_bytes;
        Alcotest.test_case "queue high water" `Quick test_fifo_queue_high_water;
        Alcotest.test_case "queue clear" `Quick test_fifo_queue_clear;
        Alcotest.test_case "atm overhead" `Quick test_atm_overhead;
        Alcotest.test_case "constants" `Quick test_constants;
        QCheck_alcotest.to_alcotest prop_queue_fifo;
        QCheck_alcotest.to_alcotest prop_int_rings_fifo;
      ] );
  ]
