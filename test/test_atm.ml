(* Tests for the ATM substrate: AAL5 segmentation/reassembly, the EPD
   switch, and packet striping over VCs with OAM-cell markers. *)

open Stripe_netsim
open Stripe_packet
open Stripe_atm

let test_cells_for () =
  (* 40 B + 8 trailer = 48 -> 1 cell; 41 -> 2; 1000 -> 21. *)
  Alcotest.(check int) "one cell" 1 (Aal5.cells_for 40);
  Alcotest.(check int) "two cells" 2 (Aal5.cells_for 41);
  Alcotest.(check int) "1000B" 21 (Aal5.cells_for 1000);
  Alcotest.(check int) "wire bytes" (21 * 53) (Aal5.wire_bytes 1000)

let test_segment_shape () =
  let cells = Aal5.segment ~vci:7 (Packet.data ~seq:3 ~size:100 ()) in
  Alcotest.(check int) "cell count" 3 (List.length cells);
  List.iteri
    (fun i cell ->
      Alcotest.(check int) "vci" 7 cell.Cell.vci;
      Alcotest.(check bool) "eof only on last" (i = 2) (Cell.is_eof cell))
    cells

let test_segment_rejects_marker () =
  Alcotest.check_raises "marker rejected"
    (Invalid_argument "Aal5.segment: marker packet") (fun () ->
      ignore
        (Aal5.segment ~vci:0 (Packet.marker ~channel:0 ~round:0 ~dc:1 ~born:0.0 ())))

let test_reassembly_roundtrip () =
  let out = ref [] in
  let r = Aal5.Reassembler.create ~deliver:(fun p -> out := p :: !out) () in
  List.iter
    (fun pkt -> List.iter (Aal5.Reassembler.receive r) (Aal5.segment ~vci:0 pkt))
    [ Packet.data ~seq:0 ~size:100 (); Packet.data ~seq:1 ~size:2000 () ];
  let out = List.rev !out in
  Alcotest.(check (list (pair int int))) "sizes and seqs reconstructed"
    [ (0, 100); (1, 2000) ]
    (List.map (fun p -> (p.Packet.seq, p.Packet.size)) out);
  Alcotest.(check int) "no corruption" 0 (Aal5.Reassembler.corrupted_frames r)

let test_reassembly_detects_missing_cell () =
  let out = ref 0 in
  let r = Aal5.Reassembler.create ~deliver:(fun _ -> incr out) () in
  let cells = Aal5.segment ~vci:0 (Packet.data ~seq:0 ~size:1000 ()) in
  (* Drop the third cell. *)
  List.iteri (fun i c -> if i <> 2 then Aal5.Reassembler.receive r c) cells;
  Alcotest.(check int) "frame discarded" 0 !out;
  Alcotest.(check int) "corruption counted" 1 (Aal5.Reassembler.corrupted_frames r);
  (* The stream recovers for the next frame. *)
  List.iter (Aal5.Reassembler.receive r)
    (Aal5.segment ~vci:0 (Packet.data ~seq:1 ~size:500 ()));
  Alcotest.(check int) "next frame delivered" 1 !out

let test_reassembly_detects_interleaving () =
  (* Cell-striping artifact: two frames' cells interleaved on one VC. *)
  let out = ref 0 in
  let r = Aal5.Reassembler.create ~deliver:(fun _ -> incr out) () in
  let a = Aal5.segment ~vci:0 (Packet.data ~seq:0 ~size:100 ()) in
  let b = Aal5.segment ~vci:0 (Packet.data ~seq:1 ~size:100 ()) in
  (match (a, b) with
  | a0 :: a_rest, b0 :: _ ->
    Aal5.Reassembler.receive r a0;
    Aal5.Reassembler.receive r b0;
    List.iter (Aal5.Reassembler.receive r) a_rest
  | _ -> Alcotest.fail "expected multi-cell frames");
  Alcotest.(check int) "interleaved frames rejected" 0 !out;
  Alcotest.(check bool) "corruption counted" true
    (Aal5.Reassembler.corrupted_frames r >= 1)

let frame_cells ~vci ~seq ~size = Aal5.segment ~vci (Packet.data ~seq ~size ())

let test_epd_passes_when_uncongested () =
  let sim = Sim.create () in
  let got = ref 0 in
  let sw =
    Epd_switch.create sim
      ~policy:(Epd_switch.Early_packet_discard { threshold = 50 })
      ~buffer_cells:100 ~out_rate_bps:100e6
      ~deliver:(fun _ -> incr got)
      ()
  in
  List.iter (Epd_switch.input sw) (frame_cells ~vci:1 ~seq:0 ~size:1000);
  Sim.run sim;
  Alcotest.(check int) "all cells through" 21 !got;
  Alcotest.(check int) "nothing shed" 0 (Epd_switch.frames_shed_early sw)

let test_epd_sheds_whole_frames () =
  let sim = Sim.create () in
  let sw =
    Epd_switch.create sim
      ~policy:(Epd_switch.Early_packet_discard { threshold = 10 })
      ~buffer_cells:1000 ~out_rate_bps:1e6
      ~deliver:(fun _ -> ())
      ()
  in
  (* Burst enough frames at t=0 that occupancy passes the threshold. *)
  for seq = 0 to 9 do
    List.iter (Epd_switch.input sw) (frame_cells ~vci:1 ~seq ~size:1000)
  done;
  Alcotest.(check bool) "later frames shed at the boundary" true
    (Epd_switch.frames_shed_early sw > 0);
  (* Shedding is all-or-nothing per frame: drops are a multiple of 21. *)
  Alcotest.(check int) "whole frames only" 0 (Epd_switch.cells_dropped sw mod 21);
  Sim.run sim

let test_tail_drop_clips_frames () =
  let sim = Sim.create () in
  let sw =
    Epd_switch.create sim ~policy:Epd_switch.Tail_drop ~buffer_cells:30
      ~out_rate_bps:1e6
      ~deliver:(fun _ -> ())
      ()
  in
  for seq = 0 to 4 do
    List.iter (Epd_switch.input sw) (frame_cells ~vci:1 ~seq ~size:1000)
  done;
  Sim.run sim;
  Alcotest.(check bool) "cells dropped" true (Epd_switch.cells_dropped sw > 0);
  Alcotest.(check bool) "but frames were clipped, not shed" true
    (Epd_switch.cells_dropped sw mod 21 <> 0
    || Epd_switch.frames_shed_early sw = 0)

(* Striping over VCs with OAM markers, end to end over lossy cell links.
   Cell loss is applied manually so it can be stopped mid-run, letting
   the marker-recovery guarantee be checked on the tail. *)
let run_stripe_vc ~loss_p ~loss_stop ~n_packets =
  let sim = Sim.create () in
  let rng = Rng.create 17 in
  let loss_rng = Rng.create 18 in
  let out = ref [] in
  let vc_links = ref [||] in
  let svc =
    Stripe_vc.create ~n_vcs:2 ~quanta:[| 1500; 1500 |]
      ~marker:(Stripe_core.Marker.make ~every_rounds:4 ())
      ~send_cell:(fun ~vc cell ->
        ignore (Link.send !vc_links.(vc) ~size:Cell.size cell))
      ~deliver:(fun pkt -> out := pkt.Packet.seq :: !out)
      ()
  in
  vc_links :=
    Array.init 2 (fun i ->
        Link.create sim
          ~rate_bps:20e6
          ~prop_delay:(0.002 +. (0.004 *. float_of_int i))
          ~rng:(Rng.split rng)
          ~deliver:(fun cell ->
            let drop =
              loss_p > 0.0
              && Sim.now sim < loss_stop
              && (not (Cell.is_oam cell))
              && Rng.bernoulli loss_rng ~p:loss_p
            in
            if not drop then Stripe_vc.receive_cell svc ~vc:i cell)
          ());
  for seq = 0 to n_packets - 1 do
    Stripe_vc.push svc (Packet.data ~seq ~size:(100 + Rng.int rng 1400) ())
  done;
  Sim.run sim;
  (List.rev !out, svc)

let test_stripe_vc_lossless_fifo () =
  let out, svc = run_stripe_vc ~loss_p:0.0 ~loss_stop:0.0 ~n_packets:400 in
  Alcotest.(check (list int)) "FIFO datagrams over cells"
    (List.init 400 Fun.id) out;
  Alcotest.(check int) "no corrupted frames" 0 (Stripe_vc.corrupted_frames svc);
  Alcotest.(check bool) "OAM markers flowed" true (Stripe_vc.markers_sent svc > 0)

let test_stripe_vc_cell_loss_recovers () =
  (* Cell loss corrupts whole AAL5 frames (packet loss), and the OAM
     marker protocol keeps resynchronizing. *)
  (* ~0.2 s of transmission; cell loss stops at 0.1 s. *)
  let out, svc = run_stripe_vc ~loss_p:0.002 ~loss_stop:0.1 ~n_packets:1200 in
  Alcotest.(check bool) "frames were corrupted" true
    (Stripe_vc.corrupted_frames svc > 0);
  Alcotest.(check bool) "most of the stream still arrives" true
    (List.length out > 900);
  (* After losses stop, marker recovery restores FIFO: the last quarter
     of deliveries must be increasing. *)
  let tail = List.filteri (fun i _ -> i >= List.length out - 300) out in
  Alcotest.(check bool) "tail in order" true (List.sort compare tail = tail)

let suites =
  [
    ( "atm",
      [
        Alcotest.test_case "cells_for" `Quick test_cells_for;
        Alcotest.test_case "segment shape" `Quick test_segment_shape;
        Alcotest.test_case "segment rejects marker" `Quick test_segment_rejects_marker;
        Alcotest.test_case "reassembly roundtrip" `Quick test_reassembly_roundtrip;
        Alcotest.test_case "missing cell" `Quick test_reassembly_detects_missing_cell;
        Alcotest.test_case "interleaving" `Quick test_reassembly_detects_interleaving;
        Alcotest.test_case "epd uncongested" `Quick test_epd_passes_when_uncongested;
        Alcotest.test_case "epd sheds frames" `Quick test_epd_sheds_whole_frames;
        Alcotest.test_case "tail drop clips" `Quick test_tail_drop_clips_frames;
        Alcotest.test_case "stripe over VCs fifo" `Quick test_stripe_vc_lossless_fifo;
        Alcotest.test_case "stripe over VCs loss" `Quick
          test_stripe_vc_cell_loss_recovers;
      ] );
  ]
