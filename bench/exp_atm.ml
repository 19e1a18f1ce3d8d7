(* ATM ablation (§7, [RF94]): why stripe whole packets, not cells, across
   virtual circuits. Two VCs share a congested output port (2:1
   overload). Early packet discard keeps goodput near the output capacity
   - but only if the per-VC cell streams carry intact AAL5 frames, which
   cell-level striping destroys: "striping cells across channels would
   mean that AAL boundaries are unavailable within the ATM networks;
   however, these boundaries are needed in order to implement early
   discard policies". *)

open Stripe_netsim
open Stripe_packet
open Stripe_atm

type striping =
  | Packet_striping  (* whole AAL5 frames per VC (strIPe's choice) *)
  | Cell_striping  (* cells of each frame alternate across VCs *)

(* Reassembly that tolerates cell striping: collect cells of a datagram
   across VCs by id; complete = all indices present (the AAL5 CRC
   equivalent once cells are re-merged). *)
module Merge_reassembler = struct
  type entry = { mutable got : int; mutable cells : int; mutable size : int }

  type t = { table : (int, entry) Hashtbl.t; deliver : bytes:int -> unit }

  let create ~deliver () = { table = Hashtbl.create 512; deliver }

  let receive t cell =
    match cell.Cell.kind with
    | Cell.Oam _ -> ()
    | Cell.Data d ->
      let e =
        match Hashtbl.find_opt t.table d.dg_seq with
        | Some e -> e
        | None ->
          let e = { got = 0; cells = d.dg_cells; size = d.dg_size } in
          Hashtbl.add t.table d.dg_seq e;
          e
      in
      e.got <- e.got + 1;
      if e.got = e.cells then begin
        Hashtbl.remove t.table d.dg_seq;
        t.deliver ~bytes:e.size
      end
end

let run_case ~striping ~policy ~duration =
  let sim = Sim.create () in
  let rng = Rng.create 77 in
  let out_rate_bps = 20e6 in
  let goodput = Exp_common.goodput ~duration ~capacity_bps:out_rate_bps in
  let reasm =
    Merge_reassembler.create
      ~deliver:(fun ~bytes -> Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim) ~bytes)
      ()
  in
  let switch =
    Epd_switch.create sim ~policy ~buffer_cells:200 ~out_rate_bps
      ~deliver:(fun cell -> Merge_reassembler.receive reasm cell)
      ()
  in
  (* Eight input VCs, each fed at 5 Mbps: 2x overload at the port, with
     heavy interleaving so cell drops scatter across concurrent frames -
     the [RF94] regime. The input links model the access segments ahead
     of the switch. *)
  let n_vcs = 8 in
  let inputs =
    Array.init n_vcs (fun _ ->
        Link.create sim ~rate_bps:5e6 ~prop_delay:0.001
          ~jitter:(fun r -> Rng.float r 0.0002)
          ~rng:(Rng.split rng)
          ~deliver:(fun cell -> Epd_switch.input switch cell)
          ())
  in
  let offered = ref 0 in
  let send_frame seq size =
    offered := !offered + size;
    match striping with
    | Packet_striping ->
      (* Whole frames alternate across VCs (RR is enough here: equal
         frame sizes keep it fair, and the port merges both anyway). *)
      let vc = seq mod n_vcs in
      List.iter
        (fun cell -> ignore (Link.send inputs.(vc) ~size:Cell.size cell))
        (Aal5.segment ~vci:vc (Packet.data ~seq ~size ()))
    | Cell_striping ->
      (* Cells of each frame alternate across VCs; the VCI each cell
         carries is its transport VC, so the switch's per-VC EPD state
         sees interleaved fragments. *)
      List.iteri
        (fun k cell ->
          let vc = k mod n_vcs in
          ignore
            (Link.send inputs.(vc) ~size:Cell.size { cell with Cell.vci = vc }))
        (Aal5.segment ~vci:0 (Packet.data ~seq ~size ()))
  in
  let seq = ref 0 in
  let rec tick () =
    if Sim.now sim < duration then begin
      (* 1000-byte frames at 2x the output rate. *)
      while
        Array.fold_left (fun acc l -> acc + Link.queue_bytes l) 0 inputs
        < 40_000
      do
        send_frame !seq (900 + Rng.int rng 200);
        incr seq
      done;
      Sim.schedule_after sim ~delay:0.001 tick
    end
  in
  tick ();
  Sim.run sim;
  (Stripe_metrics.Throughput.mbps goodput, Epd_switch.frames_shed_early switch, Epd_switch.cells_dropped switch)

let run () =
  Exp_common.section
    "ATM ablation (Section 7 / [RF94]) - packet vs cell striping through a \
     congested EPD switch";
  let tbl =
    Stripe_metrics.Table.create
      ~title:
        "Goodput (Mbps of complete frames) at a 20 Mbps port, 8 VCs at 2x \
         overload, 1000-B frames"
      ~columns:
        [ "striping"; "discard policy"; "goodput"; "frames shed early"; "cells dropped" ]
  in
  let case label striping policy =
    let goodput, shed, dropped = run_case ~striping ~policy ~duration:2.0 in
    Stripe_metrics.Table.add_row tbl
      [
        label;
        (match policy with
        | Epd_switch.Tail_drop -> "tail drop"
        | Epd_switch.Early_packet_discard _ -> "EPD");
        Printf.sprintf "%.1f" goodput;
        string_of_int shed;
        string_of_int dropped;
      ]
  in
  let epd = Epd_switch.Early_packet_discard { threshold = 100 } in
  case "packet (strIPe)" Packet_striping epd;
  case "packet (strIPe)" Packet_striping Epd_switch.Tail_drop;
  case "cell" Cell_striping epd;
  case "cell" Cell_striping Epd_switch.Tail_drop;
  Stripe_metrics.Table.print tbl;
  print_endline
    "Packet striping preserves AAL5 boundaries per VC, so EPD sheds whole";
  print_endline
    "frames and goodput stays near the port rate. Cell striping interleaves";
  print_endline
    "fragments on every VC: EPD's frame bookkeeping is meaningless and";
  print_endline
    "clipped frames waste the port - the paper's reason to stripe at the";
  print_endline "packet layer across ATM circuits.\n"
