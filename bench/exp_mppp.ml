(* strIPe vs Multilink PPP (RFC 1717), the §2.1 comparison: MPPP adds a
   4-byte multilink header to every fragment and requires every link to
   speak the modified format; in exchange it gets guaranteed FIFO and
   loss detection. strIPe adds nothing to data packets and buys
   quasi-FIFO + fast marker resynchronization with a trickle of control
   cells. Same channels, same workload, measured side by side. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

type outcome = {
  delivered : int;
  ooo : int;
  overhead_bytes : int;  (* markers or multilink headers on the wire *)
  discarded : int;
  resync_note : string;
}

(* Channel [i]'s (rate, delay), the same for both protocols. *)
let channel i = (8e6, 0.003 +. (0.006 *. float_of_int i))

let channels sim ~loss_rng ~loss_p ~lossy ~receive =
  Array.init 2 (fun i ->
      let rate_bps, prop_delay = channel i in
      Link.create sim
        ~rate_bps ~prop_delay
        ~deliver:(fun pkt ->
          let drop = !lossy && Rng.bernoulli loss_rng ~p:loss_p in
          if not drop then receive i pkt)
        ())

let drive sim push ~n =
  let rng = Rng.create 3 in
  let seq = ref 0 in
  let rec tick () =
    if !seq < n then begin
      push (Packet.data ~seq:!seq ~size:(200 + Rng.int rng 1200) ());
      incr seq;
      Sim.schedule_after sim ~delay:0.0008 tick
    end
  in
  tick ()

let n_packets = 8000

let run_stripe ~loss_p =
  let sim = Sim.create () in
  let loss_rng = Rng.create 11 in
  let lossy = ref true in
  let log = Stripe_metrics.Recovery.create () in
  let deliver pkt =
    Stripe_metrics.Recovery.observe log ~now:(Sim.now sim) ~seq:pkt.Packet.seq
  in
  let engine = Srr.create ~quanta:[| 1400; 1400 |] () in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~channels:(Array.init 2 channel)
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~drop:(fun ~channel:_ _ -> !lossy && Rng.bernoulli loss_rng ~p:loss_p)
      ~deliver
      ()
  in
  let striper = Bundle.striper b in
  drive sim (Striper.push striper) ~n:n_packets;
  Sim.schedule sim ~at:5.0 (fun () -> lossy := false);
  Sim.run sim;
  {
    delivered = Stripe_metrics.Recovery.deliveries log;
    ooo = Stripe_metrics.Recovery.out_of_order log;
    overhead_bytes = Striper.markers_sent striper * Packet.marker_size;
    discarded =
      n_packets - Stripe_metrics.Recovery.deliveries log
      - Resequencer.pending (Bundle.resequencer b);
    resync_note = "quasi-FIFO; markers resync after loss";
  }

let run_mppp ~loss_p =
  let sim = Sim.create () in
  let loss_rng = Rng.create 11 in
  let lossy = ref true in
  let log = Stripe_metrics.Recovery.create () in
  let deliver pkt =
    Stripe_metrics.Recovery.observe log ~now:(Sim.now sim) ~seq:pkt.Packet.seq
  in
  let receiver = ref None in
  let links =
    channels sim ~loss_rng ~loss_p ~lossy ~receive:(fun i frag ->
        match !receiver with
        | Some r -> Mppp.Receiver.receive r ~link:i frag
        | None -> ())
  in
  let rx =
    Mppp.Receiver.create ~n_links:2
      ~deliver
      ()
  in
  receiver := Some rx;
  let sender =
    Mppp.Sender.create
      ~scheduler:(Scheduler.srr ~quanta:[| 1400; 1400 |] ())
      ~emit:(fun ~link f ->
        ignore (Link.send links.(link) ~size:(Mppp.wire_size f) f))
      ()
  in
  drive sim (Mppp.Sender.push sender) ~n:n_packets;
  Sim.schedule sim ~at:5.0 (fun () -> lossy := false);
  Sim.run sim;
  {
    delivered = Stripe_metrics.Recovery.deliveries log;
    ooo = Stripe_metrics.Recovery.out_of_order log;
    overhead_bytes = Mppp.Sender.header_bytes_sent sender;
    discarded = Mppp.Receiver.discarded_datagrams rx + Mppp.Receiver.lost_fragments rx;
    resync_note = "guaranteed FIFO; per-fragment headers";
  }

let run () =
  Exp_common.section
    "strIPe vs Multilink PPP (RFC 1717) - the Section 2.1 comparison";
  let tbl =
    Stripe_metrics.Table.create
      ~title:
        (Printf.sprintf
           "%d datagrams over 2 channels; 1%% loss that stops mid-run"
           n_packets)
      ~columns:
        [
          "protocol"; "delivered"; "out-of-order"; "overhead (B)";
          "lost/discarded"; "wire format";
        ]
  in
  let row name r fmt_note =
    Stripe_metrics.Table.add_row tbl
      [
        name;
        string_of_int r.delivered;
        string_of_int r.ooo;
        string_of_int r.overhead_bytes;
        string_of_int r.discarded;
        fmt_note;
      ]
  in
  let s = run_stripe ~loss_p:0.01 in
  let m = run_mppp ~loss_p:0.01 in
  row "strIPe (SRR+LR+markers)" s "unmodified data packets";
  row "MPPP (RFC 1717)" m "4-B header on every fragment";
  Stripe_metrics.Table.print tbl;
  Printf.printf "strIPe: %s\nMPPP:   %s\n\n" s.resync_note m.resync_note;
  print_endline
    "The trade the paper states: MPPP modifies every packet (impossible on";
  print_endline
    "fixed formats like ATM cells or maximum-sized frames) and specifies no";
  print_endline
    "striping/resequencing algorithm; strIPe leaves packets untouched and";
  print_endline
    "pays only periodic markers - a few dozen bytes per round - accepting";
  print_endline "quasi- instead of guaranteed FIFO.\n"
