open Stripe_packet

type t = {
  n : int;
  striper : Stripe_core.Striper.t;
  reseq : Stripe_core.Resequencer.t;
  reassemblers : Aal5.Reassembler.t array;
  send_cell : vc:int -> Cell.t -> unit;
}

let create ~n_vcs ~quanta ?marker ?now ~send_cell ~deliver () =
  if n_vcs <= 0 then invalid_arg "Stripe_vc.create: no VCs";
  if Array.length quanta <> n_vcs then invalid_arg "Stripe_vc.create: quanta arity";
  let engine = Stripe_core.Srr.create ~quanta () in
  let self = ref None in
  let force_self () = match !self with Some x -> x | None -> assert false in
  let reseq =
    Stripe_core.Resequencer.create
      ~deficit:(Stripe_core.Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ pkt -> deliver pkt)
      ()
  in
  let striper =
    Stripe_core.Striper.create
      ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
      ?marker ?now
      ~emit:(fun ~channel pkt ->
        let t = force_self () in
        if Packet.is_marker pkt then
          (* Markers become OAM cells on the same VC. *)
          t.send_cell ~vc:channel
            { Cell.vci = channel; kind = Cell.Oam pkt }
        else
          List.iter
            (fun cell -> t.send_cell ~vc:channel cell)
            (Aal5.segment ~vci:channel pkt))
      ()
  in
  let reassemblers =
    Array.init n_vcs (fun vc ->
        Aal5.Reassembler.create
          ~deliver:(fun pkt ->
            let t = force_self () in
            Stripe_core.Resequencer.receive t.reseq ~channel:vc pkt)
          ())
  in
  let t =
    {
      n = n_vcs;
      striper;
      reseq;
      reassemblers;
      send_cell;
    }
  in
  self := Some t;
  t

(* Deficit counters are charged the datagram's payload size, on both the
   sending and the simulating (receiving) side — the quantities must
   match for the simulation to track, and the AAL5 cell padding is the
   same bounded factor on every VC, so payload-byte fairness equals
   wire-byte fairness up to one cell per packet. *)
let push t pkt =
  if Packet.is_marker pkt then invalid_arg "Stripe_vc.push: marker";
  Stripe_core.Striper.push t.striper pkt

let receive_cell t ~vc cell =
  if vc < 0 || vc >= t.n then invalid_arg "Stripe_vc.receive_cell: bad VC";
  match cell.Cell.kind with
  | Cell.Oam pkt -> Stripe_core.Resequencer.receive t.reseq ~channel:vc pkt
  | Cell.Data _ -> Aal5.Reassembler.receive t.reassemblers.(vc) cell

let corrupted_frames t =
  Array.fold_left
    (fun acc r -> acc + Aal5.Reassembler.corrupted_frames r)
    0 t.reassemblers

let markers_sent t = Stripe_core.Striper.markers_sent t.striper
let resequencer t = t.reseq
