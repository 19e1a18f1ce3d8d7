open Stripe_packet

let cells_for n =
  if n < 0 then invalid_arg "Aal5.cells_for: negative size";
  (n + 8 + Cell.payload - 1) / Cell.payload

let wire_bytes n = cells_for n * Cell.size

let segment ~vci pkt =
  if Packet.is_marker pkt then invalid_arg "Aal5.segment: marker packet";
  let count = cells_for pkt.Packet.size in
  List.init count (fun cell_idx ->
      {
        Cell.vci;
        kind =
          Cell.Data
            {
              eof = cell_idx = count - 1;
              dg_seq = pkt.Packet.seq;
              dg_cells = count;
              dg_size = pkt.Packet.size;
              cell_idx;
              dg_frame = Packet.frame pkt;
            };
      })

module Reassembler = struct
  type t = {
    deliver : Packet.t -> unit;
    (* Accumulated cells of the frame in progress: (dg_seq, cell_idx)
       pairs in arrival order. *)
    mutable acc : (int * int * int * int) list;  (* seq, idx, cells, size *)
    mutable acc_frame : int;
    mutable n_delivered : int;
    mutable n_corrupted : int;
  }

  let create ~deliver () =
    { deliver; acc = []; acc_frame = -1; n_delivered = 0; n_corrupted = 0 }

  (* The modeled CRC: the accumulated run must be exactly cells 0..n-1 of
     one datagram, ending at its EOF. *)
  let frame_valid cells =
    match cells with
    | [] -> false
    | (seq0, _, count, _) :: _ ->
      List.length cells = count
      && List.for_all2
           (fun (seq, idx, _, _) expected_idx -> seq = seq0 && idx = expected_idx)
           cells
           (List.init (List.length cells) Fun.id)

  let receive t cell =
    match cell.Cell.kind with
    | Cell.Oam _ -> ()
    | Cell.Data d ->
      t.acc <- (d.dg_seq, d.cell_idx, d.dg_cells, d.dg_size) :: t.acc;
      if d.dg_frame >= 0 then t.acc_frame <- d.dg_frame;
      if d.eof then begin
        let cells = List.rev t.acc in
        if frame_valid cells then begin
          let _, _, _, size = List.hd cells in
          let seq, _, _, _ = List.hd cells in
          t.n_delivered <- t.n_delivered + 1;
          t.deliver (Packet.data ~frame:t.acc_frame ~seq ~size ())
        end
        else t.n_corrupted <- t.n_corrupted + 1;
        t.acc <- [];
        t.acc_frame <- -1
      end

  let delivered t = t.n_delivered
  let corrupted_frames t = t.n_corrupted
end
