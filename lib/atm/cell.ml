type kind =
  | Data of {
      eof : bool;
      dg_seq : int;
      dg_cells : int;
      dg_size : int;
      cell_idx : int;
      dg_frame : int;
    }
  | Oam of Stripe_packet.Packet.t

type t = {
  vci : int;
  kind : kind;
}

let size = 53
let payload = 48

let is_eof t = match t.kind with Data d -> d.eof | Oam _ -> false

let is_oam t = match t.kind with Oam _ -> true | Data _ -> false

let pp fmt t =
  match t.kind with
  | Data d ->
    Format.fprintf fmt "cell(vci=%d,dg=%d,%d/%d%s)" t.vci d.dg_seq
      (d.cell_idx + 1) d.dg_cells
      (if d.eof then ",eof" else "")
  | Oam pkt ->
    Format.fprintf fmt "oam(vci=%d,%a)" t.vci Stripe_packet.Packet.pp pkt
