(** ATM cells.

    The paper's conclusions single out ATM virtual circuits as a prime
    striping substrate: markers can ride OAM cells "sent on the same
    Virtual Circuit that implements the channel", and it argues for
    striping at the {e packet} layer rather than the cell layer, because
    cell striping makes AAL boundaries unavailable inside the network,
    defeating early-discard policies [RF94]. This module models what
    those arguments need: 53-byte cells with a VCI, the AAL5
    end-of-frame indication (the PTI user bit), and an OAM cell type
    that can carry marker state.

    Measurement-only metadata ([dg_seq], [dg_cells], [dg_size],
    [cell_idx]) identifies the datagram a cell belongs to, standing in
    for the payload bytes a real cell would carry. *)

type kind =
  | Data of {
      eof : bool;  (** AAL5 end-of-frame (PTI user bit). *)
      dg_seq : int;  (** Datagram the cell belongs to. *)
      dg_cells : int;  (** Cells in that datagram's AAL5 frame. *)
      dg_size : int;  (** Original datagram size in bytes. *)
      cell_idx : int;  (** Index of this cell within the frame. *)
      dg_frame : int;  (** Application frame id (video), -1 otherwise. *)
    }
  | Oam of Stripe_packet.Packet.t
      (** OAM cell carrying a striping marker packet. *)

type t = {
  vci : int;
  kind : kind;
}

val size : int
(** 53 bytes on the wire, always. *)

val payload : int
(** 48 payload bytes per cell. *)

val is_eof : t -> bool
(** False for OAM cells. *)

val is_oam : t -> bool

val pp : Format.formatter -> t -> unit
