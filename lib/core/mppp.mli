(** Multilink PPP (RFC 1717) — the IETF alternative the paper contrasts.

    §2.1: "The Internet standard RFC1717 specifies MPPP ... a framework
    and packet formats for striping across multiple PPP links. However,
    no algorithm is specified for either the sending or the receiving
    end. In addition, the sender modifies each packet by adding sequence
    numbers to it." strIPe differs by working over any interface, never
    modifying data packets, and actually specifying the algorithms.

    This module implements the RFC's mechanism so the comparison can be
    measured: every transmitted fragment carries a {e multilink header}
    (4 bytes in the long-sequence format) holding a global sequence
    number and begin/end flags. A datagram may be sent whole
    (B and E both set) or fragmented across links. The receiver keeps
    per-link streams; because each link delivers its sequence numbers in
    increasing order, the minimum over the links of the most recent
    sequence number per link — the RFC's [M] — lower-bounds everything
    still in flight, so a gap below [M] is a detected loss and any
    partially assembled datagram spanning it is discarded. Delivery is in
    sequence-number order: guaranteed FIFO, bought with a header on every
    fragment.

    Since the paper's scheme deliberately adds no header, the measurable
    trade is: MPPP gets guaranteed FIFO and a bundle MTU above the member
    MTU (via fragmentation), and pays header bytes per fragment plus the
    requirement that every link speak the modified format. *)

type fragment = {
  mp_seq : int;  (** Global multilink sequence number, consecutive. *)
  mp_begin : bool;
  mp_end : bool;
  mp_payload : int;  (** Payload bytes carried. *)
  mp_dg_seq : int;  (** Measurement: originating datagram. *)
  mp_dg_size : int;  (** Measurement: original datagram size. *)
}

val wire_size : fragment -> int

module Sender : sig
  type t

  val create :
    scheduler:Scheduler.t ->
    ?fragment_threshold:int ->
    emit:(link:int -> fragment -> unit) ->
    unit ->
    t
  (** Datagrams at most [fragment_threshold] bytes (default 1500) travel
      as a single B+E fragment on the link the scheduler picks; larger
      ones are split into threshold-sized fragments, each dispatched
      through the scheduler independently (the RFC leaves the policy
      open; any {!Scheduler} works because the header carries the
      ordering). *)

  val push : t -> Stripe_packet.Packet.t -> unit

  val pushed : t -> int

  val fragments_sent : t -> int

  val header_bytes_sent : t -> int
  (** Total overhead added to the wire — what "no header modification"
      saves. *)
end

module Receiver : sig
  type t

  val create :
    n_links:int -> deliver:(Stripe_packet.Packet.t -> unit) -> unit -> t

  val receive : t -> link:int -> fragment -> unit

  val delivered : t -> int

  val lost_fragments : t -> int
  (** Sequence numbers skipped via the minimum-sequence rule. *)

  val discarded_datagrams : t -> int
  (** Datagrams dropped because one of their fragments was lost. *)

  val pending : t -> int
end
