(** Receiver-side channel guard: restores the loss-only FIFO contract.

    The protocol's correctness theorems assume each channel is a
    loss-only FIFO pipe (PROTOCOL.md §1). This guard sits between
    physical arrival and the resequencer and turns a misbehaving channel
    — one that reorders, duplicates, or corrupts — back into one the
    resequencer can trust, at the cost of a small per-channel sequence
    tag added by the sender:

    - {b duplicates} are identified by their tag and discarded
      ([Dup_discard] event);
    - {b reordering} within a bounded window is undone: an early arrival
      is held until the tags before it show up, then released in tag
      order ([Reorder_restore] event per held packet released);
    - {b corrupted markers} (damage the link CRC missed, caught by the
      marker checksum — {!Stripe_packet.Packet.marker_valid}) are
      discarded and counted ([Corrupt_discard] event) {e but their tag is
      consumed}, so the stream position advances; the resequencer
      resynchronizes from the next good marker exactly as for a lost one
      (Theorem 5.1).

    A tag gap that never fills (a genuinely lost packet) is declared
    lost when the hold window overflows: the guard advances past the gap
    and releases what it holds in order, degrading to exactly the loss
    the protocol already tolerates. The guard never blocks and holds at
    most [window] packets per channel.

    The tag is {e out of band} of the payload (think link-level shim
    header with its own CRC coverage), so the paper's "data packets are
    never modified" stance is preserved at the protocol layer: the guard
    strips the tag before the resequencer ever sees the packet. *)

module Tx : sig
  type t
  (** Sender-side tag stamper: one sequential counter per channel,
      covering every packet (data and markers alike) dispatched on it. *)

  val create : n:int -> t

  val next_tag : t -> channel:int -> int
  (** Assign the next tag for [channel], starting at 0. *)

  val reset : t -> unit
  (** Restart every channel's tags at 0 (sender crash/reset). *)
end

type t

val create :
  n:int ->
  ?window:int ->
  ?now:(unit -> float) ->
  ?sink:Stripe_obs.Sink.t ->
  deliver:(channel:int -> Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** [create ~n ~deliver ()] guards [n] channels, forwarding in-tag-order
    packets to [deliver]. [window] (default 32, must be > 0) bounds the
    out-of-order packets held per channel; when a channel holds more, the
    oldest gap is declared lost. [sink] receives [Dup_discard],
    [Reorder_restore], and [Corrupt_discard] events. *)

val receive : t -> channel:int -> tag:int -> Stripe_packet.Packet.t -> unit
(** Process one physical arrival carrying the sender's [tag]. In-order
    arrivals forward immediately (no allocation, no event). *)

val flush : t -> unit
(** Declare every outstanding gap lost and release everything held, in
    tag order (end of run, or a timer deciding the gaps will never
    fill). *)

(** Counters (cumulative since creation). *)

val forwarded : t -> int
(** Packets handed to [deliver]. *)

val dup_discards : t -> int
(** Arrivals discarded as duplicates — or as stragglers arriving after
    their gap was already declared lost (delivering those would break
    FIFO). *)

val reorder_restores : t -> int
(** Held packets whose gap {e filled}: an arrival completed the run and
    tag order was genuinely repaired before the stream position passed
    them. Releases forced by a window shed or {!flush} are {e not}
    restores: the downstream delivery-order gauges judge them. *)

val corrupt_discards : t -> int
(** Markers discarded for a checksum mismatch. *)

val held_packets : t -> int
(** Out-of-order packets currently held across all channels. *)

val max_held_packets : t -> int
(** High-water mark of {!held_packets}. *)
