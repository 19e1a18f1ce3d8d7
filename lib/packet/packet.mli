(** Packets exchanged over striped channels.

    A packet is either a {e data} packet or a {e marker} packet. The paper
    is emphatic that data packets are never modified by the striping
    protocol — no sequence number or header is added. Marker packets are
    control packets distinguished from data by a link-level {e codepoint}
    (e.g. a different Ethernet type field), which exists out of band of
    the payload (§5).

    Consequently the [seq] field here is {b measurement metadata only}: it
    records the position of the packet in the sender's input stream so
    that tests and benchmarks can detect misordering, exactly like the
    packet labels a–f in the paper's figures. No protocol component is
    allowed to read [seq] of a data packet to make decisions (the
    resequencer works purely from arrival channels and marker contents).

    Markers carry the sender's per-channel implicit packet number: the
    round number and deficit-counter value the next data packet on that
    channel will be sent with, plus an optional piggybacked flow-control
    credit (§6.3). *)

type marker = {
  m_channel : int;  (** Sender's number for the channel the marker rides. *)
  m_round : int;  (** Round number of the next data packet on the channel. *)
  m_dc : int;  (** Deficit counter value for that next data packet. *)
  m_credit : int option;  (** Piggybacked FCVC credit, if flow control is on. *)
  m_reset : bool;
      (** Reset barrier (§5: node crashes are handled "by doing a
          reset"): the sender reinitialized its state; data behind this
          marker belongs to the fresh epoch. The receiver reinitializes
          once it has reached the reset marker on every channel. *)
  m_epoch : int;
      (** Sender incarnation number. Graceful resets (retune, resume,
          add/remove) keep the epoch; only a crash-restart increments it.
          A receiver that sees a marker from a later epoch knows the
          sender lost all striping state: buffered pre-crash data on that
          channel is stale and the channel must join the crash reset
          barrier even if the restart's reset marker itself was lost
          (PROTOCOL.md §12). Packed into the marker's existing padding,
          so [marker_size] is unchanged; covered by [m_cksum]. *)
  m_gen : int;
      (** Reset-barrier generation within the epoch: the sender's count
          of §5 resets since its last (re)start, stamped on every marker
          (periodic and reset alike). §5 assumes one reset in flight at
          a time; under correlated faults barriers can overtake each
          other — a sender resetting again while some links were down
          loses part of each generation's markers — and without this tag
          the receiver can pair surviving markers from different
          generations, stranding a barrier forever or parking phantom
          half-barriers that trap data behind them. With the tag the
          receiver adopts generations in order and discards a reset
          marker from an already-adopted generation as the duplicate it
          is. Compared lexicographically after [m_epoch]; packed into
          marker padding like the epoch; covered by [m_cksum]. *)
  m_cksum : int;
      (** 16-bit integrity checksum over the other marker fields, filled
          in by the {!marker} constructor. A receiver verifies it with
          {!marker_valid} before trusting the (round, DC) stamp; a
          mismatch means wire damage the link CRC missed, and the marker
          must be discarded (treated as lost — Theorem 5.1 then bounds
          the resynchronization delay at the next good marker). *)
}

type kind =
  | Data
  | Marker of marker

type t = {
  seq : int;  (** Measurement-only: position in the sender's input stream. *)
  size : int;  (** Wire size in bytes. *)
  kind : kind;
  flow : int;  (** Flow/address label, used only by the hashing baseline. *)
  frame : int;  (** Application frame id (video workloads); -1 otherwise. *)
  off : int;
      (** Transport byte offset — what a TCP-like header would carry;
          opaque to the striping protocol. -1 when unused. Retransmissions
          share [off] but get a fresh [seq]. *)
  born : float;  (** Simulated time the packet entered the sender. *)
}

val marker_size : int
(** Wire size of a marker packet (bytes). Small — the paper's marker only
    carries a counter, plus this implementation's integrity checksum. *)

val marker_checksum : marker -> int
(** The checksum the marker's payload fields should carry. *)

val marker_valid : marker -> bool
(** Whether [m_cksum] matches {!marker_checksum} — false iff the marker
    was damaged in flight. Constructor-built markers are always valid. *)

val mangle_marker : salt:int -> t -> t
(** Simulated wire damage that slipped past the link CRC: perturbs the
    marker's (round, DC) stamp deterministically from [salt] while
    keeping the now-stale checksum, so {!marker_valid} is [false] on the
    result. Data packets are returned unchanged. Intended as the [corrupt]
    hook of a simulated link. *)

val data :
  ?flow:int -> ?frame:int -> ?off:int -> ?born:float -> seq:int -> size:int ->
  unit -> t
(** [data ~seq ~size ()] builds a data packet. [size] must be positive. *)

val marker :
  ?credit:int -> ?reset:bool -> ?epoch:int -> ?gen:int -> channel:int ->
  round:int -> dc:int -> born:float -> unit -> t
(** Build a marker packet; [reset] defaults to [false], [epoch] and
    [gen] to [0]. Markers have [seq = -1]. *)

val marker_with :
  credit:int option -> reset:bool -> epoch:int -> gen:int -> channel:int ->
  round:int -> dc:int -> born:float -> t
(** {!marker} with every field explicit. For per-packet paths: each
    optional argument passed to {!marker} is boxed in an option at the
    call site. *)

val is_marker : t -> bool

val get_marker : t -> marker
(** Raises [Invalid_argument] on a data packet. *)

val pp : Format.formatter -> t -> unit
(** E.g. ["#12(550B)"] for data, ["M(ch=1,R=7,DC=300)"] for markers. *)

val equal : t -> t -> bool
val compare_seq : t -> t -> int
