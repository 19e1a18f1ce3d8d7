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

type kind =
  | Data
  | Marker of {
    m_channel : int;  (** Sender's number for the channel the marker rides. *)
    m_round : int;  (** Round number of the next data packet on the channel. *)
    m_dc : int;  (** Deficit counter value for that next data packet. *)
    m_credit : int;
        (** Piggybacked FCVC credit, a non-negative cumulative limit when
            flow control is on; {!no_credit} otherwise. An [int] rather
            than an option, so a credit-carrying marker allocates no
            [Some]. *)
    m_reset : bool;
        (** Reset barrier (§5: node crashes are handled "by doing a
            reset"): the sender reinitialized its state; data behind this
            marker belongs to the fresh epoch. The receiver reinitializes
            once it has reached the reset marker on every channel. *)
    m_epoch : int;
        (** Sender incarnation number. Graceful resets (retune and resume)
            keep the epoch; only a crash-restart increments it.
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
      (** An inline record: the constructor's block holds the fields.
          Read them by matching on [pkt.kind]. *)

(** Workload tags: what the applications above the stripe put in their
    own headers. The striping protocol reads none of them (only the
    hashing baseline reads [flow]); they ride in a block of their own so
    that the common untagged packet shares one {!no_meta} and its record
    stays small (DESIGN.md §8). *)
type meta = {
  flow : int;  (** Flow/address label, used only by the hashing baseline. *)
  frame : int;  (** Application frame id (video workloads); -1 otherwise. *)
  off : int;
      (** Transport byte offset — what a TCP-like header would carry;
          opaque to the striping protocol. -1 when unused. Retransmissions
          share [off] but get a fresh [seq]. *)
}

type t = {
  seq : int;  (** Measurement-only: position in the sender's input stream. *)
  size : int;  (** Wire size in bytes. *)
  kind : kind;
  meta : meta;
      (** Workload tags; physically {!no_meta} on every marker and on
          every data packet built without a tag. *)
  born : float;  (** Simulated time the packet entered the sender. *)
}

val no_meta : meta
(** The tags of an untagged packet: flow 0, frame -1, offset -1. One
    shared value, so an untagged packet allocates no tag block. *)

val no_credit : int
(** [m_credit] of a marker that carries no credit: [-1]. *)

val flow : t -> int
(** [t.meta.flow]. *)

val frame : t -> int
(** [t.meta.frame]. *)

val off : t -> int
(** [t.meta.off]. *)

val marker_size : int
(** Wire size of a marker packet (bytes). Small — the paper's marker only
    carries a counter, plus this implementation's integrity checksum. *)

val marker_checksum_of :
  channel:int -> round:int -> dc:int -> credit:int -> reset:bool ->
  epoch:int -> gen:int -> int
(** The 16-bit integrity checksum of a marker with these fields, the
    [m_cksum] every constructor fills in. A receiver that gets a stamp
    rather than a packet checks it with this. *)

val marker_valid : t -> bool
(** [false] iff [t] is a marker whose [m_cksum] does not match the
    checksum of its other fields: it was damaged in flight.
    Constructor-built markers and every data packet are valid. *)

val mangle_marker : salt:int -> t -> t
(** Simulated wire damage that slipped past the link CRC: perturbs the
    marker's (round, DC) stamp deterministically from [salt] while
    keeping the now-stale checksum, so {!marker_valid} is [false] on the
    result. Data packets are returned unchanged. Intended as the [corrupt]
    hook of a simulated link. *)

val data :
  ?flow:int -> ?frame:int -> ?off:int -> ?born:float -> seq:int -> size:int ->
  unit -> t
(** [data ~seq ~size ()] builds a data packet. [size] must be positive.
    A packet whose tags are all at their defaults shares {!no_meta}: it
    costs a 6-word record plus the boxed [born], 8 words in all. A
    tagged one adds a 4-word {!meta} block. *)

val marker :
  ?credit:int -> ?reset:bool -> ?epoch:int -> ?gen:int -> channel:int ->
  round:int -> dc:int -> born:float -> unit -> t
(** Build a marker packet; [credit] defaults to {!no_credit}, [reset]
    to [false], [epoch] and [gen] to [0]. Markers have [seq = -1] and
    share {!no_meta}. A marker costs its 6-word record and its 9-word
    [Marker] block, 15 words, plus the boxed [born] unless the caller
    passes one already boxed (a striper shares one among the markers of
    a batch). *)

val marker_with :
  credit:int -> reset:bool -> epoch:int -> gen:int -> channel:int ->
  round:int -> dc:int -> born:float -> t
(** {!marker} with every field explicit. For per-packet paths: each
    optional argument passed to {!marker} is boxed in an option at the
    call site. *)

val is_marker : t -> bool

val marker_sentinel : t
(** One static marker packet of {!marker_size} bytes that holds a
    marker's place in a packet queue whose owner keeps the marker's
    stamp beside it, in a ring of an {!Int_rings} (DESIGN.md §8, "a queued marker
    is a stamp, not a packet"). Its own fields mean nothing: it is
    stamped for channel -1. Compare with [==]. *)

val pp : Format.formatter -> t -> unit
(** E.g. ["#12(550B)"] for data, ["M(ch=1,R=7,DC=300)"] for markers. *)

val equal : t -> t -> bool
val compare_seq : t -> t -> int
