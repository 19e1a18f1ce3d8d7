(** Deficit-counter round-robin engine.

    This is the state machine underlying all three round-robin schedulers
    in the paper, in both of their roles (fair queuing and load sharing):

    - {b SRR} (Surplus Round Robin, §3.5): byte cost, byte quanta. A
      channel may {e overdraw} — the deficit counter (DC) goes negative by
      up to one maximum packet — and is penalized by that surplus in the
      next round.
    - {b RR} (ordinary round robin): packet cost, quantum 1 — one packet
      per channel per round.
    - {b GRR} (generalized round robin, §6.2): packet cost, quantum
      [k_i] = the closest integer ratio of channel bandwidths.

    The engine also implements the {e implicit packet numbering} of §5:
    every packet sent while the pointer is at channel [c] is implicitly
    stamped with the pair [(R, D)] — the global round number and the DC
    value immediately before the send. [next_stamp] computes the stamp the
    {e next} data packet on a given channel will carry; this is exactly
    what marker packets transmit.

    State is mutable; an instance is used either by a sender (striping) or
    a receiver (resequencing). The receiver starts from the same initial
    state, which [clone_initial] provides. *)

type cost =
  | Bytes  (** DC counts bytes; packets cost their size. *)
  | Packets  (** DC counts packets; every packet costs 1. *)

type order =
  | Fixed  (** Channels visited in index order every round (classic RR). *)
  | Permuted of int
      (** Each round's visit order is an independent pseudo-random
          permutation derived purely from [(seed, round, width)] — the
          Sprinklers-style randomized stripe placement. Still causal in
          the §3.1 sense: a receiver that knows the seed deals the same
          order with no shared RNG state, so implicit numbering, markers,
          and reset barriers all carry over unchanged. *)

type stamp = { round : int; dc : int }
(** Implicit packet number: round number and DC before the send. *)

type event =
  | Begin_visit of { channel : int; round : int; dc : int }
      (** Quantum just added; [dc] is the post-addition value. *)
  | Consume of { channel : int; round : int; dc_before : int; dc_after : int }
      (** A packet charged to [channel]. *)
  | End_visit of { channel : int; round : int; dc : int }
      (** Pointer moving on; [dc] is the carried surplus/deficit. *)
  | New_round of { round : int }  (** Pointer wrapped; [round] is the new round. *)
  | Retune of { round : int; old_quanta : int array; new_quanta : int array }
      (** A new quantum vector took effect (at a round boundary, or at a
          reset); [round] is the first round served with [new_quanta]. *)

type t

val create :
  ?cost:cost -> ?overdraw:bool -> ?max_packet:int -> ?order:order ->
  quanta:int array -> unit -> t
(** [create ~quanta ()] builds an engine over [Array.length quanta]
    channels. Every quantum must be positive. [cost] defaults to [Bytes];
    [overdraw] defaults to [true] (SRR semantics); [order] defaults to
    [Fixed] and is carried by {!clone_initial}. [max_packet], when
    known, records the largest packet the engine will carry (the [Max] of
    Theorem 3.2's fairness bound); it is carried by {!clone_initial} and
    read back with {!max_packet}. With [overdraw:false]
    the engine behaves like strict DRR: a channel whose DC cannot cover
    the next packet is passed over instead of overdrawing — this variant
    is {e not} usable for logical reception (the selection then depends on
    the packet, making the receiver unable to simulate the sender; see
    §3.1 on non-causal algorithms) and is provided for the fairness
    ablation only. *)

val clone_initial : t -> t
(** Fresh engine with the same configuration, at the initial state. This
    is what a receiver uses to simulate the sender. The event hook is not
    copied. *)

val reinit : t -> unit
(** Reset the engine in place to its initial state (pointer at channel
    0, round 0, all deficit counters 0): the reset step of §5's crash
    recovery. The hook is kept, and so are suspension flags — a reset
    rebuilds protocol state but does not revive a dead channel. *)

val suspend : t -> int -> unit
(** [suspend t c] removes channel [c] from the rotation: [select] and
    [select_for] pass over it without granting a quantum, so its load is
    redistributed across the remaining channels and its DC freezes.
    Suspension is {e not} part of the simulated protocol state — the
    receiver cannot infer it from delivered packets — so a sender that
    suspends and later resumes a channel must resynchronize the receiver
    with the §5 reset barrier (see {!Striper.resume_channel}). If the
    pointer is parked on [c], it moves to the next active channel.
    Idempotent. *)

val resume : t -> int -> unit
(** Return a suspended channel to the rotation, with its DC reset to 0:
    the frozen pre-suspension counter is stale — replaying it would over-
    or under-serve the channel by up to a quantum against peers that kept
    running — so the channel re-enters with a clean slate (the reset
    barrier that normally follows renumbers rounds anyway). Idempotent:
    resuming a channel that is not suspended changes nothing. *)

val suspended : t -> int -> bool

val n_active : t -> int
(** Channels not currently suspended. *)

val any_active : t -> bool
(** [false] iff every channel is suspended, in which case [select] and
    [select_for] raise [Invalid_argument] — callers must check first and
    drop the packet instead. *)

val n_channels : t -> int
(** The width given at {!create}, fixed for the engine's lifetime. *)

val quanta : t -> int array

val has_quanta : t -> int array -> bool
(** [has_quanta t q] is [quanta t = q], without the copy. *)

val max_packet : t -> int option
(** The maximum packet size declared at {!create}, if any. *)

val round : t -> int
(** Global round number [G]; starts at 0 and increments when the pointer
    wraps from the last channel to the first. *)

val current : t -> int
(** Channel the round-robin pointer is at (under a permuted order, the
    channel the current visit-order position maps to). No side effects. *)

val order : t -> order
(** The visit-order discipline declared at {!create}. *)

val in_service : t -> bool
(** Whether the current channel's visit has begun (quantum added). *)

val dc : t -> int -> int
(** [dc t c] is channel [c]'s deficit counter. *)

val set_dc : t -> int -> int -> unit
(** Force a channel's DC (marker resynchronization at the receiver). *)

val set_round : t -> int -> unit
(** Force the global round number. Fault injection only: [stripe_sim
    --crash-at] corrupts the sender's [G], and tests corrupt the
    receiver's, which markers repair; no protocol component calls this. *)

val select : t -> int
(** The CFQ selector [f(s)] for overdraw mode: returns the channel the
    next packet must go to, beginning the visit (adding the quantum) if
    needed, and skipping channels whose DC stays non-positive even after
    their quantum (possible only when a quantum is smaller than a packet).
    Idempotent until the next [consume]. Raises [Invalid_argument] in
    non-overdraw mode, where selection needs the packet size — use
    [select_for]. *)

val select_for : t -> size:int -> int
(** Selector for non-overdraw (strict DRR) mode: skips channels whose DC
    cannot cover [size] this round. Also valid in overdraw mode, where it
    ignores [size] and equals [select]. *)

val consume : t -> size:int -> unit
(** The CFQ update [g(s, p)]: charge a packet of [size] bytes to the
    current channel. Decrements the DC by the packet's cost and ends the
    visit when the DC is no longer positive (overdraw mode) — the paper's
    "packets are sent from that queue as long as the DC is positive". In
    non-overdraw mode the visit ends when the DC cannot cover another
    maximal packet only at the next [select_for], so [consume] just
    decrements. Must be preceded by a [select]/[select_for]. *)

val begin_visit : t -> unit
(** Low-level: add the quantum to the current channel if its visit has not
    begun. Exposed for the receiver-side resynchronization logic, which
    must decide whether to skip a channel {e before} granting it a
    quantum. *)

val advance : t -> unit
(** Low-level: end the current visit (whether or not it began) and move
    the pointer to the next channel, incrementing the round on wrap. Used
    by the receiver to skip a channel whose marker round number is ahead
    (§5). *)

val next_stamp : t -> int -> stamp
(** [next_stamp t c] is the implicit number [(R, D)] that the next data
    packet sent on channel [c] will carry, given the current state. This
    accounts for whether [c] has already been served in the current round
    and for any rounds [c] would be skipped while its DC recovers. *)

val next_stamp_round : t -> int -> int
val next_stamp_dc : t -> int -> int
(** The two fields of {!next_stamp}, computed without allocating the
    record (marker emission runs on the per-packet path). *)

val retune : t -> quanta:int array -> unit
(** [retune t ~quanta] swaps the quantum vector (same width as the
    engine). If the engine is at a round boundary (the pointer at
    channel 0 with no visit in progress) the swap happens now;
    otherwise it is staged and adopted at the next pointer wrap (or at
    the next {!reinit}, whichever comes first). On adoption, outstanding
    DCs are rescaled proportionally ([dc * new_q / old_q]) so in-flight
    surplus carries over and cumulative service stays within the Thm 3.2
    bound of an engine configured with the new quanta from the start; a
    [Retune] event with the old and new vectors is emitted. Quanta are
    validated against positivity and, when [max_packet] is known, the
    [quantum >= max_packet] marker precondition (Thm 5.1). Raises
    [Invalid_argument] on width mismatch or invalid quanta. A second
    [retune] before the first is adopted simply replaces the staged
    vector. *)

val pending_retune : t -> int array option
(** The staged quantum vector, if a {!retune} is waiting for the next
    round boundary. *)

val reconfigure : t -> quanta:int array -> unit
(** Replace the whole configuration: a new quantum vector of the
    engine's own width (a bundle's width is fixed at {!create}), all DCs
    zero, pointer at 0, round 0, suspensions and any staged retune
    cleared. This is {!reinit} with a new vector — the receiver's
    barrier-time adoption of a sender retune, and the bundle pool's
    engine-recycle primitive. The existing arrays are refilled in place
    (allocation-free), so recycling an engine across thousands of
    short-lived bundles costs nothing. The hook is kept. Raises
    [Invalid_argument] on a width mismatch or an invalid quantum, before
    changing anything. *)

val restart : t -> unit
(** {!reconfigure} at the engine's own quantum vector, without copying
    it: the cold start of a recycled or restarted endpoint. Allocates
    nothing. *)

val set_hook : t -> (event -> unit) option -> unit
(** Install an observer of engine transitions (used for the Figure 5/6
    golden traces and by the marker emission policy). *)

val pp_state : Format.formatter -> t -> unit
(** One-line state dump: pointer, round, DCs. *)
