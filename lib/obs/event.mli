(** Typed observability events.

    Every instrumented transition in the protocol stack is described by one
    flat record: a timestamp, an event kind, and the protocol coordinates
    the kind needs ([channel], the implicit packet number [(round, dc)],
    [size], [seq]). Fields a kind does not use keep their sentinel values
    ([-1] for [channel]/[round]/[size]/[seq]; [dc] is meaningful only when
    [round >= 0]).

    Event ownership is partitioned by layer so a single shared sink never
    sees the same transition twice:

    - {b Striper} (sender): [Transmit] (a data packet dispatched to a
      channel, carrying its implicit stamp), [Marker_sent],
      [Reset_barrier] (a sender reset, [channel = -1]), [Suspend]/[Resume]
      (a channel administratively removed from / returned to the striping
      set), and [Txq_drop] with [channel = -1] (a data packet dropped
      because every channel was suspended).
    - {b Scheduler}: [Round] (the CFQ engine's pointer wrapped; [round] is
      the new round number).
    - {b Link} (wire): [Dequeue] (head-of-line packet starts serializing),
      [Drop] (lost on the wire), [Txq_drop] (rejected by a full transmit
      queue), [Arrival] (physical arrival at the far end), and the carrier
      transitions [Channel_down]/[Channel_up] (fault injection pulling or
      restoring the cable).
    - {b Resequencer} (receiver): [Enqueue] (a data packet buffered
      awaiting logical reception), [Marker_applied], [Skip] (channel visit
      skipped by the marker rule [r > G]), [Block]/[Unblock] (logical
      reception waiting on a channel), [Deliver] (logical reception, with
      the receiver's [(round, dc)] stamp), [Reset_barrier] (barrier
      completed, [round] = completed-barrier count), [Watchdog_skip] (a
      visit to a channel the marker-cadence watchdog declared dead was
      skipped without waiting), and [Buffer_overflow] (an arrival found
      the byte budget exhausted; what follows depends on the overflow
      policy — see {!Stripe_core.Resequencer}).
    - {b Channel guard} (receiver, below the resequencer):
      [Dup_discard] (a duplicate delivery identified by its channel tag
      and discarded), [Reorder_restore] (an out-of-order arrival held
      back and re-released in tag order), and [Corrupt_discard] (a
      corrupted packet discarded — by the guard's marker-checksum check).
      The {b Link} also emits [Corrupt_discard] for wire corruption its
      simulated CRC detects; the two sites are disjoint per packet.
    - {b Adaptive operation} (PROTOCOL.md §11): the {b Scheduler} relays
      [Retune] from the deficit engine — one event per channel when a new
      quantum vector takes effect, with [dc] = the channel's old quantum
      and [size] = its new quantum, [round] = the round the change
      applies from. A bundle's width is fixed when it is created, so
      no event marks a change of membership.
    - {b Chaos and recovery} (PROTOCOL.md §12): the {b Striper} emits
      [Crash] when an endpoint loses its striping state and [Restart]
      when it comes back ([round] = the new epoch on a sender restart;
      the {b Resequencer} emits the receiver-side pair). The
      {b Resequencer} also emits [Epoch_discard] (a buffered pre-crash
      packet discarded because a later-epoch marker proved it stale;
      [size] = bytes discarded on the channel). [Violation] is reserved
      for invariant monitors and never emitted by protocol components;
      {!Monitor} records its violations itself and emits none, and the
      kind stays so that trace files and counter columns keep their
      shape.
    - {b Channel health} (PROTOCOL.md §13): the {!Stripe_core.Health}
      engine owns the gray-failure lifecycle events — [Health_suspect]
      (fused evidence score crossed the suspect threshold with
      hysteresis), [Probation] (quantum cut to the probe fraction at a
      round boundary; [size] = the scaled quantum in per-mille of
      nominal), [Quarantine] (sustained failure: the channel is fully
      suspended through the §5 reset barrier; [size] = the reinstatement
      backoff in milliseconds), and [Reinstate] (a quarantined channel
      returns to probation probing after its backoff, or a probation
      channel is restored to full quantum; [seq] = the channel's flap
      count). All four carry [channel]. Emitted only by the health
      engine, never by protocol components. *)

type kind =
  | Enqueue
  | Dequeue
  | Transmit
  | Drop
  | Txq_drop
  | Arrival
  | Marker_sent
  | Marker_applied
  | Skip
  | Block
  | Unblock
  | Reset_barrier
  | Deliver
  | Round
  | Channel_down
  | Channel_up
  | Watchdog_skip
  | Suspend
  | Resume
  | Dup_discard
  | Reorder_restore
  | Corrupt_discard
  | Buffer_overflow
  | Retune
  | Crash
  | Restart
  | Epoch_discard
  | Violation
  | Health_suspect
  | Probation
  | Quarantine
  | Reinstate

type t = {
  time : float;
  kind : kind;
  channel : int;
  round : int;
  dc : int;
  size : int;
  seq : int;
}

val v :
  ?channel:int ->
  ?round:int ->
  ?dc:int ->
  ?size:int ->
  ?seq:int ->
  time:float ->
  kind ->
  t
(** Constructor with sentinel defaults ([channel]/[round]/[size]/[seq] =
    [-1], [dc] = [0]). *)

val n_kinds : int
(** Number of event kinds. *)

val kind_index : kind -> int
(** Dense index in [0, n_kinds): backs flat counter arrays
    ({!Counters}). Stable within a build, not across versions — use
    {!kind_name} for anything persisted. *)

val kind_name : kind -> string
(** Stable lowercase name used by the JSON and CSV exports. *)

val kind_of_name : string -> kind option

val to_json : t -> string
(** One JSON object (no trailing newline):
    [{"t":..,"ev":"..","ch":..,"round":..,"dc":..,"size":..,"seq":..}]. *)

val csv_header : string

val to_csv : t -> string
(** One CSV row matching {!csv_header} (no trailing newline). *)
