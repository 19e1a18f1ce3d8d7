(** Sender-side channel striping (the load-sharing half of the protocol).

    A striper wraps a {!Scheduler} and dispatches each data packet pushed
    into it to the channel the scheduler selects, calling the [emit]
    callback — typically wired to a simulated link's [send]. With a CFQ
    scheduler and a {!Marker.policy}, it also interleaves marker packets
    at the policy's positions; markers ride the same channels but are
    invisible to the scheduler's accounting (they are control packets
    outside the data schedule, distinguished on the wire by their
    codepoint). The periodic batches and the reset barrier are
    {!Marker.batch} and {!Marker.reset_barrier}, the sender step the
    fleet's slots run too; the step hands over each marker's stamp, and
    the striper builds the packet [emit] sends.

    The striper never buffers: load sharing has no notion of empty input
    queues (§3.1) — state only advances when a packet is pushed, so any
    offered traffic pattern is handled, not just backlogged sources. *)

type t

val create :
  scheduler:Scheduler.t ->
  ?marker:Marker.policy ->
  ?now:(unit -> float) ->
  ?sink:Stripe_obs.Sink.t ->
  emit:(channel:int -> Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** [create ~scheduler ~emit ()] builds a striper. Supplying [~marker]
    requires the scheduler to embed a deficit engine (SRR/RR/GRR); raises
    [Invalid_argument] otherwise. [now] timestamps marker packets
    (defaults to a constant 0); it is read once per marker batch, and
    the batch's markers share the reading.

    [sink] (default {!Stripe_obs.Sink.null}) receives the sender-side
    observability events: [Transmit] for every data packet (with its
    implicit [(round, dc)] stamp under a CFQ scheduler), [Marker_sent] for
    every marker, and [Reset_barrier] when {!send_reset} starts a fresh
    epoch. *)

val push : t -> Stripe_packet.Packet.t -> unit
(** Dispatch one data packet. Raises [Invalid_argument] if handed a
    marker — markers are generated internally. If {e every} channel is
    suspended the packet is dropped instead — counted in
    {!undispatched_drops} and reported as a [Txq_drop] event with no
    channel — never an exception. *)

val suspend_channel : t -> int -> unit
(** Remove a channel from striping (dead member link, administrative
    down): the scheduler skips it and redistributes its load, marker
    batches omit it, and a [Suspend] event is emitted. Idempotent. *)

val resume_channel : t -> int -> unit
(** Return a suspended channel to striping, emitting a [Resume] event.
    A CFQ striper then runs {!send_reset}: suspension is invisible to
    the receiver's simulation, so DC/round state must be rebuilt via the
    §5 reset barrier for FIFO delivery to resume. Idempotent. *)

val suspended_channel : t -> int -> bool

val retune : t -> quanta:int array -> unit
(** Swap the CFQ engine's quantum vector (same width) — the adaptive
    response to drifting channel capacity (PROTOCOL.md §11) — through
    the §5 reset barrier: {!Deficit.retune} stages the vector,
    {!send_reset} adopts it for the fresh epoch, and the reset markers
    carry stamps computed from the new quanta, so a receiver that staged
    the same vector ({!Resequencer.retune}) resynchronizes into the new
    schedule with the Thm 5.1 disturbance bound. Raises
    [Invalid_argument] for a non-CFQ scheduler or an invalid vector. *)

val send_reset : t -> unit
(** Crash-recovery reset (§5): reinitialize the striping state to its
    initial value and emit a {e reset marker} on every channel. Data
    pushed afterwards belongs to the fresh epoch; a {!Resequencer}
    reinitializes once the reset marker has reached it on every channel,
    restoring synchronization regardless of how corrupt the previous
    state was. Requires a CFQ scheduler; raises [Invalid_argument]
    otherwise. *)

val crash_restart : ?quanta:int array -> t -> unit
(** Full endpoint crash + restart (PROTOCOL.md §12): every piece of
    striping state — round pointer, deficits, staged retunes,
    administrative suspensions, marker cadence — is lost and rebuilt
    from cold configuration. [quanta] is the restarted sender's initial
    vector (typically a cold {!Rate_probe} plan); it defaults to the
    engine's current configured vector. A [quanta] the engine refuses
    ({!Deficit.reconfigure}: another width, an invalid quantum) raises
    [Invalid_argument] before anything is emitted or changed. The
    sender's {e epoch} is incremented and {!send_reset} announces the
    new incarnation: because every subsequent marker carries the epoch,
    the receiver joins the crash barrier even if the reset markers
    themselves are lost on a down channel. In-flight packets of the old
    epoch are orphaned — the receiver delivers stragglers best-effort
    and discards what the epoch rule proves stale. Emits [Crash] then
    [Restart] (with [round] = the new epoch). Requires a CFQ
    scheduler. *)

val epoch : t -> int
(** Current sender incarnation: 0 until the first {!crash_restart}.
    Graceful resets (retune / resume) do not change it. *)

val pushed_packets : t -> int
val pushed_bytes : t -> int
val markers_sent : t -> int

val undispatched_drops : t -> int
(** Data packets dropped by {!push} because every channel was
    suspended. *)

val channel_packets : t -> int -> int
(** Data packets dispatched to a given channel so far. *)

val channel_bytes : t -> int -> int
(** Data bytes dispatched to a given channel so far — the "bits allocated
    to a channel" of the fairness definition (§3.3), in bytes. *)

val rounds : t -> int option
(** Completed rounds, for CFQ schedulers. *)

val scheduler : t -> Scheduler.t
