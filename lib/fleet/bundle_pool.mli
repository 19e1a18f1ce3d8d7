(** Flyweight bundle fleet over one shared simulation.

    One striped bundle — SRR engine, per-channel wires, resequencer —
    is cheap to {e run} but expensive to
    {e build}: each instantiation allocates a dozen arrays, a handful of
    closures, and (naively) one event loop. A fleet experiment with
    thousands of short-lived bundles spends all its time constructing
    and discarding that scaffolding.

    The pool turns the bundle into a flyweight. All bundles share one
    {!Stripe_netsim.Sim} event loop and its one calendar queue; the
    per-bundle state lives in struct-of-arrays slots indexed by an
    integer bundle id. The heavyweight components — the sender's
    {!Stripe_core.Deficit} engine, the receiver's
    {!Stripe_core.Resequencer}, the ring of packets in flight on the
    slot's wires, and the closures the resequencer and the marker step
    call — are created {e once per slot} and recycled across bundle
    generations in place ({!Stripe_core.Deficit.reconfigure},
    {!Stripe_core.Resequencer.recycle}), so churning a bundle through a
    warmed-up slot allocates almost nothing. Data packets are interned
    by size in a per-pool array (they are immutable and the protocol
    never reads their measurement metadata) and markers travel as
    stamps, so the steady-state push path, marker batches included,
    allocates nothing but when a queue or ring grows.

    {b The wire model.} Each slot-channel is a rate+delay pipe: a packet
    departs when the channel is free ([max now busy_until]), occupies it
    for [size*8/rate] seconds, and lands [prop_delay] later. A landing
    is not an event. Slots never interact, so the pool files each
    packet with its landing time in one ring per slot, in landing order
    (equal times in send order), and {e settles} a slot — lands its due
    packets in that order, each at its own landing time — before
    anything reads or changes it: every per-slot operation and accessor
    settles its slot, every pool-wide one settles them all. The pool
    keeps one pending event, at the latest landing time on any wire, so
    {!Stripe_netsim.Sim.run} still returns at the last landing, with
    every slot settled. A marker is never built as a packet: the sender
    step hands its stamp to the slot ({!Stripe_core.Marker.send}), its
    ring entry holds its place and its 36 bytes on the wire while its
    ints wait in a ring of an {!Stripe_packet.Int_rings} beside it, and
    its landing hands the stamp to
    {!Stripe_core.Resequencer.receive_marker}.

    {b Churn.} {!release} does not blank the wires: a physical link
    being handed to a new bundle still has the old owner's bits in
    flight, so the pool lets them drain — each ring entry carries the
    generation that sent it, and a landing of a dead generation is
    discarded at its landing time, before the new owner's traffic
    reaches its (recycled) resequencer. A freshly {!acquire}d slot
    therefore behaves exactly like a new bundle except that its
    channels may still be busy with the predecessor's tail. *)

(** Striping discipline run by every slot engine (PROTOCOL.md §14).

    - [Srr]: the paper's surplus round robin — fixed cyclic visit
      order, byte quanta, markers, full resequencer replay.
    - [Sprinklers seed]: Sprinklers-style randomized striping. Same
      quanta, same [Max + 2*Quantum] fairness bound, but each round
      visits the channels in a fresh pseudo-random permutation derived
      from [seed] and the round number ({!Stripe_core.Deficit.order}).
      Each slot derives its own sub-seed, so the fleet's permutations
      decorrelate. The permutation is a pure function of (seed, round),
      so the receiver's cloned engine replays it and the whole
      marker/reset machinery works unchanged. Pair with larger quanta
      (see {!Stripe_core.Sprinklers}) for variable-size stripes.

    Both run the same sender step ({!Stripe_core.Marker.batch},
    {!Stripe_core.Marker.reset_barrier}) and the same resequencer, so
    every slot keeps the quasi-FIFO contract. *)
type discipline = Srr | Sprinklers of int

type config = {
  rate_bps : float array;  (** Per-channel wire rate (bits/s, > 0). *)
  prop_delay : float array;  (** Per-channel one-way delay (s, >= 0). *)
  quanta : int array;  (** SRR quantum vector (bytes, > 0). *)
  marker_every : int;
      (** Emit a marker batch every this many rounds ([Round_end]
          position, like the reference striper); [0] disables markers —
          the resequencer then only ever blocks, never resynchronizes
          after a discard, so leave markers on for churned fleets. *)
  guard : bool;
      (** Must be [false]: the pool has no channel guard, and {!create}
          raises on [true]. Its wires are perfect FIFOs, on which a
          {!Stripe_core.Channel_guard} could only ride its in-order fast
          path. The field stays so that existing configs still build. *)
  discipline : discipline;  (** Striping discipline, fleet-wide. *)
}
(** All arrays must have the same positive length (the channel count).
    The pool copies them at {!create}; later mutation has no effect. *)

type t

val create :
  ?initial_capacity:int ->
  ?stamp_seq:bool ->
  ?watchdog:Stripe_core.Resequencer.watchdog ->
  ?rng:Stripe_netsim.Rng.t ->
  ?health:Stripe_core.Health.config ->
  ?health_sink:Stripe_obs.Sink.t ->
  sim:Stripe_netsim.Sim.t ->
  config ->
  t
(** [create ~sim config] builds an empty pool scheduling on [sim].
    [initial_capacity] (default 64) slots are built eagerly; the pool
    doubles its slot table when {!acquire} finds no free slot.

    [stamp_seq] (default [false]) numbers each pushed data packet per
    bundle and lands it as a packet carrying that sequence number
    instead of the interned flyweight, which arms the always-on FIFO
    monitor ({!fifo_violations}, {!total_fifo_violations}) at the cost
    of one allocation per landing.
    [watchdog] equips every slot resequencer with the marker-cadence
    dead-channel watchdog ({!Stripe_core.Resequencer.watchdog}) —
    recommended for any chaos run, since it is what keeps a storm from
    wedging receivers on silent channels.

    [rng] drives the per-channel wire-loss processes
    ({!set_channel_loss}); default: a pool-private seeded generator.
    [health] arms fleet-wide gray-failure self-healing (PROTOCOL.md
    §13): {e one} {!Stripe_core.Health} engine over the pool's channel
    classes — a channel is one physical facility shared by every
    bundle, so one gray link is one detection, not one per bundle.
    Drive it with {!health_tick}; [health_sink] receives its
    [Health_suspect]/[Probation]/[Quarantine]/[Reinstate] events.
    Raises [Invalid_argument] on a malformed config. *)

val acquire : t -> int
(** Start a bundle: returns its id (a recycled slot when one is free,
    a fresh one otherwise). O(1) amortized; recycling allocates
    nothing. *)

val acquire_slot : t -> key:int -> int -> int
(** [acquire_slot t ~key id] starts a bundle on slot [id] specifically,
    growing the pool if [id] is beyond capacity, and seeds its
    [Sprinklers] visit order from [key] where {!acquire} uses the id.
    This is the directed acquire the sharded replay layer
    ({!Sharded_pool}) uses to reproduce slot [key] of a recorded fleet:
    a slot's whole recycling chain — including the busy-wire tail one
    generation bequeaths the next — replays identically whatever other
    slots share the pool. O(free-list) rather than O(1); raises
    [Invalid_argument] if the slot is live. Returns [id]. *)

val release : t -> int -> unit
(** End bundle [id]: its in-flight wire tail is marked for discard (see
    the churn note above), its resequencer and engine state is
    recycled in place for the next owner, and the id returns to the
    free list. Per-bundle counters are reset by the {e next}
    {!acquire}, so they remain readable after release for end-of-life
    harvesting. Raises [Invalid_argument] if [id] is not live. *)

val reset : t -> unit
(** Return the pool to exactly the state {!create} built, keeping the
    slots already built: every slot free and restacked lowest id first,
    every per-slot component recycled in place (wire timelines back to
    0, engines and resequencers on the configured quanta, buffers
    emptied), and every pool-wide counter and chaos
    lever — carrier state, loss processes, rate scales, quarantines,
    health engine, FIFO quiet line — back to its initial value. A
    script driven after [reset] therefore runs exactly as on a fresh
    pool of {!capacity} slots. This is how {!Sharded_pool} replays one
    domain's slots group by group on one pool.

    Drain the simulation and {!Stripe_netsim.Sim.reset} it first:
    recycled resequencers read the clock. Raises [Invalid_argument] if
    a packet is still on a wire (the pool's event is pending). The
    [rng] handed to {!create} is not rewound; the fleet replay never
    draws from it, as it installs no wire loss. *)

val is_live : t -> int -> bool
val live_bundles : t -> int
val capacity : t -> int
(** Slots built so far (live + free). *)

val total_acquired : t -> int
(** Bundles ever started. *)

val recycles : t -> int
(** Releases so far = slot reuses made possible. *)

val push : t -> int -> size:int -> unit
(** Stripe one data packet of [size] bytes into bundle [id]: the slot's
    SRR engine picks the channel, the packet is transmitted on that
    slot-channel's wire, and marker batches are emitted at marked round
    boundaries exactly like {!Stripe_core.Striper.push} with a
    [Round_end] policy. Raises [Invalid_argument] if [id] is not live
    or [size] is not positive. *)

(** {2 Chaos: carrier storms and endpoint crash/restart}

    The chaos engine's levers (PROTOCOL.md §12). Channel carrier state
    is pool-wide — channel [c] of every bundle rides the same facility
    class, so one transition models a shared-risk-group failure across
    the whole fleet. Endpoint crashes are per bundle and per side.

    Conservation holds per live slot at quiescence (simulation drained,
    no packets in flight):
    {[ pushed = delivered + rx_pending + carrier_drops + wire_loss_drops
                + receiver_down_drops + rx_epoch_discards + rx_wiped ]}
    (pushes refused because the sender was crashed or fully suspended
    are counted separately and never enter [pushed]). A {!release}
    breaks the identity for that generation by design: its in-flight
    tail is discarded unattributed, exactly like the churn model. *)

val set_channel_up : t -> int -> bool -> unit
(** Carrier transition for channel [c] fleet-wide. Down: packets
    transmitted on [c] are eaten at the NIC (data counted per slot,
    {!carrier_drops}), and [c] is suspended in every live bundle's
    engine, so load moves to the survivors. Up: every live bundle
    resumes [c] (unless the health engine quarantined it) and, once it
    is fully healed, fires its §5 reset barrier (epoch-stamped reset
    markers on all channels) to resynchronize its receiver.
    Crashed senders are skipped — {!restart_sender} re-derives
    suspensions from the carrier state of its moment. Idempotent. *)

val set_channel_loss : t -> int -> Stripe_netsim.Loss.t -> unit
(** Install a loss process on channel [c]'s wires fleet-wide (the gray
    half of the chaos palette — the carrier stays up, packets die in
    flight). [Stripe_netsim.Loss.none ()] clears it. Lost data is
    counted per slot ({!wire_loss_drops}) and per channel
    ({!channel_wire_lost}); lost markers vanish like everywhere else. *)

val scale_channel_rate : t -> int -> float -> unit
(** Scale channel [c]'s wire service rate fleet-wide relative to its
    {e nominal} configured rate: [0.1] is a 10x collapse, [1.0]
    restores. Raises unless the factor is positive. *)

val crash_sender : t -> int -> unit
(** Bundle [id]'s sending endpoint crashes: until {!restart_sender},
    {!push} drops (counted, {!sender_down_drops}, not counted as
    pushed). In-flight packets already on the wires are unaffected —
    they left the host. Raises if [id] is not live or already down. *)

val restart_sender : t -> int -> unit
(** The sender reboots with no striping state: engine rebuilt on the
    configured quanta, suspensions re-derived from current carrier
    state, incarnation ({!sender_epoch})
    incremented, and epoch-stamped reset markers announce the new epoch
    so the receiver discards pre-crash leftovers and resynchronizes
    (the epoch rule, PROTOCOL.md §12). *)

val crash_receiver : t -> int -> int
(** Bundle [id]'s receiving endpoint crashes: all buffered data is
    wiped (returned, and accumulated in {!rx_wiped_packets}), the
    resequencer forgets its engine, epoch knowledge, and watchdog
    state, and until {!restart_receiver} every arrival is dropped on
    the floor (data counted, {!receiver_down_drops}). *)

val restart_receiver : t -> int -> unit
(** The receiver process is back, cold. Resynchronization needs no
    out-of-band signal: the sender's ordinary epoch-stamped markers
    drive per-channel crash-sync, then the barrier reinitializes the
    simulated engine — delivery resumes within about one marker
    interval. *)

val sender_epoch : t -> int -> int
(** The slot's sender incarnation: 0 at {!acquire}, +1 per
    {!restart_sender}. *)

(** {2 Fleet-wide gray-failure self-healing (PROTOCOL.md §13)}

    One {!Stripe_core.Health} engine covers the whole pool: evidence is
    the pool-wide per-channel wire deltas (offered vs lost packets,
    offered vs served bytes), so a single gray facility is detected
    once and the verdict lands on every bundle riding it. Probation
    cuts the channel's quantum in {e every} live slot (sender
    [Deficit.retune] staged + receiver [Resequencer.retune], adopted
    together at that slot's §5 reset barrier, floored at the largest
    data packet ever pushed — the Thm 5.1 precondition); quarantine
    policy-suspends the channel fleet-wide,
    survives carrier heals and sender restarts, and is honored by
    {!acquire} for bundles born during it. *)

val health_tick : t -> now:float -> Stripe_core.Health.transition list
(** Close one evidence window and apply the verdicts fleet-wide. Call
    periodically (the [every] cadence of a [--health] spec). Slots
    whose receiver is mid-transition, or with a crashed endpoint, defer
    their retune and reconcile on a later tick. No-op returning [[]]
    without [health]. *)

val health_retunes : t -> int
(** Slot retunes applied by {!health_tick} (one per slot per vector
    change). *)

val channel_wire_tx : t -> int -> int
(** Packets offered to channel [c]'s wires pool-wide (lost included). *)

(** {2 Always-on invariant monitors} *)

val set_fifo_check_after : t -> float -> unit
(** Quiet line for the FIFO monitor (default 0.0): delivered-sequence
    inversions are always counted in {!seq_inversions}, but only count
    as {e violations} at/after this time. Chaos legally degrades
    delivery to quasi-FIFO while its effects drain (Thm 5.1), so a
    chaos driver sets this past its last event plus a drain grace; in a
    chaos-free run the default arms the monitor from the start. *)

val inject_violation : t -> int -> unit
(** Test-only hook: poison bundle [id]'s FIFO monitor so its next
    delivery registers as a violation — proves the monitoring path
    actually fires. *)

val fifo_violations : t -> int -> int
val seq_inversions : t -> int -> int
(** Per-bundle monitor counters (require [stamp_seq]). *)

val highest_delivered_seq : t -> int -> int
(** The highest seq bundle [id] has delivered, [0] before its first
    delivery: the FIFO monitor's high water (requires [stamp_seq]). *)

val total_fifo_violations : t -> int

val first_violation : t -> (float * int * int) option
(** [(time, bundle, seq)] of the earliest FIFO violation (the lowest
    bundle id among equal times), for pinpointing a failing seed's event
    neighborhood. *)

val crashes : t -> int
val restarts : t -> int
(** Endpoint crash / restart events so far, both sides, pool-wide. *)

(** {2 Per-bundle counters}

    Valid for a live bundle and, until the slot is re-acquired, for a
    released one (end-of-life harvesting). *)

val birth_time : t -> int -> float
(** Simulated time of the bundle's {!acquire}. *)

val pushed_packets : t -> int -> int
val pushed_bytes : t -> int -> int

val delivered_packets : t -> int -> int
(** Data packets the slot's resequencer delivered in logical-reception
    order (markers are not counted). *)

val delivered_bytes : t -> int -> int

val in_flight_packets : t -> int -> int
(** Packets (data and markers) currently on the slot's wires, not
    counting a previous owner's still-draining tail. *)

val wire_markers : t -> int -> int -> (int * int * bool * int * int) list
(** [wire_markers t id c]: the stamps — (round, DC, reset, epoch,
    generation) — of the markers now on slot [id]'s channel-[c] wire,
    oldest first, a previous owner's still-draining tail included.
    What a receiver on that wire will be handed, for checking the
    pool's sender against {!Stripe_core.Striper}'s. *)

val rx_high_water_packets : t -> int -> int
(** The slot resequencer's buffered-packet high-water mark. Restarted
    by the recycle at {!release}, so a reused slot reports the current
    owner's maximum, never a cross-bundle one. *)

val rx_pending_packets : t -> int -> int
(** Data packets currently buffered in the slot's resequencer. *)

val last_delivery_time : t -> int -> float
(** Time of the slot's most recent delivery; [nan] before the first.
    [restart - last pre-crash delivery → first post-restart delivery]
    is the chaos driver's recovery-time probe. *)

val carrier_drops : t -> int -> int
(** Data packets eaten at transmit because the selected channel's
    carrier was down. *)

val sender_down_drops : t -> int -> int
(** Pushes refused because the sender was crashed. Not counted as
    pushed. *)

val receiver_down_drops : t -> int -> int
(** Data arrivals dropped because the receiver was crashed. *)

val rx_wiped_packets : t -> int -> int
(** Buffered data wiped by receiver crashes ({!crash_receiver}). *)

val wire_loss_drops : t -> int -> int
(** The slot's data packets eaten in flight by {!set_channel_loss}. *)

val wire_busy_until : t -> float
(** The latest wire-serialization completion scheduled on any
    slot-channel. Under a {!scale_channel_rate} collapse the wire
    accrues serialization debt that drains long after the factor is
    restored; chaos drivers compare this against the current time to
    know when the backlog (plus propagation) has actually cleared. *)

val resync : t -> unit
(** Operator-initiated pool-wide §5 reset barrier: every live slot with
    both endpoints up fires a slot reset. The cadence watchdog can leave
    a resequencer trailing the stripe by a constant offset forever —
    skipping packets that were merely {e delayed} (a rate collapse)
    strands their late copies as a buffered surplus that periodic
    markers can never expunge (data packets carry no round identity).
    Quasi-FIFO allows the offset; the reset barrier removes it. Chaos
    drivers fire this once the fault horizon has passed, before arming
    strict post-incident FIFO checks. *)

val rx_epoch_discards : t -> int -> int
(** Pre-crash-epoch data the slot's resequencer flushed at crash-sync
    ({!Stripe_core.Resequencer.epoch_discards}). *)

val rx_channel_dead : t -> int -> int -> bool
(** [rx_channel_dead t id c]: the slot watchdog's current verdict. *)

val rx_watchdog_skips : t -> int -> int
val rx_dead_declarations : t -> int -> int
(** Slot watchdog activity (see {!Stripe_core.Resequencer}). *)

(** {2 Pool-wide counters} *)

val total_delivered_packets : t -> int
val total_delivered_bytes : t -> int
val markers_sent : t -> int
