(** Logical reception: receiver-side resequencing without packet headers.

    The receiver separates {e physical} reception (a packet arriving on a
    channel, which merely appends it to that channel's buffer) from
    {e logical} reception: the receiver runs the {e same} CFQ algorithm as
    the sender's striper to know which channel the next packet must come
    from, removes packets in that order, and {b blocks} on the expected
    channel while buffering arrivals on the others (§4). With no loss this
    reproduces the sender's input sequence exactly (Theorem 4.1),
    whatever the per-channel skews.

    Loss desynchronizes the simulation, after which delivery is only
    {e quasi-FIFO}. Recovery uses the marker protocol of §5: a marker on
    channel [c] carries the implicit number [(r, d)] — round and deficit
    counter — of the next data packet {e behind it} on [c]. Markers are
    therefore processed in their FIFO position within the channel's
    stream: they are buffered like data and take effect when logical
    reception reaches them (data buffered ahead of a marker is served
    under the pre-marker state it belongs to). When a marker takes
    effect the receiver records [(r, d)] for [c]; during its round-robin
    scan it {b skips} any channel whose recorded round exceeds its own
    global round [G]: it has lost packets on [c] and arrived "too early",
    so it must wait that many rounds before visiting [c] again — this
    enforces condition C1 (never deliver a higher-round packet before a
    lower-round one). When the scan's round reaches [r], the channel's DC
    is pinned to [d], resynchronizing the simulation. Once a marker has
    been delivered on every channel after errors stop, FIFO delivery is
    restored (Theorem 5.1).

    The implementation is event-driven: call [receive] for every physical
    arrival; the resequencer invokes [deliver] zero or more times,
    re-entering its scan until it must block again. *)

type t

type watchdog = {
  intervals : int;
      (** Declare a channel dead after this many estimated marker
          intervals of silence. *)
  fallback : float;
      (** Marker-interval estimate (seconds) used before the channel's
          cadence has been observed (fewer than two markers received). *)
}
(** Marker-cadence watchdog configuration. The paper assumes member
    channels stay up; this is the operational extension for total
    single-channel failure: markers arrive on every live channel at a
    roughly periodic cadence, so a channel silent for [intervals]
    estimated marker gaps is declared {e dead}. The scan then passes dead
    channels over instead of blocking forever — delivery degrades to
    quasi-FIFO — and any later arrival on the channel revives it, with
    FIFO restored by the marker rule (or the sender's reset barrier, see
    {!Striper.resume_channel}). *)

type overflow =
  | Drop_newest
      (** Refuse the arriving data packet. To the protocol this is
          indistinguishable from a channel loss at the last hop, so the
          marker machinery recovers the stream position — the cheapest
          policy, at the cost of the freshest data. *)
  | Force_flush
      (** Evict buffered data to make room: the scan drains quasi-FIFO
          (blocks become bounded forced skips), and data the scan cannot
          reach — e.g. trapped behind an incomplete reset barrier — is
          popped from the fullest buffer. Markers evicted this way are
          absorbed normally, so their stamps still re-pin the simulation
          and FIFO returns with the next marker interval. Preserves the
          freshest data at the cost of delivering older data out of
          order. *)
(** What to do when a data arrival finds {!create}'s [budget_bytes]
    exhausted. Either way the budget is a hard invariant —
    {!buffered_bytes} never exceeds it — and the resequencer never
    blocks forever on a full buffer. *)

val create :
  deficit:Deficit.t ->
  ?now:(unit -> float) ->
  ?sink:Stripe_obs.Sink.t ->
  ?watchdog:watchdog ->
  ?budget_bytes:int ->
  ?overflow:overflow ->
  ?on_pressure:(high:bool -> unit) ->
  deliver:(channel:int -> Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** [create ~deficit ~deliver ()] builds a resequencer simulating the
    given engine, which must be a fresh engine at the sender's initial
    state — use [Deficit.clone_initial] on the sender's. [deliver] is
    called with each packet in logical-reception order, together with the
    channel it was drawn from (as a real implementation would know from
    the buffer it popped — used e.g. for per-channel flow-control
    accounting). Its width is the engine's, fixed for its lifetime. A
    marker's piggybacked credit is not read here: a flow-control layer
    reads [m_credit] itself before {!receive}.

    [budget_bytes] bounds the {e data} bytes buffered across the
    per-channel queues (markers are always accepted — they are tiny,
    bounded in number by the marker cadence, and carry the
    resynchronization state). An arrival that would exceed the budget is
    handled per [overflow] (default {!Drop_newest}) after a
    [Buffer_overflow] event. [on_pressure] is the backpressure signal
    for a flow-control layer: called with [~high:true] when occupancy
    crosses 3/4 of the budget and [~high:false] when it falls back below
    1/2 (hysteresis, so it fires once per congestion episode).

    [sink] (default {!Stripe_obs.Sink.null}) receives the receiver-side
    observability events — [Enqueue], [Marker_applied], [Skip], [Block],
    [Unblock], [Deliver], [Reset_barrier], [Corrupt_discard],
    [Buffer_overflow] — timestamped by [now] (default constant 0; wire
    it to the simulator clock). *)

val recycle : t -> unit
(** Re-arm this resequencer for a {e fresh} bundle of the same shape,
    in place: the simulated engine reinitializes (suspensions cleared,
    any staged retune dropped), every per-channel buffer is emptied
    {e and} its high-water tracking restarted
    ({!Stripe_packet.Fifo_queue.recycle} — bare [clear] would carry the
    previous bundle's maxima into the next owner's report), and all
    counters return to zero. The [deliver]/[on_pressure]
    callbacks, sink, clock, watchdog configuration, and byte budget are
    kept: they belong to the pool slot, not the bundle. Steady-state
    allocation-free but for one clock read when a watchdog is set (it
    restarts the silence timers) — this is what lets a bundle pool churn
    thousands of bundles through a fixed set of resequencers. *)

val receive : t -> channel:int -> Stripe_packet.Packet.t -> unit
(** Physical reception of a packet (data or marker) on a channel. Also
    feeds the watchdog: the arrival timestamps the channel (and its
    marker cadence, for markers) and revives it if it was declared
    dead.

    An accepted data packet is delivered within the call, without
    waiting in its channel's buffer, when it is the packet the scan
    serves next: it arrives on the channel the scan is on, that channel
    is not parked at a reset barrier, its buffer is empty, no marker
    stamp is pending on it, and its DC is positive once the visit has
    begun. It still counts once in the buffer figures
    ({!buffer_high_water_packets}, {!buffer_high_water_bytes},
    {!max_buffered_bytes}, pressure), and a sink sees the [Enqueue],
    [Unblock] and [Deliver] events the buffered path emits. Any other
    data packet is buffered, and the scan delivers whatever has become
    due.

    A marker failing its integrity check
    ({!Stripe_packet.Packet.marker_valid}) is discarded and counted in
    {!corrupt_marker_discards} rather than applied: trusting a damaged
    (round, DC) stamp would poison the simulation for a whole marker
    interval, whereas a discarded marker is just a lost marker, which
    Theorem 5.1 already contains.

    A valid marker carrying a {e later sender epoch} than the receiver
    is synchronized to proves the sender crash-restarted (PROTOCOL.md
    §12) and is handled eagerly at arrival: the channel's buffer is
    flushed (pre-crash data can never be placed — counted in
    {!epoch_discards}) and the channel joins the crash reset barrier,
    whether or not this marker is the restart's reset marker — which
    makes recovery robust to losing the reset markers themselves on a
    down channel. The barrier completes once every live channel has seen
    the new epoch; the receiver then reinitializes exactly as for a §5
    reset and re-anchors its round translation on the first new-epoch
    marker.

    A marker packet is unpacked and handed to {!receive_marker}, the
    one marker path. *)

val receive_marker :
  t -> channel:int -> round:int -> dc:int -> credit:int -> reset:bool ->
  epoch:int -> gen:int -> cksum:int -> unit
(** Physical reception of a marker on [channel], given as its stamp —
    the fields of a {!Stripe_packet.Packet.Marker} — for a wire that
    carries markers as stamps rather than packets (the fleet's pool).
    Everything {!receive} says of a marker holds: the checksum is
    checked with {!Stripe_packet.Packet.marker_checksum_of} over the
    other fields, stamped with the arrival [channel]; a marker that
    fails it is discarded and counted; a later epoch is handled eagerly.
    A marker that waits in the channel's buffer waits as its stamp,
    beside {!Stripe_packet.Packet.marker_sentinel}, which keeps its
    FIFO position and its {!Stripe_packet.Packet.marker_size} bytes, so
    the buffer's byte count and high water are what a queued marker
    packet gave them. Allocates nothing but when a ring grows. [credit]
    is read only for the checksum (see {!create}). *)

val crash_restart : t -> int
(** Receiver endpoint crash + restart (PROTOCOL.md §12): all protocol
    state — buffers, simulated engine, marker stamps, a staged
    retune, watchdog estimates, epoch knowledge — is lost; the
    lifetime measurement counters survive (they model the operator's
    metrics store, not the endpoint). Returns the number of buffered
    data packets wiped, for conservation accounting. Recovery needs no
    out-of-band signal: the receiver treats the sender's current epoch
    as unknown, so the next ordinary marker on each channel triggers
    that channel's crash-sync and the barrier rebuilds the engine —
    cold recovery costs about one marker interval. Data arriving before
    a channel's first post-restart marker is discarded by that
    crash-sync and counted in {!epoch_discards}. *)

val retune : t -> quanta:int array -> unit
(** Stage the receiver half of a sender retune (PROTOCOL.md §11): the
    simulated engine adopts [quanta] when the next §5 reset barrier
    completes — the sender's {!Striper.retune} fires that barrier, and
    in-flight old-epoch data is still resequenced under the old vector
    it was striped with. Raises [Invalid_argument] on width mismatch,
    an invalid quantum (positivity / [max_packet] precondition), or if
    another retune is already staged. *)

val transition_pending : t -> bool
(** Whether a staged retune is waiting for its barrier. Adaptive
    policies check this before staging the next step. *)

val has_quanta : t -> int array -> bool
(** Whether the simulated sender engine currently runs the quantum
    vector [q] (a staged retune counts once adopted). A supervisor
    reconciling the two halves of a bundle checks it against the live
    sender's vector: the halves can diverge when a sender crash-restart
    rebuilds its engine while the receiver still runs an adopted
    retune. Compares in place; nothing is copied. *)

val tick : t -> unit
(** Re-enter the logical-reception scan without a new arrival. The
    watchdog's dead-channel check is evaluated lazily when the scan
    blocks, so normally any arrival on a live channel drives it; [tick]
    lets a simulator (or a real stack's timer) force the check when no
    traffic is arriving at all. A no-op when nothing can progress. *)

val delivered : t -> int
(** Data packets delivered so far. *)

val pending : t -> int
(** Data packets buffered awaiting logical reception. *)

val blocked_on : t -> int option
(** The channel the receiver is currently waiting on, if any. *)

val skips : t -> int
(** Channel visits skipped by the marker rule [r_c > G]. *)

val watchdog_skips : t -> int
(** Visits of dead channels passed over by the watchdog (each emits a
    [Watchdog_skip] event). Always 0 without a watchdog. *)

val dead_declarations : t -> int
(** Times the watchdog declared a channel dead (a revival followed by a
    new silence counts again). *)

val forced_barriers : t -> int
(** Reset barriers force-adopted because they stopped assembling for
    longer than the watchdog horizon ([intervals] x the worst observed
    marker gap). The generation tag ({!Stripe_packet.Packet.marker.m_gen})
    pairs markers of the same barrier, so this fires only when a
    barrier member's marker was genuinely lost on a dead link; the
    force-adoption breaks that deadlock (reinitialization is
    generation-idempotent, so the cost is a bounded quasi-FIFO
    episode). Always 0 without a watchdog, and in any run where no
    reset marker is lost. *)

val stale_resets : t -> int
(** Reset-marker copies absorbed without parking because their
    (epoch, generation) pair was at or below the last adopted barrier's
    — leftover siblings of a marker that triggered an eager crash-sync,
    or stragglers of a force-adopted barrier. Without this dedupe a
    leftover copy would assemble a phantom barrier that can never
    complete, trapping everything buffered behind it until the
    staleness horizon. Untagged markers (generation 0) are never
    counted here. *)

val channel_dead : t -> int -> bool
(** Whether the watchdog currently considers the channel dead. *)

val markers_seen : t -> int

val resets : t -> int
(** Completed reset barriers (§5 crash recovery): the receiver
    reinitialized after reaching a {!Striper.send_reset} marker on every
    channel. Pre-reset stragglers are delivered best-effort; delivery is
    FIFO again from the first post-reset packet. *)

val buffer_high_water_packets : t -> int
(** Largest total buffered-packet count observed — how much physical
    reception ran ahead of logical reception (sizes real buffers against
    skew). *)

val buffer_high_water_bytes : t -> int

val buffered_bytes : t -> int
(** Data bytes currently buffered. With [budget_bytes] set this never
    exceeds the budget (the hard invariant of the overflow policies). *)

val max_buffered_bytes : t -> int
(** High-water mark of {!buffered_bytes}. *)

val pressure_high : t -> bool
(** Current state of the backpressure signal (see [on_pressure]; always
    [false] without a budget). *)

val overflows : t -> int
(** Arrivals that found the budget exhausted ([Buffer_overflow]
    events). *)

val overflow_drops : t -> int
(** Data packets refused: every overflow under {!Drop_newest}, plus
    packets larger than the whole budget under {!Force_flush}. *)

val forced_deliveries : t -> int
(** Data packets evicted out of scan order by {!Force_flush}'s fallback
    (a subset of {!delivered}). *)

val corrupt_marker_discards : t -> int
(** Markers discarded for an integrity-check failure. *)

val round_realigns : t -> int
(** Times a marker re-anchored the receiver's round translation. The
    scan normally only {e lags} the sender (blocks and C1 skips), so
    marker rounds pin at or above the receiver's global round; forced
    skips ({!Force_flush}) and watchdog skips advance the receiver's
    round counter without consuming the sender's schedule, leaving every
    later marker numbered below it. Each re-anchor restores one
    consistent translation between the two numberings — without it the
    per-channel phases stay scrambled and delivery remains quasi-FIFO
    {e forever} instead of resynchronizing within a marker interval
    (Theorem 5.1). *)

val epoch_discards : t -> int
(** Data packets discarded as provably stale by the epoch rule: buffered
    ahead of a later-epoch marker on its channel (sender crash), or
    buffered before the first post-restart marker (receiver crash). *)

val crash_syncs : t -> int
(** Completed {e crash} barriers — reset barriers that adopted a new
    sender epoch (a subset of {!resets}). *)

val reorder_depth_max : t -> int
(** Largest arrival reorder depth seen: for each data arrival carrying a
    sequence number, the depth is how far below the highest sequence
    already arrived it lands (0 = arrived in order). This measures the
    cross-channel interleave the striping discipline asks the receiver
    to repair — the discipline-comparison gauge — independent of
    buffering decisions. Reset by {!recycle}; survives
    {!crash_restart} (it models the operator's metrics store). *)

val drain : t -> Stripe_packet.Packet.t list
(** Remove and return all still-buffered data packets, interleaved
    round-robin from the per-channel buffers. Also clears the blocked
    channel ({!blocked_on} returns [None] afterwards) and any recorded
    marker stamps, which described stream positions that no longer exist.
    For end-of-run accounting in finite experiments; not part of the
    protocol. *)
