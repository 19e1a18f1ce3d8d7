(** Simulated FIFO channel.

    This is the paper's "channel" abstraction (§2): a logical FIFO path
    with a service rate, a propagation delay that may vary packet to
    packet (skew/jitter), and a loss process. FIFO order is preserved even
    under jitter — the model clamps each arrival to be no earlier than the
    previous arrival, matching the paper's assumption that each channel
    delivers in order while skew varies. An optional {!Impair} profile
    deliberately breaks that assumption (reordering, duplication,
    corruption) to exercise the receiver's containment machinery.

    The link is generic in its payload type; callers pass the wire size of
    each payload explicitly, so this module has no dependency on any
    particular packet format.

    A link owns a transmit queue of bounded byte capacity: packets sent
    while the serializer is busy queue up; packets that would overflow the
    queue are dropped at the sender (tail drop), which is how congestion
    loss arises in the flow-control experiments.

    Departures are computed in closed form, as in the fleet's wires: a
    packet sent at [now] finishes serializing at
    [fin = max(now, busy_until) + size·8/rate] and lands at
    [fin + prop_delay]. The queue is the tail of the link's wire ring.
    The wire is FIFO, so the link keeps one pending landing event, for
    the ring's head, however long the queue; a packet costs one
    simulation event, at its landing instant, when nothing perturbs its
    arrival (no jitter, impairment or sink). The packet's fate (carrier,
    loss and impairment draws) is decided under the state the link was
    in at [fin]; every setter and accessor first decides each packet
    whose serialization ended by now, so no caller can tell the
    decision was deferred.

    A link also models {e carrier}: it starts up, and {!set_up} (driven by
    the {!Fault} injector) pulls or restores the cable. While down the
    link drops everything silently — fresh sends, the transmit queue, the
    packet being serialized, and packets still in flight — exactly the
    failure mode a striping bundle must survive. Carrier transitions are
    observable both as [Channel_down]/[Channel_up] events on the sink and
    through registered {!on_carrier} watchers (the simulated equivalent of
    a NIC driver's link-state interrupt). *)

type 'a t

val create :
  Sim.t ->
  rate_bps:float ->
  prop_delay:float ->
  ?jitter:(Rng.t -> float) ->
  ?rng:Rng.t ->
  ?loss:Loss.t ->
  ?impair:Impair.t ->
  ?corrupt:('a -> 'a option) ->
  ?txq_capacity_bytes:int ->
  ?channel:int ->
  ?sink:Stripe_obs.Sink.t ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [create sim ~rate_bps ~prop_delay ~deliver ()] makes a link that calls
    [deliver payload] at each arrival instant.

    - [rate_bps]: serialization rate in bits per second (must be > 0).
    - [prop_delay]: base one-way propagation delay in seconds.
    - [jitter]: extra per-packet delay drawn at each transmission
      (default: none). Arrivals remain FIFO regardless.
    - [rng]: the stream every loss, jitter and impairment draw is taken
      from (default: a fresh stream seeded 0). It must be the link's
      own: the link draws in packet order when it decides each packet,
      not in global event order, so a stream shared with another link
      or with the caller would hand out its draws in a different order
      than events fire. The same holds for a stateful [loss] process.
    - [loss]: loss process applied per packet (default: lossless).
    - [impair]: intra-channel impairment profile (default: {!Impair.none})
      — reordering {e breaks} the FIFO clamp (unlike [jitter]),
      duplication delivers a packet twice, corruption damages it on the
      wire. See {!Impair}.
    - [corrupt]: what a wire-corrupted payload becomes. [None] result (or
      no hook) means the link-level CRC caught the damage and the packet
      is discarded at arrival ([Corrupt_discard] event, {!corrupt_drops});
      [Some payload'] means the CRC missed it and the mangled payload is
      delivered — for modelling damage only protocol-level integrity
      checks can catch.
    - [txq_capacity_bytes]: transmit queue bound (default: unbounded).
    - [sink] with [channel]: observability events at simulator time —
      [Dequeue] when a packet starts serializing, [Drop] when the loss
      process takes it, [Txq_drop] on transmit-queue overflow, [Arrival]
      at delivery. [channel] tags the events (default [-1]); the payload
      is opaque here so they carry size but no sequence number. A
      watched link also keeps one pending event at the [fin] of the
      packet serializing, re-armed at the next [fin] when it fires, so
      that [Dequeue] and [Drop] carry their true times in time order;
      the landing events are scheduled the same way with or without a
      sink, so a sink never changes what is delivered when. *)

val send : 'a t -> size:int -> 'a -> bool
(** [send t ~size payload] queues a packet for transmission: it
    finishes serializing at [fin = max(now, busy_until) + size·8/rate]
    and lands at [fin + prop_delay], where [busy_until] is when the
    packets queued ahead of it finish. Only a packet sent onto an empty
    wire schedules its landing; a queued one's is scheduled when its
    predecessor lands. Returns [false] if the
    transmit queue was full and the packet was dropped at the sender;
    [true] if it was accepted (it may still be lost in flight). Raises
    [Invalid_argument] if [size] is not positive. *)

val rate_bps : 'a t -> float

val set_rate_bps : 'a t -> float -> unit
(** Change the service rate (models the paper's variable-rate ATM PVC).
    The packet serializing keeps the departure time it started with;
    every packet queued behind it is re-timed to start when its
    predecessor ends and to serialize at the new rate, as are packets
    sent later. Nothing is scheduled: a queued packet's landing is
    scheduled only once it heads the wire, after its re-timing. *)

val is_up : 'a t -> bool
(** Whether the link currently has carrier. Links are created up. *)

val set_up : 'a t -> bool -> unit
(** [set_up t up] changes the carrier state. Going down flushes the
    transmit queue: every packet queued behind the one serializing is
    counted in {!down_drops} and reported as a [Drop] event at once. The
    packet serializing is dropped at the end of its serialization if the
    carrier is still down then, and a copy in flight at its arrival
    instant. Transitions emit [Channel_down]/[Channel_up] on the sink
    and invoke every {!on_carrier} watcher; setting the current state is
    a no-op. *)

val on_carrier : 'a t -> (up:bool -> unit) -> unit
(** Register a carrier watcher, called after every {!set_up} transition
    with the new state. Watchers run in registration order; the striping
    layer uses this to suspend and resume dead members automatically. *)

val loss_process : 'a t -> Loss.t
(** The loss process currently applied to transmissions. *)

val set_loss : 'a t -> Loss.t -> unit
(** Replace the loss process (fault injection: burst-loss episodes swap a
    harsher process in and the original back afterwards). *)

val impairments : 'a t -> Impair.t
(** The impairment profile currently applied to transmissions. *)

val set_impairments : 'a t -> Impair.t -> unit
(** Replace the impairment profile (e.g. [--impair-stop] clearing every
    profile mid-run to let the receiver resynchronize). *)

val queue_bytes : 'a t -> int
(** Bytes currently waiting in the transmit queue (excluding the packet
    being serialized). Used by the shortest-queue-first baseline. *)

val queue_packets : 'a t -> int

val busy : 'a t -> bool
(** Whether the serializer is currently transmitting a packet. *)

(** Cumulative counters since creation. *)

val sent_packets : 'a t -> int
val sent_bytes : 'a t -> int
val delivered_packets : 'a t -> int
val delivered_bytes : 'a t -> int
val lost_packets : 'a t -> int
val txq_drops : 'a t -> int

val down_drops : 'a t -> int
(** Packets dropped because the link was down: rejected sends, flushed
    queue entries, and serializations or flights that completed while the
    carrier was gone. Disjoint from {!lost_packets} and {!txq_drops}. *)

val reordered_packets : 'a t -> int
(** Deliveries scheduled with an unclamped reordering delay. *)

val duplicated_packets : 'a t -> int
(** Packets for which a second delivery copy was scheduled. *)

val corrupted_packets : 'a t -> int
(** Delivery copies damaged by the corruption impairment (whether the
    CRC then caught them or not). *)

val corrupt_drops : 'a t -> int
(** Corrupted copies the simulated link CRC discarded at arrival. Always
    [<= corrupted_packets]; the difference is mangled deliveries. *)
