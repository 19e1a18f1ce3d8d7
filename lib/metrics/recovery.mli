(** The delivery log: the one meter of a delivered stream (§6.3,
    Table 1, Theorem 5.1).

    Records each delivery as a [(time, seq)] pair, where [seq] is the
    sender's measurement-only input numbering, and answers every reading
    the experiments take from it: how many packets arrived out of order
    and how far ({!out_of_order}, {!max_displacement},
    {!displacement_percentile}), and, given the instant channel errors
    stopped, how long after it the stream became — and stayed — in
    order, i.e. the time at which quasi-FIFO turned back into FIFO
    ({!resync_time}). Fed at the application it measures delivery
    order; fed at a wire exit it measures arrival order. *)

type t

val create : unit -> t

val observe : t -> now:float -> seq:int -> unit

val deliveries : t -> int

val resync_time : t -> errors_stop:float -> float option
(** [resync_time t ~errors_stop] is [Some (t_sync -. errors_stop)] where
    [t_sync] is the earliest delivery time at or after [errors_stop] from
    which the remaining stream is strictly increasing in [seq] (and at
    least one delivery follows, so an empty tail does not count as
    recovery). [None] if the stream never recovers, or recovers only
    vacuously. If delivery was already in order at [errors_stop], the
    result is [Some 0.]. *)

val first_after : t -> time:float -> float option
(** Time of the first delivery at or after [time] — e.g. the moment
    service resumed after a failover, given the instant of the fault. *)

val max_gap : t -> from_:float -> until_:float -> float
(** Longest interval within [\[from_, until_\]] containing no delivery —
    the worst service outage the stream experienced in the window. The
    edges count: time from [from_] to the first delivery in the window,
    and from the last one to [until_]. [until_ -. from_] when the window
    saw no delivery at all. *)

val availability : t -> from_:float -> until_:float -> bucket:float -> float
(** Fraction of [bucket]-second slots of [\[from_, until_)] in which at
    least one packet was delivered — the availability a failover
    experiment reports (1.0 = service never paused for a whole bucket). *)

val in_order_after : t -> time:float -> bool
(** Whether every delivery strictly after [time] arrived in increasing
    [seq] order. *)

(** {2 Delivery order}

    A delivery's {e displacement} is how far its [seq] trails the
    highest [seq] delivered before it (0 when it does not trail); a
    delivery is {e late} when its displacement is positive. These are
    the misordering readings of §6.3 and Table 1, taken over the
    sender's measurement-only [seq] numbering. *)

val out_of_order : t -> int
(** Late deliveries over the whole log. *)

val late_times : t -> float list
(** The times of the late deliveries over the whole log, in delivery
    order: [List.length (late_times t) = out_of_order t]. *)

val out_of_order_after : t -> time:float -> int
(** Late deliveries strictly after [time], the running maximum taken
    over that tail alone. *)

val max_displacement : t -> int
(** Largest displacement over the whole log; 0 for an in-order or empty
    stream. *)

val displacement_percentile : t -> p:float -> int
(** Nearest-rank [p]-quantile of the displacements of every delivery
    (in-order ones count as 0): the [ceil (p * n)]-th smallest, at
    least the first. 0 for an empty log. Raises [Invalid_argument]
    unless [0 <= p <= 1]. *)

(** {2 Outage intervals}

    Pure arithmetic over [(start, stop)] down intervals, for the
    chaos/failover reports. Chaos schedules produce {e overlapping}
    outages (a storm over several channels, a crash inside a storm);
    summing per-event durations double-counts the overlap, so these
    work on the union. Degenerate intervals ([stop <= start]) are
    ignored. *)

val merge_intervals : (float * float) list -> (float * float) list
(** The union: sorted, disjoint, touching intervals coalesced. *)

val merge_parts : (float * float) list list -> (float * float) list
(** Union across per-shard outage lists — {!merge_intervals} of the
    concatenation. Because the union is idempotent and associative, any
    partition of one outage set across shards merges to the same result
    as the unsharded set; the downstream statistics ({!downtime},
    {!interval_availability}, {!longest_outage}, {!mttr}) are functions
    of the union, so they agree too. *)

val downtime : (float * float) list -> float
(** Total length of the union — the time at least one outage was in
    effect, each instant counted once. *)

val interval_availability :
  outages:(float * float) list -> from_:float -> until_:float -> float
(** [1 - downtime(union clipped to [from_, until_]) / (until_ - from_)]:
    the fraction of the window with no outage in effect. [1.0] on an
    empty window. *)

val longest_outage : (float * float) list -> float
(** Length of the longest merged outage — the worst single service
    interruption, overlap-aware. *)

val mttr : (float * float) list -> float option
(** Mean length of the merged outages — mean time to repair over
    distinct service interruptions. [None] without outages. *)
