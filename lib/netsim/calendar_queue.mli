(** Calendar queue of timed events (R. Brown, CACM 1988).

    O(1) amortized add/pop for the clustered near-future event
    populations discrete-event simulations generate, against the heap's
    O(log n). Automatically resizes its bucket ring and re-derives the
    bucket width from the live event population; shrinking waits until
    a population drop has lasted, so bursty traffic does not rehash on
    every burst.

    Drop-in ordering-compatible with {!Eventq}: pops ascend by time, and
    same-time events pop in insertion order (checked against the heap and
    a sorted-list oracle by qcheck properties over random add/pop/clear
    interleavings), so a simulation produces byte-identical seeded traces
    on either engine. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val buckets : 'a t -> int
(** Current size of the bucket ring (a power of two, at least 16), for
    tests and diagnostics. *)

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time v] inserts [v] to fire at [time], which must not be
    NaN (unchecked: {!Sim.schedule} rejects it). Allocation-free except
    when a bucket or the calendar itself resizes. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val peek_time_unsafe : 'a t -> float
(** Earliest scheduled time. The queue must be non-empty (unchecked):
    guard with {!is_empty}. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event as [(time, value)]. *)

val take : 'a t -> float array -> 'a
(** [take q clock] removes the earliest event, stores its time in
    [clock.(0)] and returns its value: one scan, no boxing. Raises
    [Invalid_argument] if the queue is empty. *)

val clear : 'a t -> unit
(** Drop all events and reset the calendar to its initial geometry. *)
