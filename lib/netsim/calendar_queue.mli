(** Calendar queue of timed events (R. Brown, CACM 1988).

    O(1) amortized add/pop for the clustered near-future event
    populations discrete-event simulations generate, against a heap's
    O(log n). Automatically resizes its bucket ring and re-derives the
    bucket width from the live event population; shrinking waits until
    a population drop has lasted, so bursty traffic does not rehash on
    every burst.

    An entry is a float time and an int payload — in a simulation, the
    slot of {!Sim}'s table that holds the event's closure — so adding,
    popping or moving an entry stores no pointer. A rehash hands each
    emptied bucket's arrays to the buckets of the new ring, and the
    ring's own arrays are double-buffered, so resizing allocates little
    once the population has cycled through its sizes.

    {!Sim}'s only event queue. Pops ascend by time, and same-time events
    pop in insertion order: that order is total, so a change to the
    queue's internals changes costs, never a seeded result. The tests
    check it against a binary-heap oracle and a sorted list by qcheck
    properties over random add/pop/clear interleavings, and against
    traces the heap produced when [Sim] still ran on it. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val buckets : t -> int
(** Current size of the bucket ring (a power of two, at least 16), for
    tests and diagnostics. *)

val add : t -> time:float -> int -> unit
(** [add q ~time v] inserts [v] to fire at [time], which must not be
    NaN (unchecked: {!Sim.schedule} rejects it). Allocation-free except
    when a bucket or the calendar itself resizes. *)

val peek_time : t -> float option
(** Earliest scheduled time, if any. *)

val pop : t -> (float * int) option
(** Remove and return the earliest event as [(time, value)]. *)

val take : t -> float array -> int
(** [take q clock] removes the earliest event, stores its time in
    [clock.(0)] and returns its value: one scan, no boxing. Raises
    [Invalid_argument] if the queue is empty. *)

val take_until : t -> float array -> float -> int
(** [take_until q clock horizon] is {!take} if the earliest event's time
    is at most [horizon], and [-1] if it is later or the queue is empty:
    one scan either way. Values must be non-negative, as {!Sim}'s slots
    are, so [-1] is never a value. *)

val clear : t -> unit
(** Drop all events and reset the calendar to its initial geometry. *)
