(** Priority queue of timed events, keyed by simulated time.

    An entry is a float time and an int payload — in a simulation, the
    slot of {!Sim}'s table that holds the event's closure. Ties are
    broken by insertion order so that events scheduled at the same
    instant fire in the order they were scheduled — this keeps
    simulations fully deterministic. Implemented as a growable 4-ary
    heap over unboxed [times]/[seqs]/[slots] arrays: no add or pop
    stores a pointer, so none pays the write barrier, and the
    steady-state add/pop cycle allocates nothing. See {!Calendar_queue}
    for the O(1)-amortized alternative with identical observable
    ordering. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val add : t -> time:float -> int -> unit
(** [add q ~time v] inserts [v] to fire at [time]. Allocation-free except
    when the backing arrays grow. [time] must not be NaN (unchecked:
    {!Sim.schedule} rejects it). *)

val peek_time : t -> float option
(** Earliest scheduled time, if any. *)

val pop : t -> (float * int) option
(** Remove and return the earliest event as [(time, value)]. *)

val take : t -> float array -> int
(** [take q clock] removes the earliest event, stores its time in
    [clock.(0)] and returns its value without boxing a tuple, option or
    float. Raises [Invalid_argument] if the queue is empty. *)

val take_until : t -> float array -> float -> int
(** [take_until q clock horizon] is {!take} if the earliest event's time
    is at most [horizon], and [-1] (the queue unchanged) if it is later
    or the queue is empty. Values must be non-negative, as {!Sim}'s slots
    are, so [-1] is never a value. *)

val clear : t -> unit
(** Drop all events and release the backing arrays. *)
