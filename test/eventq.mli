(** Priority queue of timed events, keyed by simulated time: the
    reference model the tests hold [Stripe_netsim.Calendar_queue]
    against, and the engine [Sim] ran on before the calendar became its
    only queue.

    An entry is a float time and an int payload. Ties are broken by
    insertion order, so events scheduled at the same instant pop in the
    order they were added. Implemented as a growable 4-ary heap over
    unboxed [times]/[seqs]/[slots] arrays: no add or pop stores a
    pointer, and the steady-state add/pop cycle allocates nothing. Its
    interface is the calendar queue's, so a property can drive both
    with one op sequence. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val add : t -> time:float -> int -> unit
(** [add q ~time v] inserts [v] to fire at [time]. Allocation-free except
    when the backing arrays grow. [time] must not be NaN
    (unchecked). *)

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
    or the queue is empty. Values must be non-negative, so [-1] is
    never a value. *)

val clear : t -> unit
(** Drop all events and release the backing arrays. *)
