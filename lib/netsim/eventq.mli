(** Priority queue of timed events, keyed by simulated time.

    Ties are broken by insertion order so that events scheduled at the same
    instant fire in the order they were scheduled — this keeps simulations
    fully deterministic. Implemented as a growable binary heap in
    struct-of-arrays layout: the steady-state add/pop cycle allocates
    nothing, and popped slots are cleared so delivered values can be
    collected. See {!Calendar_queue} for the O(1)-amortized alternative
    with identical observable ordering. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time v] inserts [v] to fire at [time]. Allocation-free except
    when the backing arrays grow. [time] must not be NaN (unchecked:
    {!Sim.schedule} rejects it). *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val peek_time_unsafe : 'a t -> float
(** Earliest scheduled time. The queue must be non-empty (unchecked):
    guard with {!is_empty}. Used by the hot loop to avoid the option. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event as [(time, value)]. *)

val take : 'a t -> float array -> 'a
(** [take q clock] removes the earliest event, stores its time in
    [clock.(0)] and returns its value without boxing a tuple, option or
    float. Raises [Invalid_argument] if the queue is empty. *)

val clear : 'a t -> unit
(** Drop all events and release the backing arrays. *)
