(** FIFO packet buffer with byte accounting.

    Used for the per-channel receive buffers of logical reception (§4),
    for fair-queuing flow queues and for the copies in flight on a wire. Tracks current and high-water occupancy in both
    packets and bytes, which the benchmarks report to size real buffers
    against channel skew. The size of each element is supplied at [push]
    so the queue stays generic.

    Implemented as a ring buffer in struct-of-arrays layout: the
    steady-state push/pop cycle allocates nothing, and popped slots are
    cleared so delivered values can be collected. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> size:int -> 'a -> unit
(** Allocation-free except when the ring grows. *)

val pop : 'a t -> 'a option
(** Remove the oldest element. *)

val pop_exn : 'a t -> 'a
(** Remove the oldest element without boxing an option. Raises
    [Invalid_argument] if the queue is empty: guard with {!is_empty}. *)

val peek : 'a t -> 'a option
(** Oldest element without removing it. *)

val peek_unsafe : 'a t -> 'a
(** Oldest element without removing it or boxing an option. The queue
    must be non-empty (unchecked): guard with {!is_empty}. *)

val peek_size_unsafe : 'a t -> int
(** Recorded size of the oldest element. The queue must be non-empty
    (unchecked): guard with {!is_empty}. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val bytes : 'a t -> int

val high_water_packets : 'a t -> int
(** Maximum simultaneous occupancy (packets) observed since the last
    {!recycle} (or creation). *)

val high_water_bytes : 'a t -> int

val note_through : 'a t -> size:int -> unit
(** Count, in the high-water marks, an element of [size] bytes that
    passes through the queue without being stored: the marks move as a
    {!push} immediately followed by its {!pop} would move them, and
    nothing else changes. For a consumer that takes an arrival straight
    off the wire when it is the element it would pop next. *)

val clear : 'a t -> unit
(** Drop all elements and reset byte accounting to zero. High-water
    marks are deliberately {e kept} — they record the lifetime maximum
    for buffer-sizing reports, and surviving [clear] is what makes the
    end-of-run report meaningful after fault-recovery paths flush
    queues. {!recycle} restarts tracking. *)

val recycle : 'a t -> unit
(** [clear], then restart high-water tracking from empty: the queue is
    ready to serve a {e new} owner. Pools recycling queues across
    bundles must use this rather than bare [clear] — [clear]'s surviving
    high-water marks are a lifetime maximum by design, and carrying them
    into the next owner would report cross-bundle maxima as if one
    bundle had seen them. The backing arrays are kept, so a warmed-up
    queue re-enters service without reallocation. *)

val to_list : 'a t -> 'a list
(** Oldest first. O(n). *)
