(** A set of FIFO int rings in one buffer.

    Where a marker waits in a queue, its stamp — round, DC, reset flag,
    epoch, generation and, on a wire, credit and checksum — waits in a
    ring here, a few ints per marker, while {!Packet.marker_sentinel}
    holds the marker's place in the {!Fifo_queue} beside it
    (DESIGN.md §8, "a queued marker is a stamp, not a packet"). The
    owner pushes and pops each stamp's ints in one fixed order.

    Ring [r] is the [r]-th slice of one buffer, every slice the same
    capacity: one block for a whole set, so a fleet's thousands of
    wires cost one buffer, which the runtime places straight in the
    major heap once it is large, instead of thousands of small
    long-lived blocks. When a ring fills, every slice doubles. Push and
    pop allocate nothing but then. *)

type t

val create : rings:int -> cap:int -> t
(** [rings] empty rings of [cap] ints each, [cap] positive: a multiple
    of the owner's record width wastes nothing. *)

val extend : t -> rings:int -> unit
(** Add empty rings up to [rings] in all; the rings already there keep
    their contents. *)

val push : t -> int -> int -> unit
(** [push t r v] appends [v] to ring [r]. *)

val pop : t -> int -> int
(** [pop t r] removes the head of ring [r]. Raises [Invalid_argument]
    if it is empty. *)

val clear : t -> int -> unit
(** Empty ring [r]. *)

val clear_all : t -> unit

val to_list : t -> int -> int list
(** Ring [r], head first. O(n). *)
