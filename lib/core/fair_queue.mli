(** Fair queuing proper: serving one output channel from many queues.

    This is the {e untransformed} direction of §3 — the algorithm family
    the striping scheme is derived from, implemented as a real queueing
    discipline rather than the backlogged execution
    {!Scheduler.fair_queue} runs for the duality proof. It follows DRR [SV94] with the SRR surplus
    modification: each flow has a quantum and a deficit counter; a
    round-robin scan serves the {e active} flows, granting the quantum at
    each visit and letting the counter go negative by at most one packet
    (the overdraw that makes the load-sharing transformation causal).

    The non-backlogged case is where this differs from
    {!Scheduler.fair_queue}: an empty
    queue is skipped via an active list (O(1) per packet, the DRR
    headline), and a flow that goes idle forfeits its deficit — the
    classic rule that stops an idle flow from hoarding service. It is
    precisely this active-list dependence on queue contents that makes
    general fair queuing {e non-causal} and unusable for striping (§3.1);
    having both implementations side by side makes the distinction
    concrete and testable.

    Usage: [enqueue] packets for flows; [dequeue] yields the next packet
    to transmit, or [None] when all queues are empty. *)

type t

val create : quanta:int array -> unit -> t
(** One quantum per flow, in bytes; all positive. *)

val enqueue : t -> flow:int -> Stripe_packet.Packet.t -> unit
(** Append a packet to a flow's queue. Raises on marker packets or bad
    flow ids. *)

val dequeue : t -> (int * Stripe_packet.Packet.t) option
(** Next packet in service order, with its flow. [None] iff every queue
    is empty. *)

val backlog : t -> flow:int -> int
(** Queued bytes of a flow. *)

val served_bytes : t -> flow:int -> int
(** Cumulative bytes dequeued per flow — the fairness measurement. *)

val is_empty : t -> bool
