(** Host CPU model.

    A single work-conserving processor: work items queue FIFO and each
    occupies the CPU for its cost in seconds. This is the bottleneck that
    shapes Figure 15 — "the CPU cannot keep up with the network at higher
    speeds", and "the bottleneck is in the interrupt driver processing,
    as opposed to the striping overhead". Protocol work (per-packet send
    processing, interrupt handling) is charged here; when offered work
    exceeds capacity, completion times slide and upstream queues back
    up. *)

type t

val create : Stripe_netsim.Sim.t -> unit -> t

val execute : t -> cost:float -> (unit -> unit) -> unit
(** [execute t ~cost k] queues a work item taking [cost] seconds of CPU
    and calls [k] at its completion time. [cost] must be non-negative. *)

val backlog : t -> float
(** Seconds of queued work not yet completed (from now until all
    queued work completes; 0 when idle). *)

val busy_seconds : t -> float
(** Cumulative CPU seconds consumed by completed-or-scheduled work. *)

val utilization : t -> float
(** [busy_seconds / now]; 0 before time advances. May exceed 1 transiently
    because scheduled work is counted when queued. *)
