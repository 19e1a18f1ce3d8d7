(** Throughput measurement.

    Accumulates delivered bytes against simulated time and reports rates
    in bits per second and megabits per second, matching the units of
    Figure 15 (application-level Mbps). *)

type t

val create : ?capacity_bps:float -> unit -> t
(** [capacity_bps] is the sum of the rates of the links the bytes
    cross (unchecked by default): {!bps} fails if the rate exceeds it. *)

val account : t -> now:float -> bytes:int -> unit
(** Record a delivery of [bytes] at simulated time [now]. A delivery
    after the {!stop_at} time is not counted. *)

val start_at : t -> float -> unit
(** Set the measurement epoch (defaults to the first [account] time). *)

val stop_at : t -> float -> unit
(** Close the window at a time: later deliveries are not counted, and
    the rate is taken over the epoch to that time, so a backlog drained
    after it does not inflate the rate. *)

val bytes : t -> int

val packets : t -> int

val duration : t -> float
(** Time from the epoch to the {!stop_at} time if one is set, else to
    the latest accounted delivery. *)

val bps : t -> float
(** Average bits per second over [duration]; 0 if no time has passed.
    Raises [Failure] if it exceeds the [capacity_bps] given to
    {!create}. *)

val mbps : t -> float
