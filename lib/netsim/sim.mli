(** Discrete-event simulation engine.

    A simulation is a virtual clock plus a queue of pending events. Model
    components schedule closures at future instants; [run] drains the queue
    in time order, advancing the clock. Time is in seconds of simulated
    time. The engine is single-threaded and deterministic.

    Pending closures live in one slot table; a {!Calendar_queue} orders
    plain (time, slot) entries, same-time events in insertion order. A
    firing event's slot is cleared and freed before its closure runs, so
    a fired closure is collectable at once, a handler that raises leaves
    the simulation consistent, and a handler that schedules may reuse
    the slot. *)

type t

(** Ignored: every simulation runs the calendar; kept until ROADMAP item
    20 edits [workloads.ml]. *)
type engine = Heap | Calendar

val create : ?engine:engine -> unit -> t
(** Fresh simulation with the clock at 0, on a {!Calendar_queue}.
    [engine] is ignored: every simulation runs the calendar; kept until
    ROADMAP item 20 edits [workloads.ml]. *)

val now : t -> float
(** Current simulated time. *)

val clock : t -> float array
(** The one-cell array the simulation keeps its time in:
    [(clock t).(0) = now t] at every moment. A hot path reads the time
    from it without a call, so the float is not boxed where calls do
    not inline across modules. Read it; never write it. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule sim ~at f] runs [f] when the clock reaches [at]. [at] must
    not be in the past ([at >= now sim], so not NaN either); raises
    [Invalid_argument] otherwise, leaving the queue unchanged. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_after sim ~delay f] is [schedule sim ~at:(now sim +. delay)].
    [delay] must be non-negative (and not NaN). *)

val run : t -> unit
(** Drain all events. Returns when the queue is empty. *)

val run_until : t -> float -> unit
(** [run_until sim horizon] processes events with time [<= horizon], then
    advances the clock to [horizon] (even if no event fired exactly
    there). Events beyond the horizon stay queued. If {!stop} fires
    mid-run the clock stays at the stopping event's time — the run did
    not reach the horizon, and a caller resuming after the stop must see
    the time it actually stopped at. *)

val step : t -> bool
(** Process a single event. Returns [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued events. *)

val events : t -> int
(** Number of events fired since {!create} or the last {!reset}: one
    per closure {!step} has called, including one that raised. *)

val stop : t -> unit
(** Ask a running [run]/[run_until] to return after the current event.
    Queued events are kept. *)

val reset : t -> unit
(** Return a drained simulation to the state {!create} built: clock at
    0, no events fired, no stop pending. The queue's storage and the
    slot table are kept. Pop order depends only on (time, insertion
    order), so a run after [reset] fires exactly the sequence
    it would fire on a fresh simulation. Raises [Invalid_argument] if
    events are pending. *)
