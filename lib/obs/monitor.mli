(** Always-on invariant monitors over the event stream.

    A monitor is a {!Sink}: tee {!sink} into a component's sink
    ({!Sink.tee}) and it shadows the protocol's externally visible
    behavior, asserting the invariants every chaos soak must preserve:

    - {b FIFO order}: delivered data sequence numbers are strictly
      increasing past the {e quiet line} (inversions before it are
      counted as {!seq_inversions} but are legal quasi-FIFO slippage
      while chaos drains, Thm 5.1);
    - {b buffer budget}: the resequencer's buffered data bytes (shadowed
      from [Enqueue]/[Deliver]/[Epoch_discard] events) never exceed the
      configured budget;
    - {b progress}: data never sits buffered across 8 marker intervals
      with no delivery — the wedged-receiver detector;
    - {b liveness} (PROTOCOL.md §13): the health engine never drives a
      bundle to zero active members — shadowed from
      [Quarantine]/[Reinstate] events, armed by [live_channels].

    Violations are counted, the first is kept with its time and
    diagnosis, and none raises: the driver decides whether a soak
    aborts. Conservation — pushed =
    delivered + pending + counted drops — cannot be checked from events
    alone (drops happen at many layers with their own counters), so it
    is provided as the explicit checkers {!conserved} /
    {!check_conservation} over harvested counter values. *)

type t

val create : ?budget_bytes:int -> ?live_channels:int -> unit -> t
(** The FIFO quiet line starts at 0.0 — strict from the start; chaos
    drivers move it past their last event plus a drain grace
    ({!set_quiet_after}). [budget_bytes] arms the budget monitor with
    the same bound handed to the resequencer. [live_channels] arms the
    liveness monitor with the bundle width: a [Quarantine] event that
    leaves all of them quarantined at once is a violation. *)

val sink : t -> Sink.t
(** The monitor as an event sink. Tee it into the observed component's
    sink; a fresh call returns a new sink sharing this monitor. *)

val set_quiet_after : t -> float -> unit

val violations : t -> int

val first_violation : t -> (float * string) option
(** Time and diagnosis of the first violation — report it together with
    the run's seed and the chaos driver's last event index. *)

val seq_inversions : t -> int
val events_seen : t -> int

type verdict = {
  violations : int;
  seq_inversions : int;
  first_violation : (float * string) option;
  events_seen : int;
}
(** Immutable summary of a monitor's findings, detachable from the
    monitor itself — the shape that crosses shard merge barriers. *)

val verdict : t -> verdict
(** Snapshot this monitor's findings. *)

val merged_verdict : verdict list -> verdict
(** Merge a non-empty list, left to right: counts add, and
    [first_violation] keeps the earliest by violation time (ties keep
    the earlier shard's, so the merge is deterministic). *)

val conserved :
  pushed:int -> delivered:int -> pending:int -> drops:int list -> bool
(** The conservation identity over harvested counters: [pushed =
    delivered + pending + sum drops]. *)

val check_conservation :
  what:string ->
  pushed:int ->
  delivered:int ->
  pending:int ->
  drops:int list ->
  (unit, string) result
(** Like {!conserved}, but a diagnosable [Error] naming [what]. *)
