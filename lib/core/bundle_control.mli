(** The single-bundle control plane (PROTOCOL.md §11, §13): the one copy
    of the loops that feed {!Health} and {!Rate_probe} from a {!Bundle}'s
    link counters and apply their decisions to its striper (CFQ only)
    and resequencer (a [Logical] receiver). The caller calls a loop's step from its own tick
    and decides when the tick stops. *)

val retune : Striper.t -> Resequencer.t -> quanta:int array -> bool
(** {!Resequencer.retune}, then {!Striper.retune}, whose §5 barrier the
    staged vector rides on. [false], doing nothing, while a retune is
    still staged (one per barrier). *)

(** Quarantines, reinstatements, and retunes applied or deferred
    because a retune was still staged. *)
type counts = private {
  mutable quarantines : int;
  mutable reinstates : int;
  mutable retunes : int;
  mutable deferred : int;
}

type step = { transitions : Health.transition list; retuned : bool }

val health_loop :
  Health.t ->
  _ Bundle.t ->
  floor:int ->
  counts * (now:float -> step)
(** Each step observes the window's per-link loss against packets sent
    and delivered over sent bytes (the goodput ratio), samples, suspends
    quarantined and resumes reinstated channels, and retunes to
    {!Health.target_quanta} (over the striper's quanta at creation,
    floored at [floor], the max packet) when that changed. It acted iff
    [transitions <> [] || retuned]. *)

val adapt_loop :
  Rate_probe.t ->
  _ Bundle.t ->
  band:float ->
  max_packet:int ->
  counts * (now:float -> int array option)
(** Each step feeds the window's per-link delivered bytes to the probe,
    samples it, and retunes to {!Rate_probe.plan}'s vector (in units of
    [max_packet]), which it returns; while a retune is staged it
    plans nothing and counts a deferral. A carrier-up resets that
    channel's estimate. *)
