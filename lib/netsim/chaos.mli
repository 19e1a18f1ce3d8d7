(** Chaos plans: correlated fault storms and endpoint crash/restart.

    {!Fault} injects events against individual links; this module
    composes the fleet-scale failures above it — a {e storm} takes a
    whole shared-risk group of channels down at once, a {e crash} takes
    one endpoint of one bundle down for a finite downtime, and a
    {e violate} is the test-only hook that poisons an invariant monitor
    to prove the monitoring path fires. A plan is parsed from a compact
    [--chaos] spec or drawn from a seeded {!Rng}, and {!apply} compiles
    it to numbered primitive transitions on the simulator clock — so a
    failure is always reportable as "seed S, event N". *)

type side = Tx | Rx  (** Which endpoint of a bundle a crash hits. *)

(** How a [Degrade] action hurts its channel — the gray-failure palette
    (PROTOCOL.md §13). None of these take the carrier cleanly down: the
    channel stays in the rotation, just worse, which is the regime the
    health engine exists to detect. *)
type degrade =
  | Loss_ramp of float
      (** Bernoulli loss escalating in four equal steps to the given
          probability over the window, then cleared. *)
  | Gilbert_loss of float
      (** Bursty Gilbert–Elliott loss for the window: the bad state
          loses at the given probability, the good state at 1/20th of
          it. *)
  | Rate_collapse of float
      (** The channel's service rate scaled by the given fraction
          (0 < f <= 1) for the window, then restored. *)
  | Flap of float
      (** The carrier bounces with the given period (down half, up
          half) across the window, ending up. *)

type action =
  | Storm of { channels : int list; at : float; duration : float }
      (** Carrier loss on every channel of the group at [at], recovery
          for all of them [duration] later. *)
  | Crash of { side : side; bundle : int; at : float; downtime : float }
      (** One endpoint of [bundle] crashes at [at] and restarts
          [downtime] later (PROTOCOL.md §12). *)
  | Violate of { bundle : int; at : float }
      (** Deliberately corrupt [bundle]'s FIFO monitor state at [at] —
          a detection self-test, not a protocol event. *)
  | Degrade of { channel : int; kind : degrade; at : float; duration : float }
      (** Gray failure: [channel] degrades per [kind] from [at] for
          [duration] seconds, then the impairment clears. *)

type driver = {
  set_channel_up : int -> bool -> unit;
  crash : side -> int -> unit;
  restart : side -> int -> unit;
  violate : int -> unit;
  set_loss : int -> Loss.t -> unit;
      (** Install a loss process on a channel ([Loss.none ()] clears). *)
  scale_rate : int -> float -> unit;
      (** Scale a channel's service rate relative to its {e nominal}
          rate (1.0 restores; the driver owns the nominal). *)
}
(** How a plan acts on the system under test. The module is agnostic:
    a {!Bundle_pool} fleet maps these straight onto
    [set_channel_up] / [crash_sender] / [restart_receiver] / ...;
    a two-endpoint [Stripe_layer] run maps channels to links and
    ignores the bundle id. *)

val apply :
  Sim.t ->
  ?on_event:(index:int -> time:float -> string -> unit) ->
  driver ->
  action list ->
  unit
(** Compile the plan to primitive transitions (a storm is one down and
    one up per member channel; a crash is a crash and a restart),
    number them in deterministic time order, and schedule each on the
    simulator. [on_event] fires just before each transition — record
    the last index seen and any monitor violation is pinned to its
    event neighborhood. Raises [Invalid_argument] on negative times,
    durations, channels, or bundles. *)

val horizon : action list -> float
(** Time by which every action of the plan has fully played out
    (including storm recoveries and restarts). *)

val random_plan :
  rng:Rng.t ->
  n_channels:int ->
  n_bundles:int ->
  horizon:float ->
  ?storm_every:float ->
  ?crash_every:float ->
  ?degrade_every:float ->
  ?mean_outage:float ->
  ?mean_downtime:float ->
  ?mean_degrade:float ->
  unit ->
  action list
(** Seeded random plan over [horizon] seconds: storms arrive as a
    Poisson process with mean gap [storm_every] (0, the default,
    disables them), each hitting a uniformly drawn non-empty channel
    subset for an exponential [mean_outage]; crashes arrive with mean
    gap [crash_every] (0 disables), each picking a side and a bundle
    uniformly with an exponential [mean_downtime]; gray degradations
    arrive with mean gap [degrade_every] (0 disables), each hitting
    one uniform channel with a uniformly drawn kind (loss ramp,
    Gilbert burst, rate collapse, or flapping) for an exponential
    window around [mean_degrade] (floored at a quarter of it). Sorted
    by time. Equal seeds give equal plans. *)

val parse_spec : string -> (action list, string) result
(** Parse a command-line chaos spec: comma-separated items
    [storm=C1+C2+.../DUR@T], [crash=tx/ID/DUR@T], [crash=rx/ID/DUR@T],
    [violate=ID@T], [degrade=CH/KIND/PARAM/DUR@T] with KIND one of
    [loss] (ramp to probability PARAM), [gilbert] (bursty loss, bad
    state loses PARAM), [rate] (service rate scaled by PARAM), [flap]
    (carrier flap period PARAM). Example:
    ["storm=0+2/0.5@1,degrade=1/gilbert/0.5/1.5@2,violate=0@4"].
    Errors are position-annotated ({!Spec.located}). *)

val pp_action : Format.formatter -> action -> unit
