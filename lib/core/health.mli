(** Gray-failure detection and self-healing channel management
    (PROTOCOL.md §13).

    A per-channel evidence-fusion engine and hysteresis state machine:

    {v Healthy -> Suspect -> Probation -> Quarantined v}

    Two signals the drivers measure — wire loss against packets sent,
    and goodput collapse from {!Rate_probe} — are fed in with {!observe}
    between ticks. Each {!sample} closes one evidence window: the
    window's signals fuse into one badness score in [[0,1]],
    smoothed by EWMA, and each channel's state machine advances with
    hysteresis (a score must stay above the enter line for
    [escalate_windows] consecutive windows to escalate, and below the
    exit line for [recover_windows] to recover).

    The two operational states degrade gracefully rather than killing
    the member. {e Probation} cuts the channel's quantum to
    [probation_frac] of nominal — the caller applies it with
    [Striper.retune]/[Resequencer.retune] so it lands at a round
    boundary — but keeps probe traffic flowing, so the engine retains
    evidence. {e Quarantine} suspends the member outright (the caller
    rides [suspend_channel] and the §5 reset barrier) and is exited
    purely on a timer: after [backoff] seconds the channel returns to
    probation probing, and each flap (re-quarantine before a full
    recovery) multiplies the next backoff by [backoff_factor] up to
    [max_backoff]. A full recovery to healthy resets the schedule. A
    reinstated probe keeps the score it was quarantined with, so a
    one-window streak re-quarantines it only on that window's own
    evidence, not on the smoothed score alone.

    The engine decides; the caller applies the returned transitions.
    The one decision the engine refuses is the fatal one: a quarantine
    that would leave no live, unquarantined channel is deferred — the
    {e last-live-channel guard} — and retried as soon as membership
    allows. The always-on liveness monitor
    ({!Stripe_obs.Monitor.create}[ ~live_channels]) independently
    checks the same invariant from the event stream. *)

type state = Healthy | Suspect | Probation | Quarantined

type config = {
  alpha : float;  (** EWMA weight of the newest window's score. *)
  w_loss : float;  (** Weight of the window loss rate. *)
  w_goodput : float;  (** Weight of the goodput shortfall (1 - ratio). *)
  enter_suspect : float;  (** Score at/above which a channel worsens. *)
  enter_quarantine : float;
      (** Score a probation channel must reach to be quarantined. *)
  exit_healthy : float;  (** Score at/below which recovery credit accrues. *)
  escalate_windows : int;  (** Consecutive bad windows per escalation. *)
  recover_windows : int;  (** Consecutive clean windows per recovery. *)
  probation_frac : float;  (** Quantum fraction carried in probation. *)
  base_backoff : float;  (** First quarantine duration, seconds. *)
  backoff_factor : float;  (** Backoff growth per flap. *)
  max_backoff : float;  (** Backoff ceiling, seconds. *)
}

val default_config : config
(** [alpha]=0.4, weights 1.0 (loss) and 0.8 (goodput), thresholds
    0.25/0.55/0.12, escalate 2, recover 3, probation fraction 0.25,
    backoff 0.25 s doubling to a 4 s ceiling. *)

(** What {!sample} decided for a channel this window. The caller maps
    these onto its striper or pool. *)
type transition =
  | To_suspect of { channel : int }
      (** Evidence crossed the suspect line; no operational change. *)
  | To_probation of { channel : int; from_quarantine : bool }
      (** Cut the channel's quantum to [probation_frac] (at a round
          boundary). [from_quarantine] = this is a timed reinstatement
          probe: also resume the suspended channel (§5 barrier). *)
  | To_quarantine of { channel : int; backoff : float }
      (** Suspend the channel through the §5 barrier; the engine will
          reinstate it to probation [backoff] seconds later. *)
  | To_healthy of { channel : int; from : state }
      (** Restore the channel's full quantum ([from = Probation]) or
          simply clear the suspicion ([from = Suspect]). *)

type t

val create :
  ?config:config ->
  ?live:(int -> bool) ->
  ?sink:Stripe_obs.Sink.t ->
  n:int ->
  unit ->
  t
(** An engine over [n] channels, all initially healthy. [live] is the
    caller's word on whether a channel's link is otherwise usable
    (default: always) — consulted only by the last-live-channel guard.
    [sink] receives [Health_suspect]/[Probation]/[Quarantine]/
    [Reinstate] events as transitions happen. Raises on an invalid
    [config] (thresholds out of order, fractions outside (0,1], ...). *)

val observe :
  t ->
  channel:int ->
  ?sent:int ->
  ?lost:int ->
  ?goodput_ratio:float ->
  unit ->
  unit
(** Accumulate evidence into the current window. Counts add up;
    [goodput_ratio] (measured/expected, 1 = nominal, 0 = collapsed)
    keeps the window's worst (lowest) observation. Evidence against a
    quarantined channel is discarded at the next {!sample} — quarantine
    exit is purely timed. *)

val observe_window :
  t ->
  channel:int ->
  sent:int ->
  lost:int ->
  sent_bytes:int ->
  delivered_bytes:int ->
  unit
(** One window of a channel's wire evidence, as a bundle's health loop
    and the fleet's health tick both read it: [sent] and [lost] packets,
    and [sent_bytes] put on the wire against [delivered_bytes] that came
    off it. Observes the packet counts with the byte ratio as the
    goodput ratio (capped at 1; 1 when no byte was sent). A window that
    sent and lost nothing is no evidence and is not observed. *)

val sample : t -> now:float -> transition list
(** Close the evidence window: fuse, smooth, and advance every state
    machine; expire due quarantines into probation probes. Returns the
    transitions in channel order. A window with no evidence for a
    channel decays its score toward healthy. *)

val state : t -> int -> state
val score : t -> int -> float
(** The channel's current EWMA badness score in [[0,1]]. *)

val quantum_scale : t -> int -> float
(** The quantum multiplier the channel's state asks for: 1 when
    healthy/suspect, [probation_frac] in probation, 0 quarantined. *)

val target_quanta : t -> nominal:int array -> floor:int -> int array
(** [nominal] scaled by {!quantum_scale} and floored at [floor] (the max
    packet, so Thm 5.1 keeps holding); a quarantined channel keeps its
    nominal quantum, as suspension takes it out. *)

val flaps : t -> int -> int
(** Quarantine entries since the channel's last full recovery. *)

val quarantine_until : t -> int -> float option
(** When the channel's current quarantine expires, if quarantined. *)

val deferred_quarantines : t -> int
(** Quarantine decisions the last-live-channel guard refused. *)

val n_channels : t -> int

val reset_channel : t -> int -> unit
(** Back to healthy with no memory (crash restart / recycled slot). *)

val state_name : state -> string

val parse_spec : string -> (config * float option, string) result
(** Parse a [--health] spec: comma-separated [KEY=VALUE] with keys
    [every] (tick interval in seconds, returned separately — driver
    policy, not engine state), [alpha], [suspect], [quarantine],
    [exit], [escalate], [recover], [frac], [backoff], [factor],
    [maxbackoff]; all optional over {!default_config}. Errors are
    position-annotated through {!Stripe_netsim.Spec}. *)
