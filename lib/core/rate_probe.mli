(** Online per-channel delivered-goodput estimation (PROTOCOL.md §11).

    The paper sizes SRR quanta proportionally to channel bandwidth
    (§3.5) but assumes the bandwidths are known and fixed. A probe
    closes the loop for drifting links: feed it per-channel delivered
    byte counts (link feedback or [Transmit]-event accounting), sample
    it periodically to fold the window into an EWMA rate estimate, and
    ask {!plan} whether the estimates have drifted far enough from the
    current quantum vector to justify a retune
    ({!Striper.retune} / {!Resequencer.retune}).

    Goodput is a one-sided capacity oracle: a backlogged channel reveals
    its true capacity, an underloaded one only its offered share. The
    control loop still converges — an oversubscribed channel measures
    below its assigned share, so each retune shrinks its quantum until
    the assignment fits, after which the hysteresis band holds the
    vector still. *)

type t

val create : ?alpha:float -> n:int -> unit -> t
(** [alpha] is the EWMA gain in (0, 1] (default 0.3): the weight of the
    newest window's instantaneous rate. The first measurement seeds the
    estimate directly. *)

val observe : t -> channel:int -> bytes:int -> unit
(** Account [bytes] delivered on [channel] since the last {!sample}.
    Non-positive counts are ignored. *)

val sample : t -> now:float -> unit
(** Close the current window: convert each channel's accumulated bytes
    over the elapsed time into an instantaneous rate and fold it into
    the EWMA. The first call only anchors the window start. *)

val rate_bps : t -> int -> float
(** Current estimate for a channel; [0.0] until its first sample. *)

val rates : t -> float array

val samples : t -> int
(** Completed sampling windows. *)

val reset_channel : t -> int -> unit
(** Forget one channel's estimate and current window (back to the
    unseeded state; the next {!sample} seeds it directly from the first
    fresh measurement). Call this when a channel is resumed after an
    outage ({!Striper.resume_channel}): the windows observed while it
    was suspended fold zero rates into the EWMA, which decays but never
    clears, so the first post-resume estimate would otherwise blend
    pre-outage samples — and {!plan} would treat the stale blend as
    measured capacity. *)

val plan :
  ?max_packet:int ->
  ?band:float ->
  ?max_quantum:int ->
  rates_bps:float array ->
  quanta:int array ->
  quantum_unit:int ->
  unit ->
  int array option
(** Retune decision: the proportional quantum vector
    ({!Srr.quanta_for_rates}) for [rates_bps], clamped into
    [[max_packet, max_quantum]], or [None] if every
    channel's target is within [band] (relative, default 0.25) of its
    current quantum — the hysteresis that keeps estimate noise from
    thrashing the schedule — or if any estimate is still missing
    ([<= 0] or non-finite). Pure: reads nothing from a probe, so it can
    be driven from any rate source. *)
