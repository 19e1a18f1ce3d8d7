(** Fault injection against simulated links.

    The striping protocol is meant to run over real, failure-prone
    interfaces (§6.1); this module supplies the failures. A fault is a
    link event placed on the simulator clock: carrier loss and recovery
    ([Down]/[Up] — a down link drops everything silently, see
    {!Link.set_up}), service-rate degradation, and burst-loss episodes
    that temporarily swap a harsher loss process onto the link. Schedules
    can be written out explicitly, parsed from a compact command-line
    spec, or drawn from a seeded random availability model for soak
    testing. Sender crash/reboot injection is a scheduled closure, so the
    protocol layer above decides what "reboot" means (typically
    reinitializing striper state and emitting the §5 reset barrier). *)

type event =
  | Down  (** Carrier loss: the link drops everything until [Up]. *)
  | Up  (** Carrier recovery. *)
  | Rate of float  (** Set the service rate (bits per second, > 0). *)
  | Burst_loss of { loss : Loss.t; duration : float }
      (** Install [loss] for [duration] seconds, then restore whatever
          loss process the link had when the burst began. *)

type action = { at : float; channel : int; event : event }
(** One scheduled fault: [event] hits channel [channel] at time [at]. *)

val inject : Sim.t -> 'a Link.t -> at:float -> event -> unit
(** Schedule one event against one link. Raises [Invalid_argument] for a
    non-positive [Rate] or a negative burst duration. *)

val apply : Sim.t -> links:'a Link.t array -> action list -> unit
(** Schedule a whole fault script against a channel array. Raises
    [Invalid_argument] if an action names a channel out of range. *)

val down_up : Sim.t -> 'a Link.t -> down_at:float -> up_at:float -> unit
(** One outage: carrier loss at [down_at], recovery at [up_at]. *)

val crash : Sim.t -> at:float -> (unit -> unit) -> unit
(** Sender crash/reboot injection: run the given reboot procedure at
    [at]. The caller supplies what rebooting means — for the striping
    stack, reinitializing the striper mid-run and emitting the §5 reset
    barrier ({!Stripe_core.Striper.send_reset}) so the receiver
    resynchronizes from scratch. *)

val random_schedule :
  rng:Rng.t -> n_channels:int -> horizon:float -> mtbf:float ->
  mttr:float -> action list
(** Seeded random fault script over [n_channels] channels: each channel
    alternates exponentially distributed up times (mean [mtbf]) and down
    times (mean [mttr]) from time 0 to [horizon], and any channel still
    down at the horizon is brought back up there, so runs always end with
    every channel alive. Returns the actions sorted by time. Equal seeds
    give equal schedules. *)

val parse_spec : string -> (action list, string) result
(** Parse a command-line fault spec: [CH:EVENT@T[,EVENT@T...]] where
    [EVENT] is [down], [up], [rate=BPS], or [burst=P/DUR] (Bernoulli loss
    probability [P] for [DUR] seconds). Example:
    ["1:down@0.5,up@1.5,burst=0.3/0.2@2.0"]. *)

val pp_action : Format.formatter -> action -> unit
