(** Transport-level striping across datagram sockets (§6.3).

    "A striping protocol was also implemented at the transport layer by
    striping packets across multiple application sockets using the same
    SRR striping and resequencing algorithm." This module is that
    harness: it builds [n] unidirectional UDP-like channels (each a
    simulated link with its own rate, delay and loss process), runs a CFQ
    striper with markers on the send side and logical reception on the
    receive side, and optionally protects the un-flow-controlled channels
    with the FCVC {!Credit} scheme over a lossless low-rate reverse
    control path.

    With flow control on, each channel's receive socket buffer holds at
    most [buffer] packets; the sender stalls (its application queue
    grows) instead of overrunning it, so congestion loss is eliminated —
    experiment E4. Without flow control, arrivals beyond the buffer are
    dropped and counted. All the §6.3 experiments (loss sweeps, marker
    frequency and position, video) drive this module. *)

type channel_spec = {
  rate_bps : float;
  prop_delay : float;
  jitter : (Stripe_netsim.Rng.t -> float) option;
  loss : unit -> Stripe_netsim.Loss.t;
      (** Fresh loss process per channel instance. *)
}

val spec :
  ?prop_delay:float ->
  ?jitter:(Stripe_netsim.Rng.t -> float) ->
  ?loss:(unit -> Stripe_netsim.Loss.t) ->
  rate_bps:float ->
  unit ->
  channel_spec
(** Defaults: 5 ms propagation, no jitter, lossless. *)

type flow_control =
  | No_flow_control
      (** Arrivals beyond the receive-socket buffer are dropped. *)
  | Credit_based of { buffer : int }
      (** Per-channel receive-socket buffer capacity, packets; the sender
          is paced so the buffer never overflows. *)

type t

val create :
  Stripe_netsim.Sim.t ->
  channels:channel_spec array ->
  scheduler:Stripe_core.Scheduler.t ->
  ?marker:Stripe_core.Marker.policy ->
  ?flow_control:flow_control ->
  ?socket_buffer:int ->
  ?rng:Stripe_netsim.Rng.t ->
  deliver:(Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** The scheduler must be CFQ (embed a deficit engine) — logical
    reception needs it. [socket_buffer] (default 10000 packets) is the
    per-channel receive-socket capacity used when flow control is off;
    with [Credit_based] the capacity comes from the policy.
    Credit updates cross the reverse path in 5 ms. [deliver] receives
    the resequenced application stream. *)

val send : t -> Stripe_packet.Packet.t -> unit
(** Offer a packet. It is transmitted immediately unless flow control
    has the chosen channel stalled, in which case it queues in the
    application send queue until credit returns. *)

val sent_packets : t -> int
(** Packets actually transmitted onto channels (excludes queued). *)

val delivered_packets : t -> int
val app_queue_length : t -> int
val congestion_drops : t -> int
(** Receive-socket overflows (only without flow control). *)

val channel_losses : t -> int
(** Packets lost in flight across all channels (the loss processes). *)

val sender_stalls : t -> int
val markers_sent : t -> int
val resequencer : t -> Stripe_core.Resequencer.t
