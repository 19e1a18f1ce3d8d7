(** Full-duplex striping session with credits piggybacked on markers.

    §6.3: the FCVC credit scheme "was particularly well suited to our
    striping scheme, since the credits could be piggybacked on the
    periodic marker packets." That requires traffic in both directions —
    credits for the A→B data direction ride on the B→A markers and vice
    versa. This module wires two symmetric striped directions ("the same
    analysis and algorithms apply for the reverse direction", §2) between
    endpoints A and B:

    - each endpoint runs a striper (markers included) for its outbound
      data and a logical-reception resequencer for its inbound data;
    - each endpoint's outbound markers carry, per channel, the cumulative
      credit limit of its {e inbound} socket buffers;
    - when consumption frees enough buffer and no outbound data is due
      soon, a standalone credit marker is emitted so the peer is never
      starved by an idle reverse direction.

    Senders stall (their application queue grows) rather than overrun
    the peer; with correct configuration no packet is ever dropped for
    congestion, while both directions share every channel. *)

type stats = {
  sent : int;  (** Data packets transmitted (excludes queued). *)
  delivered : int;  (** In-order data packets handed to the application. *)
  congestion_drops : int;
  stalls : int;
  markers : int;  (** Markers emitted by this side, periodic + standalone. *)
  app_queue : int;
}

type t

val create :
  Stripe_netsim.Sim.t ->
  channels:Socket_stripe.channel_spec array ->
  quanta:int array ->
  buffer:int ->
  ?marker_every:int ->
  deliver_to_a:(Stripe_packet.Packet.t -> unit) ->
  deliver_to_b:(Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** [create sim ~channels ~quanta ~buffer ~deliver_to_a ~deliver_to_b ()]
    builds both directions over mirrored copies of [channels] (each
    direction gets its own links with the same specs). [buffer] is the
    per-channel receive-socket capacity in packets at each endpoint;
    [marker_every] (default 4) the periodic marker interval in rounds.
    Stall time when credit markers are lost is bounded by a 50 ms
    refresh: while either side has stalled traffic, inbound limits are
    re-advertised at that period (idempotent — limits are
    cumulative). *)

val send_from_a : t -> Stripe_packet.Packet.t -> unit
(** Offer a packet for the A→B direction. *)

val send_from_b : t -> Stripe_packet.Packet.t -> unit

val stats_a : t -> stats
(** A's view: its outbound sends/stalls and its inbound deliveries. *)

val stats_b : t -> stats
