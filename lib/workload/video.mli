(** Synthetic NV-style video-conference trace (§6.3).

    The paper captured traces from the NV video conferencing application
    and replayed them over striped lossy UDP channels. NV sends one video
    frame at a fixed rate, each frame split into several packets (image
    slices), with occasional larger refresh frames. This module generates
    an equivalent synthetic trace: a timed sequence of packets, each
    tagged with its frame id, plus per-frame bookkeeping for the
    {!Playback} quality model. *)

type frame = {
  id : int;
  send_time : float;  (** Instant the frame's packets enter the network. *)
  packet_sizes : int array;
}

type t = {
  fps : float;
  frames : frame array;
}

val generate :
  rng:Stripe_netsim.Rng.t ->
  ?fps:float ->
  ?packets_per_frame:int ->
  ?refresh_every:int ->
  ?refresh_scale:int ->
  n_frames:int ->
  unit ->
  t
(** Defaults modeled on NV over a LAN: 10 frames/s, 6 packets of ~1000 B
    per frame, a refresh every 30 frames carrying [refresh_scale] (3)
    times the packets. Packet sizes get ±25 % jitter. *)

val packets : t -> (float * Stripe_packet.Packet.t) list
(** The trace as [(send_time, packet)] pairs in send order: packets carry
    their frame id as a tag ({!Stripe_packet.Packet.frame}) and
    consecutive [seq] numbers. *)

val n_packets : t -> int

val frame_packet_count : t -> int -> int
(** Packets belonging to a frame id. *)

val duration : t -> float
