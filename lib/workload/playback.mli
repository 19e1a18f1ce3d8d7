(** Video playback quality model (§6.3).

    The paper fed received traces — with controlled loss and the packet
    reordering introduced by quasi-FIFO delivery — back into NV and looked
    for perceptible playback differences, finding none below 40 % packet
    loss, and crucially that pure loss at the same rate looked the same:
    "the effect of packet reordering was insignificant compared to the
    effect of packet loss."

    The model: each frame is presented at [send_time + playout_delay]; a
    frame {e glitches} if any of its packets is missing or arrives after
    its presentation instant. Reordered packets that still make the
    deadline are harmless — which is exactly why modest reordering is
    imperceptible while loss is not. *)

type t

type report = {
  frames : int;
  glitched_frames : int;
      (** Frames with {e any} packet missing or late: the strictest
          measure — one lost slice mars the frame slightly. *)
  glitch_rate : float;
  degraded_frames : int;
      (** Frames that lost at least half their packets by the deadline:
          the perceptibility proxy — NV renders the slices that arrive,
          so a frame reads as visibly broken only when much of it is
          gone. This is the measure that crosses over around the paper's
          40 % threshold. *)
  degraded_rate : float;
  late_packets : int;
  arrived_packets : int;
  missing_packets : int;
}

val create : trace:Video.t -> ?playout_delay:float -> unit -> t
(** [playout_delay] defaults to 0.4 s — a typical conferencing jitter
    buffer. *)

val packet_arrived : t -> frame:int -> now:float -> unit
(** Record the arrival of one packet of [frame] at time [now]. *)

val finalize : t -> report
(** Judge every frame (call after the simulation drains). *)
