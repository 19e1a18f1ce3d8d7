(** Saving and replaying packet traces.

    §6.3's methodology was trace-driven: "video traces sent by the NV
    video conferencing application were captured. The stored traces were
    then striped over multiple UDP channels ... The received traces ...
    were fed to the NV application." This module provides the same
    capture/replay workflow: a timed packet trace serializes to a plain
    text format (one packet per line: [time seq size flow frame]), so
    workloads can be captured from one experiment, stored, edited, and
    replayed into another — or generated outside and imported.

    Lines starting with ['#'] are comments; blank lines are ignored. *)

type entry = {
  time : float;  (** Send instant, seconds. *)
  packet : Stripe_packet.Packet.t;
}

val save : string -> entry list -> unit
(** [save path entries] writes the trace. Raises [Sys_error] on I/O
    failure. *)

val load : string -> entry list
(** Parse a trace file. Raises [Failure] with the offending line number
    on malformed input: a line without five fields, a field that does
    not parse, a time that is not finite and [>= 0], or a size that is
    not positive. *)

val of_video : Video.t -> entry list
(** Convert a generated video trace into storable entries. *)

val to_string : entry list -> string
(** The serialized form, for tests and in-memory use. *)

val of_string : string -> entry list
(** Parse from a string (same format/failure behavior as [load]). *)

val total_bytes : entry list -> int

val duration : entry list -> float
(** Last send instant, 0 for the empty trace. *)
