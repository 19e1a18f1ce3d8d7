(** One simulated striping bundle, wired once: a striper over a set of
    {!Stripe_netsim.Link}s into a receiver, all on one {!Stripe_netsim.Sim}.

    Logical reception (§4) works only if the receiver runs the sender's
    CFQ algorithm from the sender's initial state; this is the one place
    that pairing is made. The builder also owns the link-to-channel
    wiring (link [i] carries channel [i] and lands in the receiver as
    channel [i]), the per-link random streams, the receive-edge drop
    hook, and the channel guard's tagged wire. Anything a single caller
    needs beyond that, it does to the returned links or striper
    ([Link.set_loss], [Link.on_carrier], [Striper.suspend_channel], …). *)

open Stripe_netsim

(** What the receiving end runs. *)
type receiver =
  | Logical
      (** A {!Resequencer} simulating the scheduler's CFQ engine from
          its initial state ({!Deficit.clone_initial}): quasi-FIFO
          delivery without headers. Requires a CFQ scheduler. *)
  | Seq
      (** A {!Seq_resequencer}: guaranteed FIFO from sequence numbers,
          with the logical-reception fast path when the scheduler is
          CFQ. *)
  | Unordered
      (** No resequencing: data packets are delivered in arrival order,
          markers are dropped. *)

(** The link payload. The plain wire carries the packet alone; the
    guarded one carries the {!Channel_guard}'s out-of-band per-channel
    tag next to it, and puts a guard of the given window (packets held
    per channel) in front of the receiver. *)
type _ wire =
  | Plain : Stripe_packet.Packet.t wire
  | Guarded : int -> (int * Stripe_packet.Packet.t) wire

type 'w t

val create :
  Sim.t ->
  scheduler:Scheduler.t ->
  channels:(float * float) array ->
  wire:'w wire ->
  receiver:receiver ->
  ?marker:Marker.policy ->
  ?rng:Rng.t ->
  ?impair:(int -> Impair.t) ->
  ?corrupt_rng:Rng.t ->
  ?drop:(channel:int -> Stripe_packet.Packet.t -> bool) ->
  ?watchdog:Resequencer.watchdog ->
  ?budget_bytes:int ->
  ?overflow:Resequencer.overflow ->
  ?on_pressure:(high:bool -> unit) ->
  ?auto_suspend:bool ->
  ?sink:Stripe_obs.Sink.t ->
  deliver:(Stripe_packet.Packet.t -> unit) ->
  unit ->
  'w t
(** [create sim ~scheduler ~channels ~wire ~receiver ~deliver ()] builds
    one link per [(rate_bps, prop_delay)] of [channels], a striper over
    [scheduler] that sends channel [c]'s packets on link [c], and the
    receiver, which hands each packet it delivers to [deliver].

    - [marker]: the striper's marker policy (CFQ schedulers only).
    - [rng]: each link draws from its own [Rng.split] of it, taken in
      channel order (default: the link's own default stream).
    - [impair]: channel [c]'s impairment profile (default none).
    - [corrupt_rng]: when given, wire corruption that the link CRC
      misses mangles markers (salted from this stream), which the
      protocol's marker checksum must catch; corrupted data is always
      CRC-dropped like loss. Without it every corrupted copy is
      CRC-dropped.
    - [drop]: called at each arrival, before the guard and the
      receiver; [true] takes the packet away (a loss at the receive
      edge, or another consumer).
    - [watchdog], [budget_bytes], [overflow], [on_pressure]: the
      {!Resequencer}'s ([Logical] only).
    - [auto_suspend]: a carrier loss suspends the channel in the
      striper and its return resumes it (default [false]).
    - [sink]: observability events from the links (tagged with their
      channel), the striper, the resequencer and the guard.

    Raises [Invalid_argument] for [Logical] without a CFQ scheduler, or
    when the scheduler's width differs from [channels]'. *)

val striper : _ t -> Striper.t
val links : 'w t -> 'w Link.t array

val resequencer : _ t -> Resequencer.t
(** Raises [Invalid_argument] unless the receiver is [Logical]. *)

val seq_resequencer : _ t -> Seq_resequencer.t
(** Raises [Invalid_argument] unless the receiver is [Seq]. *)

val guard : _ t -> Channel_guard.t option
(** The channel guard of a [Guarded] wire. *)

(** A paced source's progress: packets offered so far, and whether it
    has reached its stop condition. *)
type source = private { mutable offered : int; mutable finished : bool }

val pace :
  _ t ->
  ?burst:int ->
  every:float ->
  ?count:int ->
  ?until:float ->
  (unit -> int) ->
  source
(** [pace b ~every size] pushes [burst] (default 1) data packets into
    the striper now and every [every] seconds after, each of [size ()]
    bytes, numbered from 0 and born at the push instant, until [count]
    packets have been offered or the clock reaches [until]. The tick
    that finds the stop condition sets [finished] and schedules no
    other. *)
