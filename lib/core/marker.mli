(** Marker packet emission policy (§5, §6.3).

    The sender periodically sends a marker packet on {e each} channel
    carrying the implicit packet number — round number and deficit counter
    — of the next data packet to be sent on that channel. Markers are
    control packets distinguished from data by a link-level codepoint;
    data packets are never modified.

    Two knobs matter experimentally (§6.3): the {e frequency} (markers
    every [every_rounds] rounds — higher frequency shrinks the window of
    out-of-order delivery after a loss) and the {e position} of emission
    within a round — the paper measured the fewest out-of-order deliveries
    with markers at the beginning or end of a round, and recommends the
    end. Optionally each marker piggybacks a flow-control credit for its
    channel (the FCVC scheme of [KC93], §6.3). *)

type position =
  | Round_start
      (** Markers for all channels are emitted together, just before the
          first data packet of a marked round is dispatched. *)
  | Mid_round
      (** The marker for channel [c] is emitted as soon as [c]'s service
          visit in a marked round completes, staggering markers across the
          round. *)
  | Round_end
      (** Markers for all channels are emitted together, immediately after
          the last data packet of a marked round. *)

type policy = {
  every_rounds : int;  (** Emit markers every this many rounds; >= 1. *)
  position : position;
  credit_of : (int -> int) option;
      (** Per-channel credit to piggyback, if flow control is active: a
          cumulative limit, never negative, since [-1] is
          {!Stripe_packet.Packet.no_credit}. *)
}

val default : policy
(** Every 4 rounds, at the round end (the position the paper found best),
    no credits. *)

val make : ?credit_of:(int -> int) -> ?position:position -> every_rounds:int -> unit -> policy

val packet_for :
  epoch:int -> gen:int -> policy -> deficit:Deficit.t -> channel:int ->
  now:float -> Stripe_packet.Packet.t
(** Build the marker packet for [channel] from the sender's current
    engine state: it carries [Deficit.next_stamp deficit channel] and the
    channel's credit if the policy supplies one,
    {!Stripe_packet.Packet.no_credit} otherwise. [epoch] is the sender's
    incarnation number (PROTOCOL.md §12), [0] until its first crash
    restart; [gen] its reset-barrier generation within the epoch
    ({!Stripe_packet.Packet.marker.m_gen}). Both are required rather
    than optional because an optional argument is boxed at every call,
    and markers are emitted on the per-packet path. *)

(** {1 The sender step}

    The two marker decisions every sender makes, shared by
    {!Striper} and the fleet's slot engines so the cadence and the
    barrier exist once. The caller keeps its counters and its epoch/gen
    storage and hands in [send], its transmit function. The step hands
    [send] each marker's {e stamp}, not a packet: a sender whose
    markers ride a [Link] builds the packet in its [send] ({!Striper},
    with one clock reading for a batch), and one whose wire only queues
    them writes the stamp down (the fleet's [Bundle_pool]). Neither
    function allocates or reads a clock. *)

type send =
  channel:int -> round:int -> dc:int -> credit:int -> reset:bool -> epoch:int ->
  gen:int -> unit
(** A transmit function for one marker: the channel it goes on, the
    (round, DC) of that channel's next data packet, the piggybacked
    credit ({!Stripe_packet.Packet.no_credit} for none), whether it is a
    reset marker, and the sender's epoch and barrier generation — the
    fields of {!Stripe_packet.Packet.Marker} but the checksum, which is
    a function of them ({!Stripe_packet.Packet.marker_checksum_of}). *)

val send_stamp :
  policy -> Deficit.t -> epoch:int -> gen:int -> channel:int -> send:send ->
  unit
(** One periodic marker: hands [send] channel [channel]'s stamp, the
    stamp {!packet_for} would build a packet around. *)

val batch :
  policy -> Deficit.t -> next:int -> epoch:int -> gen:int -> send:send -> int
(** [batch policy d ~next ...] is the periodic marker batch (§5). [next]
    is the first round that gets markers; if the engine's round is below
    it, nothing is sent and [next] is returned. Otherwise one marker
    ({!send_stamp}) goes to every channel that is not suspended, in
    channel order, and the result is the next marked round: the
    following multiple of [policy.every_rounds]. Call it right after a
    push wrapped the engine into a new round for [Round_end] markers, or
    after the select for [Round_start] ones. *)

val reset_barrier : Deficit.t -> epoch:int -> gen:int -> send:send -> int
(** [reset_barrier d ~epoch ~gen ...] is the §5 reset barrier:
    {!Deficit.reinit} (which adopts a staged retune; suspensions
    survive), then one reset marker to {e every} channel, in order from
    channel 0, stamped with the fresh engine's next (round, DC), no
    credit, and [epoch] and [gen] — the caller bumps [gen] first. The
    result is the first marked round of the restarted cadence, to store
    as the next [~next] of {!batch}. *)
