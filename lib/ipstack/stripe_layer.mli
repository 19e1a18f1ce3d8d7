(** The strIPe virtual interface (§6.1).

    strIPe sits between IP and several real interfaces as one more IP
    convergence layer: a {e virtual} interface that IP routes packets to
    exactly like a real one. On the send side it runs the striping
    algorithm over the member interfaces, transmitting unmodified IP
    datagrams under the [Cp_striped_ip] codepoint and marker packets under
    [Cp_marker]; on the receive side the members hand striped frames to
    the layer's resequencer, which restores order before passing
    datagrams up to IP. Striping is thereby transparent to IP and
    everything above it.

    The layer's MTU is the minimum MTU of its members (§6.1: striping
    restricts the bundle MTU to the smallest member MTU, which is why the
    paper recommends striping links with similar MTUs). *)

type t

val create :
  name:string ->
  members:Iface.t array ->
  scheduler:Stripe_core.Scheduler.t ->
  ?marker:Stripe_core.Marker.policy ->
  ?now:(unit -> float) ->
  ?resequence:bool ->
  deliver_up:(Ip.t -> unit) ->
  unit ->
  t
(** [create ~name ~members ~scheduler ~deliver_up ()] builds the virtual
    interface and registers itself as the [Cp_striped_ip] and [Cp_marker]
    handler on every member. The scheduler's channel count must equal the
    member count. [resequence] (default [true]) enables logical
    reception; with [false] arriving datagrams go straight up in physical
    arrival order — the "no logical reception" variants of Figure 15.

    The layer watches every member's carrier ({!Iface.on_carrier}): a
    member going down is suspended in the striper (load moves to the
    survivors), and a member coming back is resumed, which fires the §5
    reset barrier to resynchronize the peer. *)

val name : t -> string

val mtu : t -> int
(** Minimum member MTU. *)

val send : t -> Ip.t -> unit
(** Stripe one IP datagram. Raises [Invalid_argument] if it exceeds the
    bundle MTU. When {e every} member is down or suspended the datagram
    is dropped and counted ({!Stripe_core.Striper.undispatched_drops})
    — the layer never raises for link failures, like a real virtual
    interface. *)

val send_reset : t -> unit
(** Emit the §5 crash-recovery reset barrier on every member (see
    {!Stripe_core.Striper.send_reset}): the peer layer's resequencer
    reinitializes once the barrier reaches it on all members. Used when
    the host's striping state was reinitialized (reboot) or a watchdog
    detected corruption. *)

val crash_restart_sender : ?quanta:int array -> t -> unit
(** Full sender-endpoint crash + restart (PROTOCOL.md §12,
    {!Stripe_core.Striper.crash_restart}): all striping state — round
    pointer, deficits, staged retunes, suspensions, marker cadence — is
    lost; the engine rebuilds on [quanta] (default: the configured
    vector; pass a cold {!Stripe_core.Rate_probe} plan to model
    capacity re-learning), the sender's epoch increments, and
    epoch-stamped reset markers announce the new incarnation. Members
    whose physical carrier is down are re-suspended from the link state,
    not from remembered suspensions. *)

val crash_restart_receiver : t -> int
(** Full receiver-endpoint crash + restart
    ({!Stripe_core.Resequencer.crash_restart}): buffered frames, the
    simulated engine, epoch knowledge, and the frame<->datagram
    associations are lost. Returns the number of buffered data frames
    wiped. Resynchronization rides the sender's ordinary marker cadence
    (about one marker interval); frames arriving before a channel's
    first post-restart marker are discarded by its crash-sync. No-op
    returning 0 when the layer was built with [~resequence:false]. *)

val member_queue_bytes : t -> int -> int
(** Transmit queue occupancy of member [i] — the oracle for an SQF
    scheduler over this bundle. *)

val sent_datagrams : t -> int
val delivered_datagrams : t -> int
val markers_sent : t -> int

val resequencer : t -> Stripe_core.Resequencer.t option
(** The logical-reception engine, when [resequence] is on. *)

val striper : t -> Stripe_core.Striper.t
