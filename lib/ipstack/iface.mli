(** Real IP interface: a convergence layer over one data link.

    An interface owns the transmit side of one simulated {!link:
    Stripe_netsim.Link.t} and exposes the IP convergence functions of
    §6.1: address mapping via {!Arp}, encapsulation of IP datagrams in
    link frames, MTU enforcement, and receive-side demultiplexing by
    {e codepoint}. Codepoints are the key enabler for header-free
    striping: striped IP data and marker packets use link-level types of
    their own ("on Ethernet, codepoints for marker packets are available
    simply by using a different packet type field"), leaving ordinary IP
    data packets and link formats untouched. *)

type codepoint =
  | Cp_ip  (** Ordinary IP datagram. *)
  | Cp_striped_ip  (** IP datagram striped by strIPe. *)
  | Cp_marker  (** strIPe marker control packet. *)

type frame =
  | Ip_frame of Ip.t
  | Striped_frame of Ip.t
  | Marker_frame of Stripe_packet.Packet.t

type t

val create :
  Stripe_netsim.Sim.t ->
  name:string ->
  mtu:int ->
  arp:Arp.t ->
  link:frame Stripe_netsim.Link.t ->
  unit ->
  t
(** Each frame is charged {!Stripe_packet.Sizes.ethernet_overhead} bytes
    on the wire on top of its payload. The link's own MTU, if any,
    should admit [mtu] plus that overhead. *)

val mtu : t -> int

val set_handler : t -> codepoint -> (frame -> unit) -> unit
(** Register the upper-layer receiver for a codepoint (IP input for
    [Cp_ip], the strIPe layer for [Cp_striped_ip] and [Cp_marker]).
    Frames with no registered handler are counted and dropped. *)

val rx : t -> frame -> unit
(** Wire-side entry point: connect the {e peer}'s link delivery to this.
    Demultiplexes by codepoint. *)

val send : t -> frame -> unit
(** Encapsulate and transmit. Resolves the IP next hop via ARP for IP
    frames (control frames skip resolution — they are link-local by
    construction). Raises [Invalid_argument] if the payload exceeds the
    interface MTU. Frames to unresolvable destinations are counted and
    dropped, as a real convergence layer does. *)

val queue_bytes : t -> int
(** Transmit-queue occupancy of the underlying link (for SQF). *)

val link_up : t -> bool
(** Carrier state of the underlying link. *)

val on_carrier : t -> (up:bool -> unit) -> unit
(** Subscribe to carrier transitions of the underlying link — the
    driver's link-state interrupt. {!Stripe_layer} uses this to suspend
    and resume dead members automatically. *)

val tx_frames : t -> int
val rx_frames : t -> int

val arp_failures : t -> int
val unclaimed_frames : t -> int
