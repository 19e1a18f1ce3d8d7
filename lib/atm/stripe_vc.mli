(** Striping IP packets across ATM virtual circuits, with OAM markers.

    The configuration §7 calls "the most important application of our
    techniques": each channel is a VC; datagrams are carried whole as
    AAL5 frames; the resynchronization markers ride OAM cells "sent on
    the same Virtual Circuit that implements the channel" — no packet or
    cell format is modified.

    The sender runs SRR over the VCs ({e packet}-level striping, so each
    VC carries complete AAL5 frames and the network keeps its frame
    boundaries); each VC's receive side reassembles AAL5 independently
    and feeds the shared logical-reception resequencer. A corrupted
    frame is a packet loss, which the marker protocol absorbs. *)

type t

val create :
  n_vcs:int ->
  quanta:int array ->
  ?marker:Stripe_core.Marker.policy ->
  ?now:(unit -> float) ->
  send_cell:(vc:int -> Cell.t -> unit) ->
  deliver:(Stripe_packet.Packet.t -> unit) ->
  unit ->
  t
(** [send_cell] transmits one cell on a VC (wire the VCs' links here);
    [deliver] receives resequenced datagrams at the far end. *)

val push : t -> Stripe_packet.Packet.t -> unit
(** Stripe one datagram: it is segmented to AAL5 cells on the chosen VC.
    Deficit counters are charged the payload size on both ends (they
    must match for the receiver's simulation to track); cell padding is
    the same bounded factor on every VC. *)

val receive_cell : t -> vc:int -> Cell.t -> unit
(** Far-end entry point: demultiplexes OAM cells to the resequencer as
    markers and data cells to the VC's AAL5 reassembler. *)

val corrupted_frames : t -> int
val markers_sent : t -> int
val resequencer : t -> Stripe_core.Resequencer.t
