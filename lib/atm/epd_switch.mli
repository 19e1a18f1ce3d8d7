(** An ATM output port with selectable discard policy.

    Models the congestion point of [RF94] (Romanov & Floyd, "Dynamics of
    TCP Traffic over ATM Networks"): several input VCs multiplex into
    one output link with a finite cell buffer. Under overload the
    discard policy decides what the surviving cells are worth:

    - {b Tail drop} discards individual cells as the buffer fills. The
      remaining cells of each clipped frame still traverse the link and
      are thrown away at reassembly — goodput collapses.
    - {b Early packet discard (EPD)}: when occupancy is above a
      threshold as a frame {e starts} on a VC, the whole frame is
      discarded up front, so the buffer carries only frames that can
      complete.

    EPD needs to see AAL5 frame boundaries per VC. That is the §7
    argument for striping whole packets across VCs: "striping cells
    across channels would mean that AAL boundaries are unavailable
    within the ATM networks; however, these boundaries are needed in
    order to implement early discard policies." A cell-striped stream
    presents interleaved fragments on every VC, EPD's bookkeeping never
    sees a clean frame, and the policy degenerates. *)

type policy =
  | Tail_drop
  | Early_packet_discard of { threshold : int }
      (** Cell occupancy above which newly starting frames are shed. *)

type t

val create :
  Stripe_netsim.Sim.t ->
  policy:policy ->
  buffer_cells:int ->
  out_rate_bps:float ->
  deliver:(Cell.t -> unit) ->
  unit ->
  t
(** One output port: [buffer_cells] of queueing ahead of a link of
    [out_rate_bps]; [deliver] fires per cell at the far end. *)

val input : t -> Cell.t -> unit
(** A cell arrives from some input VC. *)

val cells_dropped : t -> int
val frames_shed_early : t -> int
(** Whole frames dropped by EPD before buffering anything. *)
