(** Per-channel counter registry, fed by {!Event.t}s.

    A registry is itself a sink consumer: install {!sink} (or tee it with a
    file sink) on the instrumented components and the counters accumulate
    bytes/packets transmitted and delivered, drops, skips, markers, and the
    high-water occupancy of the receiver's resequencing buffers — the
    telemetry a production striping deployment watches per member link.

    Buffer occupancy is derived from the resequencer's [Enqueue] (physical
    reception buffered) and [Deliver] (logical reception) events; the
    high-water marks record how far physical reception ran ahead of logical
    reception on each channel. *)

type channel = {
  mutable tx_packets : int;  (** Data packets dispatched ([Transmit]). *)
  mutable tx_bytes : int;
  mutable delivered_packets : int;  (** Logical receptions ([Deliver]). *)
  mutable delivered_bytes : int;
  mutable drops : int;  (** Wire losses ([Drop]). *)
  mutable txq_drops : int;  (** Transmit-queue overflows ([Txq_drop]). *)
  mutable arrivals : int;  (** Physical arrivals ([Arrival]). *)
  mutable skips : int;  (** Marker-rule channel skips ([Skip]). *)
  mutable markers_sent : int;
  mutable markers_applied : int;
  mutable blocks : int;  (** Times logical reception blocked here. *)
  mutable buffered_packets : int;  (** Current resequencer occupancy. *)
  mutable buffered_bytes : int;
  mutable hw_buffered_packets : int;  (** High-water occupancy. *)
  mutable hw_buffered_bytes : int;
  mutable downs : int;  (** Carrier losses ([Channel_down]). *)
  mutable ups : int;  (** Carrier recoveries ([Channel_up]). *)
  mutable watchdog_skips : int;
      (** Receiver visits skipped by the dead-channel watchdog
          ([Watchdog_skip]). *)
  mutable suspends : int;  (** Sender suspensions ([Suspend]). *)
  mutable resumes : int;  (** Sender resumptions ([Resume]). *)
  mutable dup_discards : int;
      (** Duplicate deliveries discarded by the channel guard
          ([Dup_discard]). *)
  mutable reorder_restores : int;
      (** Out-of-order arrivals held and re-released in tag order by the
          channel guard ([Reorder_restore]). *)
  mutable reorder_depth : int;
      (** Arrival reorder-depth gauge: maximum over this channel's
          [Enqueue] events (with a sequence number) of how far the
          arriving packet trailed the highest sequence already enqueued
          on {e any} channel. 0 means arrivals never ran behind. *)
  mutable corrupt_discards : int;
      (** Corrupted packets discarded — by the link CRC or the guard's
          marker-checksum check ([Corrupt_discard]). *)
  mutable buffer_overflows : int;
      (** Arrivals that found the resequencer byte budget exhausted
          ([Buffer_overflow]). *)
  mutable retunes : int;
      (** Quantum changes applied to this channel by an adaptive retune
          ([Retune]). *)
  mutable health_suspects : int;
      (** Health-engine suspect transitions ([Health_suspect]). *)
  mutable probations : int;
      (** Health-engine probation entries — quantum cut to the probe
          fraction ([Probation]). *)
  mutable quarantines : int;
      (** Health-engine quarantines — full suspension through the §5
          barrier ([Quarantine]). *)
  mutable reinstates : int;
      (** Health-engine reinstatements — backoff expiry returning a
          quarantined channel to probation, or a probation channel
          restored to full quantum ([Reinstate]). *)
}

type t

val create : n:int -> t

val observe : t -> Event.t -> unit
(** Fold one event into the registry. Events whose [channel] is outside
    [0..n-1] only update the global counters. Allocation-free. *)

val sink : t -> Sink.t
(** A sink that feeds this registry. *)

val merged : t list -> t
(** [merged ts] is a fresh registry holding the merge of [ts]:
    occurrence counts, byte totals, occupancy gauges, [resets],
    [events_seen] and [no_channel_drops] add; [rounds] takes the max.
    Partitioning one event stream across registries and merging back
    reproduces the unsharded registry exactly as long as each packet's
    [Enqueue]/[Deliver] pair lands in one registry (the occupancy gauges
    clamp at zero, so an orphaned [Deliver] under-counts) — occurrence
    counts and byte totals are exact under any partition. The high-water
    occupancy marks sum: exact when the registries saw disjoint
    channels, an upper bound when shards alias the same channel indices;
    reorder depths take the elementwise max. Requires a non-empty list
    of equal-width registries. *)

val n_channels : t -> int

val channel : t -> int -> channel
(** Snapshot of one channel's counters at the moment of the call. The
    registry accumulates into flat arrays (so {!observe} stays
    allocation-free on the per-event path) and materializes this record
    on demand; mutating it affects nothing. *)

val resets : t -> int
(** Reset barriers observed. *)

val rounds : t -> int
(** Highest scheduler round number observed ([Round] events). *)

val events_seen : t -> int

val no_channel_drops : t -> int
(** Packets the sender dropped because every channel was suspended
    ([Txq_drop] events carrying no channel). *)

val total_tx_bytes : t -> int
val total_delivered_packets : t -> int
val total_drops : t -> int
