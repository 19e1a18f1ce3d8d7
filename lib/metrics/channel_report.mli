(** Render a {!Stripe_obs.Counters} registry through the metrics layer.

    This is the bridge between the observability subsystem and the
    experiment reports: the per-channel counter registry becomes a
    {!Table} (for run summaries) or a {!Summary} (for cross-channel
    statistics such as load-balance spread). *)

val table : ?title:string -> Stripe_obs.Counters.t -> Table.t
(** One row per channel: transmitted packets/bytes, physical arrivals,
    logical deliveries, wire and queue drops, marker-rule and watchdog
    skips, carrier losses, markers sent/applied, and the high-water
    resequencing-buffer occupancy. *)

val merged_table : ?title:string -> Stripe_obs.Counters.t list -> Table.t
(** {!table} over the merge of per-shard registries
    ({!Stripe_obs.Counters.merged}) — the aggregate view a sharded fleet
    reports at its merge barrier. *)

val render : ?title:string -> Stripe_obs.Counters.t -> string
(** [Table.render] of {!table}, plus a trailing line with the
    channel-less drop count (packets the sender had no live channel for)
    when it is non-zero. *)

val balance : Stripe_obs.Counters.t -> Summary.t
(** Distribution of transmitted bytes across channels — mean/stddev/spread
    of the load sharing (§3.3's fairness, as a statistic). *)
