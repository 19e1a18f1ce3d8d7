(** Sharded bundle-pool fleet: record a churn workload once, replay it
    across N OCaml 5 domains, merge at a single barrier (DESIGN.md §10).

    The driving workload of a fleet benchmark is protocol-independent,
    so it is {e recorded} as a timestamped op tape — {!acquire},
    {!release}, {!push} over pool slot ids — and then {e replayed} by
    {!run}: one domain per shard, each with its own [Sim] loop, its own
    [Rng.stream] (indexed by shard from the master seed), and its own
    [Bundle_pool]. No protocol state is shared between shards;
    communication happens only at the merge barrier that builds the
    {!report}.

    {b Partition.} Bundles are assigned to shards by pool slot id
    ({!shard_of_bundle}): the slot is the unit of state reuse (a
    recycled slot bequeaths the next generation whatever wire tail the
    link is still serializing), so owning a slot means owning its whole
    recycling chain. Slots never interact — wires, resequencers and
    schedulers are per-slot — so each slot's replay is identical
    whatever other slots share its sim. Consequently [domains = 1]
    reproduces the legacy single-pool run byte-for-byte, and any
    [domains = N] merges to the same protocol aggregates (delivered
    packets/bytes, markers, per-generation shares); only wall-clock
    changes. Cross-bundle delivery ordering is {e not} preserved across
    shards — bundles are independent FIFO streams, and no protocol
    invariant spans them.

    The recorder shadows [Bundle_pool]'s slot allocator (LIFO free
    stack, doubling growth) so {!acquire} returns exactly the slot id
    the legacy single pool would have picked; the replay then drives
    that assignment verbatim through [Bundle_pool.acquire_slot].

    {b Replay groups.} Within a shard, slots are numbered in order of
    first acquire and cut into groups of {!group_slots}; the recorder
    files each op on its slot's group tape. A shard replays its groups
    one after another on one [Sim] and one [Bundle_pool] sized for a
    single group, returning both to their initial state between groups
    ([Sim.reset], [Bundle_pool.reset]). By the same argument as for
    shards, every slot runs the event sequence it would run in the
    whole fleet; a group's working set stays cache-sized, so the replay
    costs less per packet than one shard-wide sim. *)

type t

val create :
  ?engine:Stripe_netsim.Sim.engine ->
  ?stamp_seq:bool ->
  ?initial_capacity:int ->
  ?clock:(unit -> float) ->
  domains:int ->
  seed:int ->
  Bundle_pool.config ->
  t
(** A recorder for a fleet sharded [domains] ways ([0] means
    {!auto_domains}). [initial_capacity] (default 64) is that of the
    legacy single pool whose slot assignment the recorder shadows.
    [engine], [stamp_seq] and [config] are handed to each shard's
    [Bundle_pool.create], which is sized for one replay group; shard
    [k] receives the generator [Rng.stream ~seed k]. [clock] (e.g.
    [Unix.gettimeofday]) is sampled around each shard's replay for the
    {!type-report} timing fields; the default clock always reads 0. The
    library takes no Unix dependency, so callers inject the clock. *)

val domains : t -> int

val total_acquired : t -> int
(** Bundles recorded so far (matches [Bundle_pool.total_acquired] of the
    replayed pool at the same point in the op sequence). *)

val live_bundles : t -> int

val peak_live : t -> int
(** High-water live-bundle population over the recording. *)

val acquire : t -> at:float -> int
(** Record a bundle start at simulated time [at]; returns the slot id
    the legacy pool would assign (LIFO recycling). Times across all
    recorded ops must be non-decreasing. *)

val release : t -> at:float -> int -> unit
(** Record the end of a live bundle. *)

val push : t -> at:float -> int -> size:int -> unit
(** Record a data packet offered to a live bundle. *)

val group_slots : int
(** Slots per replay group (128): each shard replays its slots this many
    at a time, in order of first acquire (see {!run}). A code constant,
    picked from a sweep over the 25k-bundle churned fleet (DESIGN.md
    §10). *)

val shard_of_bundle : domains:int -> int -> int
(** [shard_of_bundle ~domains id] is the owning shard of pool slot [id]:
    a pure mix-then-reduce of the id, so a given seed always produces
    the same partition, independent of recording order. *)

val auto_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val resolve_domains : int -> int
(** [resolve_domains n] is [n], or {!auto_domains} when [n <= 0] — the
    [--domains 0] = "auto" convention. *)

val split_fleet : domains:int -> bundles:int -> int array array
(** [split_fleet ~domains ~bundles] partitions the static fleet
    [0 .. bundles-1] by {!shard_of_bundle}: element [k] lists the
    bundle ids shard [k] owns, in increasing order. For static fleets
    (no churn) bundle ids and slot ids coincide. *)

type gen_report = {
  ordinal : int;  (** Global acquisition order of this generation. *)
  slot : int;  (** Pool slot id (the recorded bundle id). *)
  shard : int;
  birth : float;
  death : float;
  pushed_packets : int;
  pushed_bytes : int;
  delivered_packets : int;
  delivered_bytes : int;
}
(** One released bundle generation, harvested at its release instant —
    the per-bundle record behind the churn gate's share metrics. *)

type shard_report = {
  shard : int;
  slots : int;  (** Distinct pool slots this shard owns. *)
  ops : int;  (** Tape length replayed. *)
  generations : int;  (** Released generations. *)
  delivered_packets : int;
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;
      (** [(time, slot, seq)] with the {e global} slot id. *)
  events : int;  (** Sim events fired: [Sim.events] summed over groups. *)
  wall_s : float;
  end_time : float;
      (** The latest time its sim reached: the max over its groups. *)
}

type report = {
  domains : int;
  shards : shard_report array;  (** Indexed by shard. *)
  gens : gen_report array;  (** All generations, sorted by [ordinal]. *)
  acquired : int;
  peak_live : int;
  delivered_packets : int;  (** Sum over shards. *)
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;  (** Earliest by time. *)
  wall_s : float;  (** Wall time of the whole parallel section. *)
  end_time : float;  (** Max over shards. *)
  efficiency : float;
      (** [sum of shard walls / (domains * wall_s)] — 1.0 is perfect
          scaling, [1/domains] is no speedup. *)
}

val run : t -> report
(** Replay the recorded tape: shard 0 on the calling domain, shards
    [1 .. domains-1] on spawned domains, each group by group, then
    merge. A shard's [slots], [ops], [generations] and counters sum
    over its groups; its [end_time] is their maximum and its
    [first_violation] the earliest. Bundles still live at the end of
    the tape are not reported in [gens] (their deliveries still count
    in the shard totals). The recorder is not reusable after [run]. *)
