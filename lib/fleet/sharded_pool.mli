(** Sharded bundle-pool fleet: record a churn workload once, replay it
    across N OCaml 5 domains, merge at a single barrier (DESIGN.md §10).

    The driving workload of a fleet benchmark is protocol-independent,
    so it is {e recorded} as a timestamped op tape — {!acquire},
    {!release}, {!push} over pool slot ids — and {e replayed} by {!run}.
    The recorder shadows [Bundle_pool]'s slot allocator (LIFO free
    stack, doubling growth), so {!acquire} returns exactly the slot id
    the legacy single pool would pick, and the replay drives that
    assignment through [Bundle_pool.acquire_slot]. Slots never interact
    — wires, resequencers and schedulers are per-slot, and a slot's
    recycling chain (the wire tail one generation bequeaths the next)
    stays on it — so each slot replays identically whatever other slots
    share its sim. Domains share no protocol state; they meet only at
    the merge barrier that builds the {!report}.

    {b Replay groups.} Slots are numbered in order of first acquire,
    fleet-wide, and cut into groups of {!group_slots}; the recorder
    files each op on its slot's group tape. The cut does not depend on
    the domain count. A tape stores an op as a time (a float) and one
    packed word (an int) in a run of fixed-size chunks of {!tape_chunk}
    ops; a full chunk is kept as it is and the next op opens a new one,
    so no recorded op is copied and a group wastes at most the unfilled
    rest of its last chunk (see {!tape_bytes}). A group is a
    self-contained replay on a reset [Sim] and a reset [Bundle_pool]
    sized for one group, and its working set stays cache-sized. Its
    tape is walked by a loop: each op runs once [Sim.run_until] has
    brought the clock to its time. That
    is exactly how an op event inserted by its predecessor would run,
    because a replay sim holds only the pool's one pending landing
    event: a landing is not an event, and an op first lands its slot's
    packets due by its time, ties included (no watchdog, health engine
    or chaos runs in a replay). So the sim fires one event per time the
    pool's landing horizon is reached, and none per op or per
    packet.

    {b Partition.} Groups are the unit of parallel work. {!run} assigns
    them to domains by LPT over their recorded op counts: largest group
    first, each to the least-loaded domain, ties to the lower group
    index and then the lower domain index — a pure function of the tape.
    Each domain replays its groups in ascending index, so
    [domains = 1] reproduces the legacy single-pool run byte-for-byte,
    and any [domains = N] merges to the same protocol aggregates
    (delivered packets/bytes, markers, per-generation shares); only
    wall-clock changes. Cross-bundle delivery ordering is {e not}
    preserved across domains — bundles are independent FIFO streams,
    and no protocol invariant spans them. *)

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
(** A recorder for a fleet sharded [domains] ways, as
    [Stripe_netsim.Parallel.resolve] reads it ([0] is auto).
    [initial_capacity] (default 64) is that of the legacy single pool
    whose slot assignment the recorder shadows. [engine] is ignored:
    every simulation runs the calendar; kept until ROADMAP item 20
    edits [workloads.ml]. [stamp_seq] and [config] are handed to each
    domain's [Bundle_pool.create], sized for one replay group; domain
    [k]'s pool gets [Rng.stream ~seed k], from which no replay op draws
    (the replay installs no wire loss).
    [clock] (e.g. [Unix.gettimeofday]) is sampled around each domain's
    replay for the {!type-report} timing fields; the default clock
    always reads 0. *)

val total_acquired : t -> int
(** Bundles recorded so far (matches [Bundle_pool.total_acquired] of the
    replayed pool at the same point in the op sequence). *)

val acquire : t -> at:float -> int
(** Record a bundle start at simulated time [at]; returns the slot id
    the legacy pool would assign (LIFO recycling). Times across all
    recorded ops must be non-decreasing. *)

val release : t -> at:float -> int -> unit
(** Record the end of a live bundle. *)

val push : t -> at:float -> int -> size:int -> unit
(** Record a data packet offered to a live bundle. *)

val tape_bytes : t -> int
(** Bytes of tape allocated so far: 16 (a float and an int) for every
    entry of every chunk opened, [16 * tape_chunk * chunks]. At most
    [16 * ops + 16 * tape_chunk * groups]; the chunk tables and array
    headers are not counted. *)

val tape_chunk : int
(** Ops per tape chunk (4096). A code constant. *)

val group_slots : int
(** Slots per replay group (128), in order of first acquire (see
    {!run}). A code constant, picked from a sweep over the 25k-bundle
    churned fleet (DESIGN.md §10). *)

type gen_report = {
  ordinal : int;  (** Global acquisition order of this generation. *)
  slot : int;  (** Pool slot id (the recorded bundle id). *)
  shard : int;  (** The domain that replayed it. *)
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
  shard : int;  (** The domain. *)
  groups : int array;  (** Indices of the groups it replayed, ascending. *)
  slots : int;  (** Distinct pool slots in those groups. *)
  ops : int;  (** Tape length replayed. *)
  generations : int;  (** Released generations. *)
  delivered_packets : int;
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;
      (** [(time, slot, seq)] with the {e global} slot id. *)
  events : int;
      (** Sim events fired: [Sim.events] summed over groups. Each is a
          firing of the group pool's one pending landing event, at the
          latest landing time on its wires ({!Bundle_pool}); the
          landings an op settles, and the ops themselves, are not
          events. *)
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
  imbalance : float;
      (** Max over domains of replayed ops, divided by the mean: the
          assignment's balance, a pure function of the tape (1.0 when
          there are no ops). *)
}

val run : t -> report
(** Replay the recorded tape: assign the groups to domains (see
    Partition above), run domain 0 on the calling domain and domains
    [1 .. domains-1] on spawned ones, each group by group, then merge.
    A shard's [slots], [ops], [generations] and counters sum over its
    groups; its [end_time] is their maximum and its [first_violation]
    the earliest. Bundles still live at the end of the tape are not
    reported in [gens] (their deliveries still count in the shard
    totals). The recorder is not reusable after [run]. *)
