(** Unified sender-side channel selector: the one representation of a
    striping discipline.

    A [Scheduler.t] is what the striper consults to dispatch each data
    packet: [choose] picks a channel (possibly looking at the packet, for
    the non-causal baselines), [account] records the dispatch. For the CFQ
    family the scheduler embeds a {!Deficit} engine, which additionally
    enables marker emission and logical reception; for the baselines of
    §2.1 — shortest queue first (Linux EQL), address-based hashing and
    random selection [Bay95] — [deficit] is [None] and no FIFO machinery
    is available, which is precisely the comparison Table 1 draws.

    §3.1 characterizes a {e Causal} Fair Queuing (CFQ) algorithm, in its
    backlogged execution, by a state [s] and two functions: a selector
    [f(s)] that picks a queue ([choose]) and an update [g(s, p)] applied
    after the packet [p] is transmitted ([account]). [f] may depend only
    on previously transmitted packets, never on the contents of the
    queues. §3.2's transformation runs the {e same} [(s0, f, g)] at a
    sender with one input queue, pushing the next packet to channel
    [f(s)] instead of pulling from queue [f(s)]. {!load_share} and
    {!fair_queue} run both directions on the schedulers the striper
    runs; feeding the per-channel outputs of one into the other must
    reproduce the input (the E ↔ E' correspondence in the proof of
    Theorem 3.1). *)

type t

val name : t -> string

val causal : t -> bool
(** Whether a receiver can simulate the selection from previously
    delivered packets alone (§3.1). *)

val n_channels : t -> int
(** The bundle width given at construction (for CFQ schedulers, the
    embedded engine's). A bundle's width never changes. *)

val choose : t -> Stripe_packet.Packet.t -> int
(** Channel for the next packet. For CFQ schedulers this is [f(s)] and
    ignores the packet; repeated calls before [account] return the same
    channel. *)

val account : t -> Stripe_packet.Packet.t -> int -> unit
(** [account t pkt c] after dispatching [pkt] to channel [c]; [g(s, p)]
    for CFQ schedulers. *)

val deficit : t -> Deficit.t option
(** The embedded engine for SRR/RR/GRR; enables markers and logical
    reception. [None] for the non-causal baselines. *)

val of_deficit : name:string -> Deficit.t -> t
(** CFQ-family scheduler around an engine. The given engine is used as
    the live state (so hooks installed on it observe the scheduler). *)

val srr : ?max_packet:int -> quanta:int array -> unit -> t
val rr : n:int -> unit -> t
val grr : ratios:int array -> unit -> t

val seeded_rfq : n:int -> seed:int -> t
(** §3.4 randomized fair queuing: every packet lands on a fresh seeded
    draw. Causal in the paper's sense (the receiver shares the seed and
    replays the draws), but engine-less: the quasi-FIFO machinery, which
    replays a {!Deficit} engine, does not apply. *)

val load_aware : ?weights:float array -> debt:(int -> float) -> n:int -> unit -> t
(** Min-load selection (the memec [StripeList] LOAD_AWARE idiom): each
    packet goes to the channel minimizing [debt c /. weight c], where
    [debt] is the caller's oracle for outstanding serialization debt —
    transmit-queue bytes, wire busy horizon ({!Stripe_fleet} exposes
    [wire_busy_until]), or any other load signal the layer can see.
    [weights] (default all 1.0, must be positive) express relative
    channel capacity. Non-causal: the receiver cannot reconstruct link
    state. *)

val min_load : ?weights:float array -> n:int -> unit -> t
(** Min-load selection in pure form: each packet goes to the channel
    with the least cumulative assigned bytes per unit weight, ties to
    the lowest index; same weights and argmin as {!load_aware}. The
    state is exactly the multiset of previously transmitted packets, so
    this variant is causal in the §3.1 sense and satisfies the E ↔ E'
    duality. Engine-less, so no quasi-FIFO machinery. *)

val random_selection : n:int -> seed:int -> t
(** Random channel per packet (the [Bay95] Random Selection scheme).
    Shares load in expectation; provides no FIFO delivery. Marked
    non-causal: the receiver is not assumed to share the seed. *)

val shortest_queue : queue_bytes:(int -> int) -> n:int -> t
(** Shortest Queue First, as in the Linux EQL serial-line driver: each
    packet goes to the channel whose transmit queue currently holds the
    fewest bytes, per the [queue_bytes] oracle. Non-causal — the selection
    depends on instantaneous queue state the receiver cannot see. *)

val address_hashing : n:int -> t
(** Address-based hashing [Bay95]: the packet's flow label is hashed to a
    channel, so all packets of one flow share a channel. FIFO per flow,
    but no load sharing across packets of a single flow. *)

(** {2 The discipline table}

    The one mapping from a striping discipline's name to its scheduler,
    shared by [stripe_sim --scheduler], the discipline matrix bench and
    the per-discipline tests. *)

type discipline = Srr | Rr | Grr | Sprinklers | Rfq | Load_aware | Random

val disciplines : (string * discipline) list
(** Every discipline by its command-line name: [srr], [rr], [grr],
    [sprinklers], [rfq], [load-aware], [random]. The first four embed a
    {!Deficit} engine; [rfq] and [random] share one seeded draw, causal
    and non-causal respectively; [load-aware] is non-causal. *)

val of_discipline :
  discipline -> rates_bps:float array -> seed:int -> debt:(int -> float) -> t
(** The discipline's scheduler over channels of the given rates, at its
    initial state. SRR and Sprinklers take {!Srr.for_rates}'s quanta at a
    1500 B unit and maximum packet (Sprinklers' scaled and dealt from
    [seed]); RR is unweighted; GRR takes {!Grr.for_rates}' ratios; RFQ
    and Random draw from [seed]; Load-aware weighs the [debt] oracle
    (see {!load_aware}) by the rates. Only Load-aware reads [debt], and
    only when choosing. *)

val suspend_channel : t -> int -> unit
(** Remove a channel from selection (its member link died or was taken
    down administratively): CFQ engines skip it in the rotation without
    granting quanta ({!Deficit.suspend}), redistributing load across the
    survivors; the non-causal baselines remap any choice of a suspended
    channel to the next active one. Idempotent. *)

val resume_channel : t -> int -> unit
(** Return a suspended channel to selection. For CFQ schedulers the
    sender must follow up with the §5 reset barrier so the receiver can
    resynchronize — {!Striper.resume_channel} does both. Idempotent. *)

val suspended : t -> int -> bool

val has_active : t -> bool
(** [false] iff every channel is suspended; {!choose} then raises
    [Invalid_argument], so dispatchers must check first and drop. *)

val reset : t -> t
(** A scheduler with the same configuration at its initial state [s0]
    (fresh deficit engine / RNG with no cached draw, no suspensions). *)

val observe : t -> ?now:(unit -> float) -> Stripe_obs.Sink.t -> unit
(** Route the embedded engine's round transitions to an observability
    sink: a [Round] event (with the new round number, timestamped by
    [now]) every time the round-robin pointer wraps, and a per-channel
    [Retune] event (old quantum in [dc], new quantum in [size]) whenever
    a new quantum vector takes effect. Implemented with
    {!Deficit.set_hook}, so it replaces any hook already installed on the
    engine; a no-op for non-CFQ schedulers. *)

val load_share : t -> (int * 'a) list -> (int * (int * 'a)) list
(** [load_share t packets] runs the transformed algorithm (Figure 3)
    over an input sequence of [(size, payload)] pairs, on a fresh copy
    of [t] ({!reset}), and returns the dispatch sequence
    [(channel, (size, payload))] in transmission order. Sizes must be
    positive. Raises [Invalid_argument] on a non-causal scheduler. *)

val fair_queue : t -> (int * 'a) list array -> (int * (int * 'a)) list option
(** [fair_queue t queues] runs the original algorithm (Figure 2) over
    backlogged input queues, one per channel, on a fresh copy of [t],
    and returns the service order [(queue, (size, payload))]. The run
    ends normally when every queue is empty, and returns [None] if the
    algorithm selects an exhausted queue while others still hold
    packets (the execution left the backlogged regime). Raises
    [Invalid_argument] on a non-causal scheduler. *)

val outputs_by_channel : n:int -> (int * 'a) list -> 'a list array
(** Group a dispatch sequence per channel, preserving per-channel order:
    the initial queues of execution E' from the outputs of E. *)
