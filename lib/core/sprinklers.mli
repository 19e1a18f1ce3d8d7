(** Sprinklers-style randomized variable-size striping (PROTOCOL.md §14).

    The Sprinklers idea: stripe at {e burst} granularity rather than
    packet granularity, and place each burst on a channel chosen by a
    seeded hash of an interleaving counter, with burst sizes proportional
    to channel rates. In CFQ terms this is SRR with two twists:

    - {b Randomized placement}: each round's visit order is an
      independent pseudo-random permutation dealt from
      [(seed, round, width)] ({!Deficit.order}, [Permuted]). Because the
      permutation is a pure function of protocol state, the scheme stays
      causal (§3.1): a receiver holding the seed replays the exact
      sequence of selections and every piece of the implicit-numbering /
      marker / reset-barrier machinery works unchanged.
    - {b Variable-size stripes}: quanta are the SRR rate-proportional
      vector scaled by {!default_stripe_scale}, so one visit emits a whole burst
      of consecutive packets on one channel. Within a burst packets ride
      one FIFO wire in order — intra-burst reordering is impossible by
      construction; only inter-burst interleaving needs resequencing.

    Fairness: a round visits every channel exactly once whatever order
    it deals, so Theorem 3.2 holds verbatim with the scaled quanta —
    the bound is [Max + 2 * default_stripe_scale * Quantum], wider than SRR's by
    exactly the burst factor. That is the Sprinklers trade: coarser
    placement variance in exchange for burst-local FIFO delivery. *)

val default_stripe_scale : int
(** Burst multiplier applied to the SRR quanta by {!for_rates} (4). *)

val for_rates :
  ?max_packet:int -> seed:int ->
  rates_bps:float array -> quantum_unit:int -> unit -> Deficit.t
(** Engine over {!Srr.quanta_for_rates} scaled by {!default_stripe_scale},
    dealt in the seeded permuted order. *)

val fairness_bound : Deficit.t -> int
(** Same as {!Srr.fairness_bound}: [Max + 2 * Quantum] with the scaled
    quanta. *)
