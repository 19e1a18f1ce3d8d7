(** Surplus Round Robin (§3.5).

    Each channel [i] has a quantum of service [Quantum_i] in bytes,
    proportional to its bandwidth, and a deficit counter initialized to 0.
    When a channel is selected its DC is incremented by its quantum;
    packets are charged to the channel while the DC is positive; once the
    DC becomes non-positive the next channel is selected. A channel that
    overdraws its account is penalized by the surplus in the next round.

    Fairness (Theorem 3.2 / Lemma 3.3): after any [K] rounds, the bytes
    carried by channel [i] differ from [K * Quantum_i] by at most
    [Max + 2 * Quantum] where [Max] is the maximum packet size and
    [Quantum] the largest quantum. [fairness_bound] computes this bound.

    For the marker recovery protocol (Theorem 5.1) each quantum should be
    at least the maximum packet size, so no channel is ever skipped merely
    because its DC has not recovered; [create] checks this when
    [max_packet] is supplied. *)

val create : ?max_packet:int -> quanta:int array -> unit -> Deficit.t
(** [create ~quanta ()] builds an SRR engine (byte cost, overdraw
    allowed). If [max_packet] is given, raises [Invalid_argument] unless
    every quantum is at least [max_packet] — the precondition of the
    marker recovery theorem. *)

val quanta_for_rates :
  ?max_packet:int -> rates_bps:float array -> quantum_unit:int -> unit ->
  int array
(** The quantum vector {!for_rates} uses: quanta proportional to
    [rates_bps], scaled so the {e smallest} quantum equals
    [quantum_unit], clamped to at least 1 after rounding. If
    [max_packet] is given and the skew rounded any quantum below it,
    {e every} quantum is multiplied by the smallest integer factor that
    restores [Quantum_i >= Max] — proportions (and thus bandwidth
    shares) are preserved, the round just gets longer; the Thm 5.1
    marker precondition is never silently violated. Raises
    [Invalid_argument] for non-positive or non-finite rates, and for
    skews so extreme the scaled quantum is not representable as an
    [int]. Adaptive policies ({!Rate_probe}) call this directly to plan
    a retune from fresh rate estimates. *)

val for_rates : ?max_packet:int -> rates_bps:float array -> quantum_unit:int -> unit -> Deficit.t
(** Weighted SRR for channels of different capacities (§3.5's
    generalization): an engine over {!quanta_for_rates}, with
    [max_packet] retained for {!fairness_bound}. *)

val fairness_bound : Deficit.t -> int
(** [Max + 2 * Quantum], the deviation bound of Theorem 3.2 / Lemma 3.3.
    [Max] is the [max_packet] recorded when the engine was created; when it
    was not supplied, [Max] falls back to the largest quantum (the largest
    packet the engine is meant to carry under the marker-recovery
    precondition [Quantum_i >= Max]). *)

val strict_drr : quanta:int array -> unit -> Deficit.t
(** The non-overdrawing DRR-style variant for the fairness ablation: a
    channel whose DC cannot cover the next packet is passed over rather
    than overdrawn. Not causal as a striping algorithm (the selection
    depends on the packet being dispatched), hence unusable for logical
    reception; see DESIGN.md §5. *)
