(** Network interface with interrupt-driven receive processing.

    Arriving packets enter a bounded rx ring. If no interrupt is pending
    for this NIC, one is posted to the CPU; when the handler runs it
    drains {e everything} then in the ring in one batch, paying the fixed
    interrupt cost once plus a per-packet cost for the batch.

    This reproduces the effect the paper identifies in Figure 15: "with a
    single interface under heavy load, multiple packets can be received
    in a single interrupt routine. This effect is less pronounced with
    striping, where interrupts are received from multiple interfaces" —
    under load a single busy NIC accumulates large batches between
    handler runs (few interrupts per packet), while the same aggregate
    rate split across several NICs yields smaller batches per NIC and
    more interrupts in total, raising CPU overhead. Coalescing here is
    emergent, not parameterized. *)

type 'a t

val create :
  cpu:Cpu.t ->
  ?ring_capacity:int ->
  ?max_batch:int ->
  intr_cost:float ->
  per_packet_cost:float ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [ring_capacity] defaults to 256 packets; overflow is dropped and
    counted. [intr_cost] is the fixed cost per handler activation;
    [per_packet_cost] per packet drained. [max_batch] bounds how many
    packets one handler activation may drain (a driver's rx budget);
    leftovers re-post the interrupt. Default: unbounded. Bounding the
    batch caps how far coalescing can amortize the interrupt cost, which
    is what makes a single saturated interface eventually CPU-bound. *)

val rx : 'a t -> 'a -> unit
(** A packet arrives from the wire. *)

val interrupts : 'a t -> int
val packets : 'a t -> int
val ring_drops : 'a t -> int

val mean_batch : 'a t -> float
(** Average packets drained per interrupt — the coalescing factor. *)
