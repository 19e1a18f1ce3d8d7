type 'a t = {
  cpu : Cpu.t;
  ring_capacity : int;
  max_batch : int option;
  intr_cost : float;
  per_packet_cost : float;
  deliver : 'a -> unit;
  ring : 'a Queue.t;
  mutable intr_pending : bool;
  mutable n_interrupts : int;
  mutable n_packets : int;
  mutable n_drops : int;
}

let create ~cpu ?(ring_capacity = 256) ?max_batch
    ~intr_cost ~per_packet_cost ~deliver () =
  if ring_capacity <= 0 then invalid_arg "Nic.create: ring_capacity must be positive";
  (match max_batch with
  | Some b when b <= 0 -> invalid_arg "Nic.create: max_batch must be positive"
  | Some _ | None -> ());
  {
    cpu;
    ring_capacity;
    max_batch;
    intr_cost;
    per_packet_cost;
    deliver;
    ring = Queue.create ();
    intr_pending = false;
    n_interrupts = 0;
    n_packets = 0;
    n_drops = 0;
  }

(* Post an interrupt: the handler starts after the fixed cost; it then
   drains the ring — up to the rx budget — as one batch, paying the
   per-packet cost, and re-posts itself if packets remain or arrived
   meanwhile. *)
let rec post_interrupt t =
  t.intr_pending <- true;
  t.n_interrupts <- t.n_interrupts + 1;
  Cpu.execute t.cpu ~cost:t.intr_cost (fun () ->
      let batch =
        match t.max_batch with
        | Some budget -> min budget (Queue.length t.ring)
        | None -> Queue.length t.ring
      in
      let drained = ref [] in
      for _ = 1 to batch do
        drained := Queue.pop t.ring :: !drained
      done;
      let drained = List.rev !drained in
      Cpu.execute t.cpu
        ~cost:(float_of_int batch *. t.per_packet_cost)
        (fun () ->
          t.n_packets <- t.n_packets + batch;
          List.iter t.deliver drained;
          t.intr_pending <- false;
          if not (Queue.is_empty t.ring) then post_interrupt t))

let rx t pkt =
  if Queue.length t.ring >= t.ring_capacity then t.n_drops <- t.n_drops + 1
  else begin
    Queue.add pkt t.ring;
    if not t.intr_pending then post_interrupt t
  end

let interrupts t = t.n_interrupts
let packets t = t.n_packets
let ring_drops t = t.n_drops

let mean_batch t =
  if t.n_interrupts = 0 then 0.0
  else float_of_int t.n_packets /. float_of_int t.n_interrupts
