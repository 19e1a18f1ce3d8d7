module Obs = Stripe_obs
module Fifo_queue = Stripe_packet.Fifo_queue

(* Hot-path allocation notes: the transmit queue is a struct-of-arrays
   ring ({!Stripe_packet.Fifo_queue}), the serialization-complete event
   is a single closure allocated at link creation (the packet it applies
   to rides in [ser_size]/[ser_payload] — only one packet serializes at
   a time), and [last_arrival] lives in a one-element float array
   because assigning a mutable float field of this mixed record would
   box on every packet.

   Arrivals reuse one closure too. Several packets can be in flight at
   once, so they wait in a second ring, [inflight], in the order they
   were scheduled. The [last_arrival] clamp makes their arrival times
   non-decreasing, and the event queue fires equal times in insertion
   order, so the k-th firing of [arrive] is the k-th push: it pops the
   head. Only copies that leave that order keep a closure of their own —
   impairment-reordered copies and CRC-discard notices. Steady-state
   sends therefore allocate nothing here. *)

type 'a t = {
  sim : Sim.t;
  link_name : string;
  mutable rate : float;
  prop_delay : float;
  jitter : (Rng.t -> float) option;
  rng : Rng.t;
  mutable loss : Loss.t;
  mutable impair : Impair.t;
  corrupt : ('a -> 'a option) option;
  txq_capacity_bytes : int option;
  link_mtu : int option;
  obs_channel : int;
  sink : Obs.Sink.t;
  deliver : 'a -> unit;
  txq : 'a Fifo_queue.t;
  mutable serializing : bool;
  mutable ser_done : unit -> unit;
  mutable ser_size : int;
  mutable ser_payload : 'a;
  inflight : 'a Fifo_queue.t;
      (* Clamped copies waiting for their arrival instant, oldest
         first; [arrive] pops them. *)
  mutable arrive : unit -> unit;
  last_arrival : float array;
  mutable up : bool;
  mutable carrier_watchers : (up:bool -> unit) list;
  mutable n_sent : int;
  mutable b_sent : int;
  mutable n_delivered : int;
  mutable b_delivered : int;
  mutable n_lost : int;
  mutable n_txq_drops : int;
  mutable n_down_drops : int;
  mutable n_reordered : int;
  mutable n_duplicated : int;
  mutable n_corrupted : int;
  mutable n_corrupt_drops : int;
}

let dummy : unit -> 'a = fun () -> Obj.magic ()

let obs_emit t kind ~size =
  if Obs.Sink.active t.sink then
    Obs.Sink.emit t.sink
      (Obs.Event.v ~channel:t.obs_channel ~size ~time:(Sim.now t.sim) kind)

(* A copy reaches the far end of the wire. *)
let land_copy t ~size payload =
  if not t.up then begin
    (* Lost in flight: the link died under the packet. *)
    t.n_down_drops <- t.n_down_drops + 1;
    obs_emit t Obs.Event.Drop ~size
  end
  else begin
    t.n_delivered <- t.n_delivered + 1;
    t.b_delivered <- t.b_delivered + size;
    obs_emit t Obs.Event.Arrival ~size;
    t.deliver payload
  end

(* The link's reused arrival event. The copy is popped before [deliver]
   runs, so a [deliver] that sends on this link again sees a consistent
   ring. *)
let arrive_next t =
  let size = Fifo_queue.peek_size_unsafe t.inflight in
  let payload = Fifo_queue.pop_exn t.inflight in
  land_copy t ~size payload

(* A reordered copy may overtake earlier ones, so it gets its own event. *)
let schedule_reordered t ~size ~at payload =
  Sim.schedule t.sim ~at (fun () -> land_copy t ~size payload)

(* A clamped copy joins the in-flight ring behind every earlier clamped
   copy. Inlined, so [at] is not boxed; that is also why the reordered
   closure lives in a function of its own (a function that builds a
   closure is never inlined). *)
let[@inline] schedule_landing t ~reordered ~size ~at payload =
  if reordered then schedule_reordered t ~size ~at payload
  else begin
    Fifo_queue.push t.inflight ~size payload;
    Sim.schedule t.sim ~at t.arrive
  end

(* Schedule one arrival (propagation + jitter, clamped to preserve FIFO),
   applying the impairment profile: a reordered copy gets an extra
   unclamped delay (and leaves [last_arrival] alone, so later packets may
   overtake it); a corrupted copy is either discarded at the receiving
   interface (the simulated CRC — corruption below the protocol is loss)
   or, when the [corrupt] hook chooses, delivered mangled. *)
let schedule_copy t ~size payload =
  let imp = t.impair in
  (* Explicit float comparisons: the polymorphic [max] boxes both
     arguments on every call. *)
  let extra =
    match t.jitter with
    | None -> 0.0
    | Some j ->
      let x = j t.rng in
      if 0.0 >= x then 0.0 else x
  in
  let base = Sim.now t.sim +. t.prop_delay +. extra in
  let reordered =
    imp.Impair.reorder_p > 0.0 && Rng.bernoulli t.rng ~p:imp.Impair.reorder_p
  in
  let arrival =
    if reordered then begin
      t.n_reordered <- t.n_reordered + 1;
      base +. Rng.float t.rng imp.Impair.reorder_window
    end
    else begin
      let last = t.last_arrival.(0) in
      let a = if base >= last then base else last in
      t.last_arrival.(0) <- a;
      a
    end
  in
  let corrupted =
    imp.Impair.corrupt_p > 0.0 && Rng.bernoulli t.rng ~p:imp.Impair.corrupt_p
  in
  if not corrupted then schedule_landing t ~reordered ~size ~at:arrival payload
  else begin
    t.n_corrupted <- t.n_corrupted + 1;
    let damaged = match t.corrupt with None -> None | Some f -> f payload in
    match damaged with
    | Some payload' ->
      schedule_landing t ~reordered ~size ~at:arrival payload'
    | None ->
      (* The receiving interface's CRC catches the damage: the packet is
         discarded on arrival, indistinguishable from wire loss to the
         layers above. *)
      t.n_corrupt_drops <- t.n_corrupt_drops + 1;
      Sim.schedule t.sim ~at:arrival (fun () ->
          obs_emit t Obs.Event.Corrupt_discard ~size)
  end

(* Start serializing the packet at the head of the transmit queue. When
   serialization finishes ([ser_complete], the link's single reused
   completion event), schedule the arrival — twice under a duplication
   impairment — and start on the next queued packet. *)
let rec start_serialize t =
  if Fifo_queue.is_empty t.txq then t.serializing <- false
  else begin
    let size = Fifo_queue.peek_size_unsafe t.txq in
    let payload = Fifo_queue.pop_exn t.txq in
    t.serializing <- true;
    obs_emit t Obs.Event.Dequeue ~size;
    t.ser_size <- size;
    t.ser_payload <- payload;
    let ser_time = float_of_int (size * 8) /. t.rate in
    Sim.schedule_after t.sim ~delay:ser_time t.ser_done
  end

and ser_complete t =
  let size = t.ser_size in
  let payload = t.ser_payload in
  t.ser_payload <- dummy ();
  t.n_sent <- t.n_sent + 1;
  t.b_sent <- t.b_sent + size;
  if not t.up then begin
    (* The carrier vanished while the packet was serializing. *)
    t.n_down_drops <- t.n_down_drops + 1;
    obs_emit t Obs.Event.Drop ~size
  end
  else if Loss.drop t.loss t.rng then begin
    t.n_lost <- t.n_lost + 1;
    obs_emit t Obs.Event.Drop ~size
  end
  else begin
    schedule_copy t ~size payload;
    if
      t.impair.Impair.dup_p > 0.0
      && Rng.bernoulli t.rng ~p:t.impair.Impair.dup_p
    then begin
      t.n_duplicated <- t.n_duplicated + 1;
      schedule_copy t ~size payload
    end
  end;
  start_serialize t

let create sim ?(name = "link") ~rate_bps ~prop_delay ?jitter ?rng ?loss
    ?(impair = Impair.none) ?corrupt ?txq_capacity_bytes ?mtu ?(channel = -1)
    ?(sink = Obs.Sink.null) ~deliver () =
  (* Negated so that NaN fails too. *)
  if not (rate_bps > 0.0) then invalid_arg "Link.create: rate_bps must be > 0";
  if not (prop_delay >= 0.0) then
    invalid_arg "Link.create: prop_delay must be >= 0";
  let t =
    {
      sim;
      link_name = name;
      rate = rate_bps;
      prop_delay;
      jitter;
      rng = (match rng with Some r -> r | None -> Rng.create 0);
      loss = (match loss with Some l -> l | None -> Loss.none ());
      impair;
      corrupt;
      txq_capacity_bytes;
      link_mtu = mtu;
      obs_channel = channel;
      sink;
      deliver;
      txq = Fifo_queue.create ();
      serializing = false;
      ser_done = ignore;
      ser_size = 0;
      ser_payload = dummy ();
      inflight = Fifo_queue.create ();
      arrive = ignore;
      last_arrival = [| 0.0 |];
      up = true;
      carrier_watchers = [];
      n_sent = 0;
      b_sent = 0;
      n_delivered = 0;
      b_delivered = 0;
      n_lost = 0;
      n_txq_drops = 0;
      n_down_drops = 0;
      n_reordered = 0;
      n_duplicated = 0;
      n_corrupted = 0;
      n_corrupt_drops = 0;
    }
  in
  t.ser_done <- (fun () -> ser_complete t);
  t.arrive <- (fun () -> arrive_next t);
  t

let send t ~size payload =
  if size <= 0 then invalid_arg "Link.send: size must be positive";
  (match t.link_mtu with
  | Some m when size > m ->
    invalid_arg
      (Printf.sprintf "Link.send: size %d exceeds MTU %d on %s" size m
         t.link_name)
  | Some _ | None -> ());
  if not t.up then begin
    (* A downed link drops everything silently — no error propagates to
       the sender, exactly like a transmit onto a dead interface. *)
    t.n_down_drops <- t.n_down_drops + 1;
    obs_emit t Obs.Event.Drop ~size;
    false
  end
  else
  let overflow =
    match t.txq_capacity_bytes with
    | Some cap -> Fifo_queue.bytes t.txq + size > cap
    | None -> false
  in
  if overflow then begin
    t.n_txq_drops <- t.n_txq_drops + 1;
    obs_emit t Obs.Event.Txq_drop ~size;
    false
  end
  else begin
    Fifo_queue.push t.txq ~size payload;
    if not t.serializing then start_serialize t;
    true
  end

let rate_bps t = t.rate

let set_rate_bps t rate =
  if not (rate > 0.0) then invalid_arg "Link.set_rate_bps: rate must be > 0";
  t.rate <- rate

let is_up t = t.up

let on_carrier t f = t.carrier_watchers <- t.carrier_watchers @ [ f ]

let set_up t up =
  if up <> t.up then begin
    t.up <- up;
    if not up then begin
      (* Cable pull: everything waiting in the transmit queue is gone.
         The packet being serialized (if any) is dropped when its
         serialization completes, and in-flight packets are dropped at
         their arrival instant. *)
      Fifo_queue.iter t.txq (fun _ ~size ->
          t.n_down_drops <- t.n_down_drops + 1;
          obs_emit t Obs.Event.Drop ~size);
      Fifo_queue.clear t.txq
    end;
    obs_emit t
      (if up then Obs.Event.Channel_up else Obs.Event.Channel_down)
      ~size:(-1);
    List.iter (fun f -> f ~up) t.carrier_watchers
  end

let loss_process t = t.loss
let set_loss t loss = t.loss <- loss
let impairments t = t.impair
let set_impairments t impair = t.impair <- impair

let queue_bytes t = Fifo_queue.bytes t.txq
let queue_packets t = Fifo_queue.length t.txq
let busy t = t.serializing
let sent_packets t = t.n_sent
let sent_bytes t = t.b_sent
let delivered_packets t = t.n_delivered
let delivered_bytes t = t.b_delivered
let lost_packets t = t.n_lost
let txq_drops t = t.n_txq_drops
let down_drops t = t.n_down_drops
let reordered_packets t = t.n_reordered
let duplicated_packets t = t.n_duplicated
let corrupted_packets t = t.n_corrupted
let corrupt_drops t = t.n_corrupt_drops
