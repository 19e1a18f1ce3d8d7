module Obs = Stripe_obs
module Fifo_queue = Stripe_packet.Fifo_queue

(* The wire model (DESIGN.md §9, "The wire model"). A packet's
   serialization ends at [fin = max(now, busy_until) + size·8/rate],
   known when it is sent, so [send] computes it and appends
   (payload, size, fin) to the wire ring. There is no transmit queue
   and no serialization-complete event: the ring's packets whose [fin]
   is still ahead are the one serializing and the ones queued behind
   it, and [busy_until] is the [fin] of the ring's last packet.

   A packet's fate — carrier, loss, then the jitter, reorder, corrupt
   and dup draws from the link's own rng, in packet order — is decided
   under the state the link was in at its [fin]. Lazily: by the
   landing event, unless something decides it earlier. Every call that
   changes that state, and every accessor, first catches up: it decides
   each packet whose [fin] is at or before now. A decision depends only
   on that state and on the link's own draws, so which call makes it
   does not matter.

   The ring keeps [head <= dec <= tail] as absolute packet counts
   (masked to index the arrays): [head, dec) are decided and wait to
   land, [dec, tail) are undecided. The wire is FIFO, so one landing
   event is pending, at the head's [fin + prop_delay]: [send] schedules
   it onto an empty ring, [land_next] the next head's. Only packets
   ahead of [dec] are ever re-timed or flushed, so that instant never
   moves, and [set_rate_bps] schedules nothing.

   The landing event lands the head's copy in place, in the same
   event, when the copy arrives at [fin + prop_delay] behind every
   earlier copy: the common case, with no jitter and no impairment.
   Only a copy that arrives later or out of order takes a second
   event, which the landing event schedules: a jittered or clamped
   copy, and a duplicate, wait in the [inflight] ring for the reused
   [arrive] closure (the clamp keeps their times non-decreasing and
   equal times fire in insertion order, so each firing pops the head);
   a reordered copy or a CRC-discard notice gets a closure of its own.
   A link's deliveries are scheduled only by [send] and its own landing
   events, whichever call decided the packet, so neither a sink nor an
   accessor call can move one.

   With a sink, [Dequeue] and [Drop] are emitted at their true
   instants: a watched link keeps one pending [decide_due] event at the
   [fin] of the packet serializing, re-armed as it fires, and
   [decide_pending] stops a [send] from starting a second chain. *)

type 'a t = {
  sim : Sim.t;
  mutable rate : float;
  prop_delay : float;
  jitter : (Rng.t -> float) option;
  rng : Rng.t;
  mutable loss : Loss.t;
  mutable impair : Impair.t;
  corrupt : ('a -> 'a option) option;
  txq_capacity_bytes : int option;
  obs_channel : int;
  sink : Obs.Sink.t;
  watched : bool;  (* [Obs.Sink.active sink] *)
  deliver : 'a -> unit;
  (* The wire ring, struct of arrays, power-of-two capacity. *)
  mutable w_payload : 'a array;
  mutable w_dup : 'a array;  (* the duplicate copy's payload *)
  mutable w_size : int array;
  mutable w_fin : float array;
  mutable w_arr : float array;  (* the first copy's arrival *)
  mutable w_arr_dup : float array;
  mutable w_fate : int array;  (* see [fate] *)
  mutable head : int;
  mutable dec : int;
  mutable tail : int;
  mutable undecided_bytes : int;
  mutable landing : unit -> unit;
  mutable decide_due : unit -> unit;
  mutable decide_pending : bool;
  inflight : 'a Fifo_queue.t;
      (* Copies waiting for a later arrival instant, oldest first;
         [arrive] pops them. *)
  mutable arrive : unit -> unit;
  last_arrival : float array;
      (* One-cell float store: assigning a mutable float field of this
         mixed record would box on every packet. *)
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

(* A decided packet's fate: what becomes of its first copy in bits 0-1
   and of its duplicate in bits 2-3. *)
let no_copy = 0 (* dropped, or no duplicate *)
let clamped = 1 (* arrives in FIFO order at its arrival time *)
let reordered = 2 (* exempt from the clamp: a closure of its own *)
let crc_discard = 3 (* discarded at arrival: a notice event *)

let obs_emit t kind ~size =
  if t.watched then
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

(* The reused arrival event of the in-flight ring. The copy is popped
   before [deliver] runs, so a [deliver] that sends on this link again
   sees a consistent ring. *)
let arrive_next t =
  let size = Fifo_queue.peek_size_unsafe t.inflight in
  let payload = Fifo_queue.pop_exn t.inflight in
  land_copy t ~size payload

(* Copies outside FIFO order get closures of their own, built here: a
   function that builds a closure is never inlined, and [place] must
   be, so that [at] is not boxed. *)
let schedule_reordered t ~size ~at payload =
  Sim.schedule t.sim ~at (fun () -> land_copy t ~size payload)

let schedule_crc_notice t ~size ~at =
  Sim.schedule t.sim ~at (fun () ->
      obs_emit t Obs.Event.Corrupt_discard ~size)

(* Schedule a copy that does not land in place. *)
let[@inline] place t copy ~size ~at payload =
  if copy = clamped then begin
    Fifo_queue.push t.inflight ~size payload;
    Sim.schedule t.sim ~at t.arrive
  end
  else if copy = reordered then schedule_reordered t ~size ~at payload
  else if copy = crc_discard then schedule_crc_notice t ~size ~at

(* Draw one copy of the packet at ring index [i], whose serialization
   ended at [w_fin.(i)]: propagation plus jitter, clamped to preserve
   FIFO; a reordered copy gets an extra unclamped delay (and leaves
   [last_arrival] alone, so later packets may overtake it); a corrupted
   copy is either discarded at the receiving interface (the simulated
   CRC: corruption below the protocol is loss) or, when the [corrupt]
   hook chooses, delivered mangled. Stores the arrival time and the
   payload the copy carries, and returns the copy's fate. *)
let draw_copy t i ~dup payload =
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
  let base = t.w_fin.(i) +. t.prop_delay +. extra in
  let is_reordered =
    imp.Impair.reorder_p > 0.0 && Rng.bernoulli t.rng ~p:imp.Impair.reorder_p
  in
  let arrival =
    if is_reordered then begin
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
  if dup then t.w_arr_dup.(i) <- arrival else t.w_arr.(i) <- arrival;
  let corrupted =
    imp.Impair.corrupt_p > 0.0 && Rng.bernoulli t.rng ~p:imp.Impair.corrupt_p
  in
  let copy = if is_reordered then reordered else clamped in
  if not corrupted then begin
    if dup then t.w_dup.(i) <- payload;
    copy
  end
  else begin
    t.n_corrupted <- t.n_corrupted + 1;
    match t.corrupt with
    | Some f -> (
      match f payload with
      | Some mangled ->
        if dup then t.w_dup.(i) <- mangled else t.w_payload.(i) <- mangled;
        copy
      | None ->
        t.n_corrupt_drops <- t.n_corrupt_drops + 1;
        crc_discard)
    | None ->
      t.n_corrupt_drops <- t.n_corrupt_drops + 1;
      crc_discard
  end

(* Decide the oldest undecided packet under the link's current state,
   as a serialization-complete event at its [fin] would: carrier, loss,
   the first copy's draws, the dup draw and the duplicate's draws. The
   next packet starts serializing at this [fin]. Only the fate is
   recorded; the landing event schedules what it says. *)
let decide t =
  let k = t.dec in
  let mask = Array.length t.w_size - 1 in
  let i = k land mask in
  t.dec <- k + 1;
  let size = t.w_size.(i) in
  t.undecided_bytes <- t.undecided_bytes - size;
  t.n_sent <- t.n_sent + 1;
  t.b_sent <- t.b_sent + size;
  if not t.up then begin
    (* The carrier vanished while the packet was serializing. *)
    t.n_down_drops <- t.n_down_drops + 1;
    t.w_fate.(i) <- no_copy;
    obs_emit t Obs.Event.Drop ~size
  end
  else if Loss.drop t.loss t.rng then begin
    t.n_lost <- t.n_lost + 1;
    t.w_fate.(i) <- no_copy;
    obs_emit t Obs.Event.Drop ~size
  end
  else begin
    let payload = t.w_payload.(i) in
    let first = draw_copy t i ~dup:false payload in
    let second =
      if
        t.impair.Impair.dup_p > 0.0
        && Rng.bernoulli t.rng ~p:t.impair.Impair.dup_p
      then begin
        t.n_duplicated <- t.n_duplicated + 1;
        draw_copy t i ~dup:true payload
      end
      else no_copy
    in
    t.w_fate.(i) <- first lor (second lsl 2)
  end;
  if t.watched && t.dec < t.tail then
    obs_emit t Obs.Event.Dequeue ~size:t.w_size.(t.dec land mask)

(* Decide every packet whose serialization ended at or before now. *)
let catch_up t =
  let now = Sim.now t.sim in
  while
    t.dec < t.tail && t.w_fin.(t.dec land (Array.length t.w_fin - 1)) <= now
  do
    decide t
  done

(* A watched link's reused decision event. *)
let decide_next t =
  catch_up t;
  if t.dec < t.tail then
    Sim.schedule t.sim ~at:t.w_fin.(t.dec land (Array.length t.w_fin - 1))
      t.decide_due
  else t.decide_pending <- false

(* The link's reused landing event, at the head's [fin + prop_delay],
   so the head is due. The head is popped, and the next head's landing
   scheduled, before [deliver] runs, so a [deliver] that sends on this
   link again finds a consistent ring. *)
let land_next t =
  let k = t.head and now = Sim.now t.sim in
  let mask = Array.length t.w_fin - 1 in
  let i = k land mask in
  if t.dec = k then decide t;
  t.head <- k + 1;
  if k + 1 < t.tail then
    Sim.schedule t.sim ~at:(t.w_fin.((k + 1) land mask) +. t.prop_delay)
      t.landing;
  let size = t.w_size.(i) in
  let fate = t.w_fate.(i) in
  let payload = t.w_payload.(i) in
  t.w_payload.(i) <- dummy ();
  let first = fate land 3 in
  let in_place =
    first = clamped && t.w_arr.(i) <= now && Fifo_queue.is_empty t.inflight
  in
  if not in_place then place t first ~size ~at:t.w_arr.(i) payload;
  let second = fate lsr 2 in
  if second <> no_copy then begin
    let dup = t.w_dup.(i) in
    t.w_dup.(i) <- dummy ();
    place t second ~size ~at:t.w_arr_dup.(i) dup
  end;
  if in_place then land_copy t ~size payload

(* The ring is full: double it. Indices are absolute packet counts, so
   each packet moves to its count masked by the new capacity. *)
let[@inline never] grow t =
  let cap = Array.length t.w_size in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let payload = Array.make ncap (dummy ()) in
  let dup = Array.make ncap (dummy ()) in
  let size = Array.make ncap 0 in
  let fin = Array.make ncap 0.0 in
  let arr = Array.make ncap 0.0 in
  let arr_dup = Array.make ncap 0.0 in
  let fate = Array.make ncap 0 in
  for k = t.head to t.tail - 1 do
    let i = k land (cap - 1) and j = k land (ncap - 1) in
    payload.(j) <- t.w_payload.(i);
    dup.(j) <- t.w_dup.(i);
    size.(j) <- t.w_size.(i);
    fin.(j) <- t.w_fin.(i);
    arr.(j) <- t.w_arr.(i);
    arr_dup.(j) <- t.w_arr_dup.(i);
    fate.(j) <- t.w_fate.(i)
  done;
  t.w_payload <- payload;
  t.w_dup <- dup;
  t.w_size <- size;
  t.w_fin <- fin;
  t.w_arr <- arr;
  t.w_arr_dup <- arr_dup;
  t.w_fate <- fate

let create sim ~rate_bps ~prop_delay ?jitter ?rng ?loss ?(impair = Impair.none)
    ?corrupt ?txq_capacity_bytes ?(channel = -1) ?(sink = Obs.Sink.null)
    ~deliver () =
  (* Negated so that NaN fails too. *)
  if not (rate_bps > 0.0) then invalid_arg "Link.create: rate_bps must be > 0";
  if not (prop_delay >= 0.0) then
    invalid_arg "Link.create: prop_delay must be >= 0";
  let t =
    {
      sim;
      rate = rate_bps;
      prop_delay;
      jitter;
      rng = (match rng with Some r -> r | None -> Rng.create 0);
      loss = (match loss with Some l -> l | None -> Loss.none ());
      impair;
      corrupt;
      txq_capacity_bytes;
      obs_channel = channel;
      sink;
      watched = Obs.Sink.active sink;
      deliver;
      w_payload = [||];
      w_dup = [||];
      w_size = [||];
      w_fin = [||];
      w_arr = [||];
      w_arr_dup = [||];
      w_fate = [||];
      head = 0;
      dec = 0;
      tail = 0;
      undecided_bytes = 0;
      landing = ignore;
      decide_due = ignore;
      decide_pending = false;
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
  t.landing <- (fun () -> land_next t);
  t.decide_due <- (fun () -> decide_next t);
  t.arrive <- (fun () -> arrive_next t);
  t

(* Bytes queued behind the packet serializing; call after [catch_up]. *)
let queued_bytes t =
  if t.dec < t.tail then
    t.undecided_bytes - t.w_size.(t.dec land (Array.length t.w_size - 1))
  else 0

let send t ~size payload =
  if size <= 0 then invalid_arg "Link.send: size must be positive";
  if not t.up then begin
    (* A downed link drops everything silently — no error propagates to
       the sender, exactly like a transmit onto a dead interface. *)
    t.n_down_drops <- t.n_down_drops + 1;
    obs_emit t Obs.Event.Drop ~size;
    false
  end
  else begin
    (* Decisions wait for the landing events, except where a count of
       the queue is needed now, or where a watched link must emit the
       [Dequeue] of a packet queued behind one whose serialization ends
       at this instant before this packet's. *)
    if t.watched || Option.is_some t.txq_capacity_bytes then catch_up t;
    let overflow =
      match t.txq_capacity_bytes with
      | Some cap -> queued_bytes t + size > cap
      | None -> false
    in
    if overflow then begin
      t.n_txq_drops <- t.n_txq_drops + 1;
      obs_emit t Obs.Event.Txq_drop ~size;
      false
    end
    else begin
      if t.tail - t.head = Array.length t.w_size then grow t;
      let mask = Array.length t.w_size - 1 in
      let k = t.tail in
      let now = Sim.now t.sim in
      let busy_until = if k > t.head then t.w_fin.((k - 1) land mask) else now in
      let idle = busy_until <= now in
      let start = if idle then now else busy_until in
      let fin = start +. (float_of_int (size * 8) /. t.rate) in
      let i = k land mask in
      t.w_payload.(i) <- payload;
      t.w_size.(i) <- size;
      t.w_fin.(i) <- fin;
      t.tail <- k + 1;
      t.undecided_bytes <- t.undecided_bytes + size;
      if t.watched then begin
        if idle then obs_emit t Obs.Event.Dequeue ~size;
        (* No chain: every packet is decided, so this one serializes. *)
        if not t.decide_pending then begin
          t.decide_pending <- true;
          Sim.schedule t.sim ~at:fin t.decide_due
        end
      end;
      if k = t.head then Sim.schedule t.sim ~at:(fin +. t.prop_delay) t.landing;
      true
    end
  end

let rate_bps t = t.rate

let set_rate_bps t rate =
  if not (rate > 0.0) then invalid_arg "Link.set_rate_bps: rate must be > 0";
  catch_up t;
  if rate <> t.rate then begin
    t.rate <- rate;
    (* The packet serializing keeps its [fin]; each queued one starts
       when its predecessor ends, at the new rate. *)
    let mask = Array.length t.w_fin - 1 in
    for k = t.dec + 1 to t.tail - 1 do
      let i = k land mask in
      t.w_fin.(i) <-
        t.w_fin.((k - 1) land mask) +. (float_of_int (t.w_size.(i) * 8) /. rate)
    done
  end

let is_up t = t.up

let on_carrier t f = t.carrier_watchers <- t.carrier_watchers @ [ f ]

let set_up t up =
  if up <> t.up then begin
    catch_up t;
    t.up <- up;
    if (not up) && t.tail > t.dec + 1 then begin
      (* Cable pull: every packet queued behind the one serializing is
         gone. The packet serializing is dropped when it is decided, and
         in-flight copies at their arrival instant. *)
      let mask = Array.length t.w_size - 1 in
      let first = t.dec + 1 and last = t.tail - 1 in
      t.tail <- first;
      for k = first to last do
        let i = k land mask in
        let size = t.w_size.(i) in
        t.w_payload.(i) <- dummy ();
        t.undecided_bytes <- t.undecided_bytes - size;
        t.n_down_drops <- t.n_down_drops + 1;
        obs_emit t Obs.Event.Drop ~size
      done
    end;
    obs_emit t
      (if up then Obs.Event.Channel_up else Obs.Event.Channel_down)
      ~size:(-1);
    List.iter (fun f -> f ~up) t.carrier_watchers
  end

let loss_process t = t.loss

let set_loss t loss =
  catch_up t;
  t.loss <- loss

let impairments t = t.impair

let set_impairments t impair =
  catch_up t;
  t.impair <- impair

let queue_bytes t =
  catch_up t;
  queued_bytes t

let queue_packets t =
  catch_up t;
  if t.dec < t.tail then t.tail - t.dec - 1 else 0

let busy t =
  catch_up t;
  t.dec < t.tail

(* Counter accessors catch up first, so a counter reads as it would
   had every serialization that ended by now been decided when it
   ended. *)
let sent_packets t = catch_up t; t.n_sent
let sent_bytes t = catch_up t; t.b_sent
let delivered_packets t = catch_up t; t.n_delivered
let delivered_bytes t = catch_up t; t.b_delivered
let lost_packets t = catch_up t; t.n_lost
let txq_drops t = catch_up t; t.n_txq_drops
let down_drops t = catch_up t; t.n_down_drops
let reordered_packets t = catch_up t; t.n_reordered
let duplicated_packets t = catch_up t; t.n_duplicated
let corrupted_packets t = catch_up t; t.n_corrupted
let corrupt_drops t = catch_up t; t.n_corrupt_drops
