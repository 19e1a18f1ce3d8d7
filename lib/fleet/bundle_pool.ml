(* Flyweight bundle fleet: thousands of striped bundles on one event
   loop, with all heavyweight per-bundle state pooled and recycled.

   Layout. Per-slot state is struct-of-arrays indexed by the bundle id;
   per-slot-channel state is flattened as [id * n_channels + c]. The
   components that are expensive to build — deficit engines,
   resequencers, guards, wire FIFOs, and the closures handed to the
   simulator, the resequencer and the marker step — are created once
   when a slot is first built ([grow]) and thereafter recycled in
   place, never reallocated. Closures capture the pool record and their
   slot index and read the arrays at fire time, so growing the table
   (which replaces the arrays) never strands them.

   Wire and stale-event discipline. Each slot-channel wire is a
   rate+delay pipe: [busy_until] serializes departures, so arrival
   times are strictly increasing per slot-channel and the k-th arrival
   event to fire pops exactly the k-th packet pushed — the arrival
   closure needs no per-event payload. A [release] cannot cancel the
   arrival events already in the simulator, and deliberately does not
   reset [busy_until] or clear the wire: the link keeps draining its
   timeline. Instead [drop] records how many packets at the head of the
   wire belong to dead generations; the arrival closure discards
   exactly those (in FIFO order, at their true arrival times) before
   feeding the new owner's resequencer. Setting [drop] to the wire's
   current length at release is idempotent across rapid re-releases:
   whatever is on the wire at that instant is, by definition, dead. *)

open Stripe_packet
open Stripe_netsim
open Stripe_core

(* Striping discipline run by every slot engine in the pool (the fleet
   shares one facility set, so one discipline serves all bundles).

   [Srr] is the paper's deficit round-robin. [Sprinklers seed] keeps the
   same quanta and fairness bound but permutes the per-round visit order
   from [seed] (each slot decorrelates with its own derived seed) — the
   receiver replays the permutation from the cloned engine, so the whole
   marker/resequencer machinery is unchanged. *)
type discipline = Srr | Sprinklers of int

type config = {
  rate_bps : float array;
  prop_delay : float array;
  quanta : int array;
  marker_every : int;
  guard : bool;
  discipline : discipline;
}

type t = {
  sim : Sim.t;
  n_ch : int;
  rate_bps : float array;
  prop_delay : float array;
  quanta : int array;
  marker_every : int;
  use_guard : bool;
  discipline : discipline;
  stamp_seq : bool;
      (* Allocate a per-slot-sequenced data packet per push instead of the
         interned flyweight, so deliveries can be FIFO-checked. *)
  watchdog : Resequencer.watchdog option;
  policy : Marker.policy option;
  now_fn : unit -> float;  (* shared by every slot's resequencer *)
  (* Data packets are immutable and the protocol never reads their
     measurement metadata, so one packet per distinct size serves every
     bundle in the fleet. *)
  interned : (int, Packet.t) Hashtbl.t;
  (* Pool-wide carrier state: channel [c] of EVERY bundle rides the same
     physical facility class, so one flag takes the whole fleet's channel
     [c] down at once — the shared-risk-group model the chaos engine
     drives. All up at create. *)
  ch_up : bool array;
  (* Gray-failure state, pool-wide per channel (PROTOCOL.md §13). The
     wire impairments model a degrading facility: [ch_loss] eats packets
     in flight, [rate_scale] shrinks the service rate relative to
     nominal. [ch_quarantined] is the health engine's verdict — policy
     suspension layered on top of carrier state, honored by [acquire],
     [restart_sender], and the full-heal barrier condition. One health
     engine serves the whole fleet: channel [c] is one physical
     facility, so one detection covers every bundle riding it. *)
  rng : Rng.t;  (* wire-loss evaluation *)
  ch_loss : Loss.t array;
  rate_scale : float array;
  ch_quarantined : bool array;
  health_config : Health.config option;
  health_sink : Stripe_obs.Sink.t option;
  mutable health : Health.t option;
  (* Pool-wide per-channel wire counters — the health engine's evidence.
     [wtx] counts packets offered to the wire (lost ones included),
     [wlost] the ones the loss process ate, [wtx_b]/[wdone_b] bytes
     offered / bytes whose wire service completed (goodput collapse
     shows as a widening gap). [last_*] are the previous tick's
     snapshots. *)
  wtx_p : int array;
  wlost_p : int array;
  wtx_b : int array;
  wdone_b : int array;
  last_wtx_p : int array;
  last_wlost_p : int array;
  last_wtx_b : int array;
  last_wdone_b : int array;
  mutable max_push : int;  (* largest data packet seen: probation floor *)
  mutable health_retunes : int;
  mutable health_deferred : int;
  mutable cap : int;
  (* Per-slot (length = cap). *)
  mutable live : bool array;
  mutable tx : Deficit.t array;
  mutable rx : Resequencer.t array;
  mutable grx : Channel_guard.t array;  (* empty unless [use_guard] *)
  mutable send_marker : (channel:int -> Packet.t -> unit) array;
      (* prebuilt, one per slot: the [~send] of the [Marker] sender step *)
  mutable next_mark : int array;  (* [~next] of [Marker.batch] *)
  mutable birth : float array;
  mutable pushed_p : int array;
  mutable pushed_b : int array;
  mutable delivered_p : int array;
  mutable delivered_b : int array;
  (* Chaos state, per slot. [tx_epoch] is the sender incarnation stamped
     on the slot's markers (PROTOCOL.md §12); only [restart_sender] bumps
     it. The drop counters keep the conservation identity closed:
     pushed = delivered + rx pending + in flight + carrier_drops
     + rx_down_drops + epoch_discards(rx) + rx_wiped. *)
  mutable tx_epoch : int array;
  mutable tx_gen : int array;
      (* Reset-barrier generation within the epoch: bumped by every
         [send_slot_reset], stamped on all the slot's markers so the
         receiver can pair barrier fragments by generation
         ([Packet.marker.m_gen]); back to 0 with each incarnation. *)
  mutable tx_down : bool array;  (* sender crashed, not yet restarted *)
  mutable rx_down : bool array;  (* receiver crashed, not yet restarted *)
  mutable next_seq : int array;  (* next data seq when [stamp_seq] *)
  mutable last_seq : int array;  (* highest delivered seq (FIFO monitor) *)
  mutable last_delivery : float array;  (* time of last delivery; nan before *)
  mutable carrier_dp : int array;  (* data dropped at transmit: carrier down *)
  mutable tx_down_dp : int array;  (* pushes refused: sender crashed *)
  mutable no_active_dp : int array;  (* pushes dropped: all channels suspended *)
  mutable rx_down_dp : int array;  (* data arrivals dropped: receiver crashed *)
  mutable rx_wiped_p : int array;  (* buffered data wiped by receiver crash *)
  mutable wire_dp : int array;  (* data eaten in flight by wire loss *)
  mutable fifo_viol : int array;  (* FIFO monitor hits after the quiet line *)
  mutable ooo : int array;  (* all delivered-seq inversions (diagnostic) *)
  (* Per-slot-channel (length = cap * n_ch). *)
  mutable wire : Packet.t Fifo_queue.t array;
  mutable busy : float array;  (* channel transmitting until this time *)
  mutable drop : int array;  (* head-of-wire packets of dead generations *)
  mutable rx_tag : int array;  (* guard tag the next arrival carries *)
  mutable arrive : (unit -> unit) array;  (* prebuilt, one per slot-channel *)
  (* Free-slot stack. *)
  mutable free : int array;
  mutable n_free : int;
  mutable n_live : int;
  mutable n_acquired : int;
  mutable n_recycled : int;
  mutable total_dp : int;
  mutable total_db : int;
  mutable markers : int;
  (* Chaos state, pool-wide. *)
  mutable fifo_check_after : float;
      (* FIFO violations only count at/after this time: quasi-FIFO
         slippage is legal while chaos is still draining (Thm 5.1), so
         the driver sets this past its last event plus a drain grace. *)
  mutable fifo_violations : int;
  mutable first_violation : (float * int * int) option;  (* time, slot, seq *)
  mutable n_crashes : int;
  mutable n_restarts : int;
}

let n_channels t = t.n_ch

let config t =
  {
    rate_bps = Array.copy t.rate_bps;
    prop_delay = Array.copy t.prop_delay;
    quanta = Array.copy t.quanta;
    marker_every = t.marker_every;
    guard = t.use_guard;
    discipline = t.discipline;
  }

let check_live t id what =
  if id < 0 || id >= t.cap || not t.live.(id) then
    invalid_arg (Printf.sprintf "Bundle_pool.%s: bundle %d is not live" what id)

let check_slot t id what =
  if id < 0 || id >= t.cap then
    invalid_arg (Printf.sprintf "Bundle_pool.%s: bad bundle id %d" what id)

(* Last hop into the slot's resequencer. A crashed receiver
   ([rx_down]) hears nothing: data is dropped and counted (markers are
   uncounted everywhere, so they just vanish). The guard sits below this
   point — it is a link-layer filter whose state rides the link, not the
   endpoint, so a receiver crash does not recycle it. *)
let rx_ingest t id c pkt =
  if t.rx_down.(id) then begin
    if not (Packet.is_marker pkt) then
      t.rx_down_dp.(id) <- t.rx_down_dp.(id) + 1
  end
  else Resequencer.receive t.rx.(id) ~channel:c pkt

(* Feed one surviving arrival to the slot's receive side. With the
   guard on, the tag is reproduced from a per-slot-channel counter: the
   wire is a perfect FIFO, so arrivals carry consecutive tags and the
   guard always rides its in-order fast path (the counter models the
   tag the packet would carry; carrier drops and endpoint crashes never
   desynchronize it because it counts arrivals, not transmissions). *)
let feed t id c pkt =
  if t.use_guard then begin
    let sc = (id * t.n_ch) + c in
    let tag = t.rx_tag.(sc) in
    t.rx_tag.(sc) <- tag + 1;
    Channel_guard.receive t.grx.(id) ~channel:c ~tag pkt
  end
  else rx_ingest t id c pkt

let make_arrive t id c =
  let sc = (id * t.n_ch) + c in
  fun () ->
    let pkt = Fifo_queue.pop_exn t.wire.(sc) in
    (* The wire finished serving these bytes whichever generation owns
       them — [wdone_b] measures the facility, not the bundle. *)
    t.wdone_b.(c) <- t.wdone_b.(c) + pkt.Packet.size;
    if t.drop.(sc) > 0 then t.drop.(sc) <- t.drop.(sc) - 1
    else feed t id c pkt

let make_deliver t id =
  fun ~channel:_ (pkt : Packet.t) ->
    t.delivered_p.(id) <- t.delivered_p.(id) + 1;
    t.delivered_b.(id) <- t.delivered_b.(id) + pkt.Packet.size;
    t.total_dp <- t.total_dp + 1;
    t.total_db <- t.total_db + pkt.Packet.size;
    let now = Sim.now t.sim in
    t.last_delivery.(id) <- now;
    if t.stamp_seq then begin
      (* Always-on FIFO monitor: past the quiet line every delivery must
         carry a seq above everything already delivered (gaps are fine —
         those are counted drops). Seq 0 is a predecessor generation's
         interned packet; never judged. *)
      let s = pkt.Packet.seq in
      if s > 0 then begin
        if s < t.last_seq.(id) then begin
          t.ooo.(id) <- t.ooo.(id) + 1;
          if now >= t.fifo_check_after then begin
            t.fifo_viol.(id) <- t.fifo_viol.(id) + 1;
            t.fifo_violations <- t.fifo_violations + 1;
            if t.first_violation = None then
              t.first_violation <- Some (now, id, s)
          end
        end
        else t.last_seq.(id) <- s
      end
    end

(* Put one packet (data or marker) on a slot-channel wire. A dark
   carrier eats the packet at the NIC: data is counted against the slot
   (conservation), markers vanish like everywhere else. *)
let transmit t id c ~size pkt =
  if not t.ch_up.(c) then begin
    if not (Packet.is_marker pkt) then
      t.carrier_dp.(id) <- t.carrier_dp.(id) + 1
  end
  else begin
  let sc = (id * t.n_ch) + c in
  let now = Sim.now t.sim in
  let b = t.busy.(sc) in
  let depart = if b > now then b else now in
  (* [rate_scale] models a gray facility serving below nominal; the
     packet still occupies the (slower) wire even if the loss process
     then eats it in flight. *)
  let rate = t.rate_bps.(c) *. t.rate_scale.(c) in
  let free_at = depart +. (float_of_int (size * 8) /. rate) in
  t.busy.(sc) <- free_at;
  t.wtx_p.(c) <- t.wtx_p.(c) + 1;
  t.wtx_b.(c) <- t.wtx_b.(c) + size;
  if Loss.drop t.ch_loss.(c) t.rng then begin
    t.wlost_p.(c) <- t.wlost_p.(c) + 1;
    if not (Packet.is_marker pkt) then t.wire_dp.(id) <- t.wire_dp.(id) + 1
  end
  else begin
    Fifo_queue.push t.wire.(sc) ~size pkt;
    Sim.schedule t.sim ~at:(free_at +. t.prop_delay.(c)) t.arrive.(sc)
  end
  end

let make_send_marker t id =
  fun ~channel (m : Packet.t) ->
    transmit t id channel ~size:m.Packet.size m;
    t.markers <- t.markers + 1

(* Visit order for slot [i]'s engine. Sprinklers slots each derive
   their own seed so the fleet's permutations decorrelate (every bundle
   rotating onto the same channel in the same round would synchronize
   bursts on one facility); the receiver's clone carries the order, so
   both sides replay the same permutation stream. *)
let slot_order t i =
  match t.discipline with
  | Sprinklers seed -> Deficit.Permuted (seed + (i * 0x632be5ab))
  | Srr -> Deficit.Fixed

let make_rx t i =
  Resequencer.create
    ~deficit:(Deficit.clone_initial t.tx.(i))
    ~now:t.now_fn ?watchdog:t.watchdog ~deliver:(make_deliver t i) ()

(* Build slots [t.cap, cap): every expensive component a bundle will
   ever need on this slot is created here, exactly once. *)
let grow_to t cap =
  let old = t.cap in
  let extend make a = Array.init cap (fun i -> if i < old then a.(i) else make i) in
  t.live <- extend (fun _ -> false) t.live;
  t.tx <-
    extend
      (fun i ->
        Deficit.create ~order:(slot_order t i) ~quanta:(Array.copy t.quanta) ())
      t.tx;
  t.rx <- extend (make_rx t) t.rx;
  if t.use_guard then
    t.grx <-
      extend
        (fun i ->
          Channel_guard.create ~n:t.n_ch ~now:t.now_fn
            ~deliver:(fun ~channel pkt -> rx_ingest t i channel pkt)
            ())
        t.grx;
  t.send_marker <- extend (fun i -> make_send_marker t i) t.send_marker;
  t.next_mark <- extend (fun _ -> 0) t.next_mark;
  t.birth <- extend (fun _ -> 0.0) t.birth;
  t.pushed_p <- extend (fun _ -> 0) t.pushed_p;
  t.pushed_b <- extend (fun _ -> 0) t.pushed_b;
  t.delivered_p <- extend (fun _ -> 0) t.delivered_p;
  t.delivered_b <- extend (fun _ -> 0) t.delivered_b;
  t.tx_epoch <- extend (fun _ -> 0) t.tx_epoch;
  t.tx_gen <- extend (fun _ -> 0) t.tx_gen;
  t.tx_down <- extend (fun _ -> false) t.tx_down;
  t.rx_down <- extend (fun _ -> false) t.rx_down;
  t.next_seq <- extend (fun _ -> 1) t.next_seq;
  t.last_seq <- extend (fun _ -> 0) t.last_seq;
  t.last_delivery <- extend (fun _ -> Float.nan) t.last_delivery;
  t.carrier_dp <- extend (fun _ -> 0) t.carrier_dp;
  t.tx_down_dp <- extend (fun _ -> 0) t.tx_down_dp;
  t.no_active_dp <- extend (fun _ -> 0) t.no_active_dp;
  t.rx_down_dp <- extend (fun _ -> 0) t.rx_down_dp;
  t.rx_wiped_p <- extend (fun _ -> 0) t.rx_wiped_p;
  t.wire_dp <- extend (fun _ -> 0) t.wire_dp;
  t.fifo_viol <- extend (fun _ -> 0) t.fifo_viol;
  t.ooo <- extend (fun _ -> 0) t.ooo;
  let scap = cap * t.n_ch in
  let sold = old * t.n_ch in
  let extend_sc make a =
    Array.init scap (fun i -> if i < sold then a.(i) else make i)
  in
  t.wire <- extend_sc (fun _ -> Fifo_queue.create ()) t.wire;
  t.busy <- extend_sc (fun _ -> 0.0) t.busy;
  t.drop <- extend_sc (fun _ -> 0) t.drop;
  t.rx_tag <- extend_sc (fun _ -> 0) t.rx_tag;
  t.arrive <-
    extend_sc (fun sc -> make_arrive t (sc / t.n_ch) (sc mod t.n_ch)) t.arrive;
  t.free <- extend (fun _ -> 0) t.free;
  (* Stack the new slots so the lowest id comes off first. *)
  for id = cap - 1 downto old do
    t.free.(t.n_free) <- id;
    t.n_free <- t.n_free + 1
  done;
  t.cap <- cap

let build_health t =
  Option.map
    (fun config ->
      Health.create ~config
        ~live:(fun c -> c >= 0 && c < t.n_ch && t.ch_up.(c))
        ?sink:t.health_sink ~n:t.n_ch ())
    t.health_config

let create ?(initial_capacity = 64) ?(stamp_seq = false) ?watchdog ?rng
    ?health ?health_sink ~sim (config : config) =
  let n = Array.length config.rate_bps in
  if n = 0 then invalid_arg "Bundle_pool.create: no channels";
  if Array.length config.prop_delay <> n || Array.length config.quanta <> n
  then invalid_arg "Bundle_pool.create: config arrays differ in length";
  if Array.exists (fun r -> not (r > 0.0)) config.rate_bps then
    invalid_arg "Bundle_pool.create: rates must be positive";
  if Array.exists (fun d -> not (d >= 0.0)) config.prop_delay then
    invalid_arg "Bundle_pool.create: delays must be non-negative";
  if Array.exists (fun q -> q <= 0) config.quanta then
    invalid_arg "Bundle_pool.create: quanta must be positive";
  if config.marker_every < 0 then
    invalid_arg "Bundle_pool.create: marker_every must be >= 0";
  if initial_capacity <= 0 then
    invalid_arg "Bundle_pool.create: initial_capacity must be positive";
  let t =
    {
      sim;
      n_ch = n;
      rate_bps = Array.copy config.rate_bps;
      prop_delay = Array.copy config.prop_delay;
      quanta = Array.copy config.quanta;
      marker_every = config.marker_every;
      use_guard = config.guard;
      discipline = config.discipline;
      stamp_seq;
      watchdog;
      policy =
        (if config.marker_every > 0 then
           Some (Marker.make ~every_rounds:config.marker_every ())
         else None);
      now_fn = (fun () -> Sim.now sim);
      interned = Hashtbl.create 64;
      ch_up = Array.make n true;
      rng = (match rng with Some r -> r | None -> Rng.create 0x5712e);
      ch_loss = Array.init n (fun _ -> Loss.none ());
      rate_scale = Array.make n 1.0;
      ch_quarantined = Array.make n false;
      health_config = health;
      health_sink;
      health = None;
      wtx_p = Array.make n 0;
      wlost_p = Array.make n 0;
      wtx_b = Array.make n 0;
      wdone_b = Array.make n 0;
      last_wtx_p = Array.make n 0;
      last_wlost_p = Array.make n 0;
      last_wtx_b = Array.make n 0;
      last_wdone_b = Array.make n 0;
      max_push = 0;
      health_retunes = 0;
      health_deferred = 0;
      cap = 0;
      live = [||];
      tx = [||];
      rx = [||];
      grx = [||];
      send_marker = [||];
      next_mark = [||];
      birth = [||];
      pushed_p = [||];
      pushed_b = [||];
      delivered_p = [||];
      delivered_b = [||];
      tx_epoch = [||];
      tx_gen = [||];
      tx_down = [||];
      rx_down = [||];
      next_seq = [||];
      last_seq = [||];
      last_delivery = [||];
      carrier_dp = [||];
      tx_down_dp = [||];
      no_active_dp = [||];
      rx_down_dp = [||];
      rx_wiped_p = [||];
      wire_dp = [||];
      fifo_viol = [||];
      ooo = [||];
      wire = [||];
      busy = [||];
      drop = [||];
      rx_tag = [||];
      arrive = [||];
      free = [||];
      n_free = 0;
      n_live = 0;
      n_acquired = 0;
      n_recycled = 0;
      total_dp = 0;
      total_db = 0;
      markers = 0;
      fifo_check_after = 0.0;
      fifo_violations = 0;
      first_violation = None;
      n_crashes = 0;
      n_restarts = 0;
    }
  in
  t.health <- build_health t;
  grow_to t initial_capacity;
  t

(* The per-bundle counters and chaos state a new owner starts from:
   [acquire] applies it to one slot, [reset] to all of them. *)
let clear_slot t id =
  t.pushed_p.(id) <- 0;
  t.pushed_b.(id) <- 0;
  t.delivered_p.(id) <- 0;
  t.delivered_b.(id) <- 0;
  t.tx_epoch.(id) <- 0;
  t.tx_gen.(id) <- 0;
  t.tx_down.(id) <- false;
  t.rx_down.(id) <- false;
  t.next_seq.(id) <- 1;
  t.last_seq.(id) <- 0;
  t.last_delivery.(id) <- Float.nan;
  t.carrier_dp.(id) <- 0;
  t.tx_down_dp.(id) <- 0;
  t.no_active_dp.(id) <- 0;
  t.rx_down_dp.(id) <- 0;
  t.rx_wiped_p.(id) <- 0;
  t.wire_dp.(id) <- 0;
  t.fifo_viol.(id) <- 0;
  t.ooo.(id) <- 0

let activate t id =
  t.live.(id) <- true;
  t.birth.(id) <- Sim.now t.sim;
  clear_slot t id;
  (* The slot engine starts from the link state of the moment, not from
     any predecessor's suspensions (release's reconfigure cleared those):
     a bundle born mid-storm never stripes onto a channel that is already
     known to be dark — or already quarantined by the health engine. *)
  for c = 0 to t.n_ch - 1 do
    if not t.ch_up.(c) || t.ch_quarantined.(c) then Deficit.suspend t.tx.(id) c
  done;
  t.n_live <- t.n_live + 1;
  t.n_acquired <- t.n_acquired + 1

let acquire t =
  if t.n_free = 0 then grow_to t (2 * t.cap);
  t.n_free <- t.n_free - 1;
  let id = t.free.(t.n_free) in
  activate t id;
  id

let acquire_slot t id =
  if id < 0 then invalid_arg "Bundle_pool.acquire_slot: negative id";
  while id >= t.cap do
    grow_to t (2 * t.cap)
  done;
  if t.live.(id) then invalid_arg "Bundle_pool.acquire_slot: slot is live";
  (* Swap-remove [id] from the free stack. Directed acquires do not
     preserve the LIFO order of the remaining stack — a replay drives
     every acquire explicitly, so the local stack order is never
     consulted. *)
  let i = ref 0 in
  while !i < t.n_free && t.free.(!i) <> id do
    incr i
  done;
  if !i >= t.n_free then invalid_arg "Bundle_pool.acquire_slot: slot not free";
  t.n_free <- t.n_free - 1;
  t.free.(!i) <- t.free.(t.n_free);
  activate t id;
  id

let release t id =
  check_live t id "release";
  let base = id * t.n_ch in
  for c = 0 to t.n_ch - 1 do
    let sc = base + c in
    (* Everything on the wire right now — including any still-undropped
       tail of an even earlier generation — is dead. [busy] is kept:
       the link finishes transmitting what it already accepted. *)
    t.drop.(sc) <- Fifo_queue.length t.wire.(sc);
    t.rx_tag.(sc) <- 0
  done;
  Resequencer.recycle t.rx.(id);
  Deficit.reconfigure t.tx.(id) ~quanta:t.quanta;
  if t.use_guard then Channel_guard.recycle t.grx.(id);
  t.next_mark.(id) <- 0;
  t.live.(id) <- false;
  t.n_live <- t.n_live - 1;
  t.n_recycled <- t.n_recycled + 1;
  t.free.(t.n_free) <- id;
  t.n_free <- t.n_free + 1

(* Everything [create] set, back in place over the slots already built:
   the per-slot components are recycled (a receiver that adopted a
   health retune runs other quanta than [create] gave it, so it is
   rebuilt instead), and the free stack is restacked lowest id first.
   Empty wires are the precondition, not a step: a packet on a wire has
   its arrival event queued, and [drop] never exceeds the wire's length,
   so both are already what [create] built. *)
let reset t =
  if Array.exists (fun w -> not (Fifo_queue.is_empty w)) t.wire then
    invalid_arg "Bundle_pool.reset: a packet is still on a wire";
  Array.fill t.ch_up 0 t.n_ch true;
  Array.fill t.ch_loss 0 t.n_ch (Loss.none ());
  Array.fill t.rate_scale 0 t.n_ch 1.0;
  Array.fill t.ch_quarantined 0 t.n_ch false;
  t.health <- build_health t;
  List.iter
    (fun a -> Array.fill a 0 t.n_ch 0)
    [ t.wtx_p; t.wlost_p; t.wtx_b; t.wdone_b; t.last_wtx_p; t.last_wlost_p;
      t.last_wtx_b; t.last_wdone_b ];
  t.max_push <- 0;
  t.health_retunes <- 0;
  t.health_deferred <- 0;
  for id = 0 to t.cap - 1 do
    t.live.(id) <- false;
    t.birth.(id) <- 0.0;
    clear_slot t id;
    Deficit.reconfigure t.tx.(id) ~quanta:t.quanta;
    if Resequencer.quanta t.rx.(id) = t.quanta then Resequencer.recycle t.rx.(id)
    else t.rx.(id) <- make_rx t id;
    if t.use_guard then Channel_guard.recycle t.grx.(id);
    t.next_mark.(id) <- 0;
    t.free.(id) <- t.cap - 1 - id
  done;
  Array.fill t.busy 0 (t.cap * t.n_ch) 0.0;
  Array.fill t.rx_tag 0 (t.cap * t.n_ch) 0;
  t.n_free <- t.cap;
  t.n_live <- 0;
  t.n_acquired <- 0;
  t.n_recycled <- 0;
  t.total_dp <- 0;
  t.total_db <- 0;
  t.markers <- 0;
  t.fifo_check_after <- 0.0;
  t.fifo_violations <- 0;
  t.first_violation <- None;
  t.n_crashes <- 0;
  t.n_restarts <- 0

let is_live t id = id >= 0 && id < t.cap && t.live.(id)
let live_bundles t = t.n_live
let capacity t = t.cap
let total_acquired t = t.n_acquired
let recycles t = t.n_recycled

let intern t size =
  try Hashtbl.find t.interned size
  with Not_found ->
    let pkt = Packet.data ~seq:0 ~size () in
    Hashtbl.add t.interned size pkt;
    pkt

let push t id ~size =
  check_live t id "push";
  if size <= 0 then invalid_arg "Bundle_pool.push: size must be positive";
  if size > t.max_push then t.max_push <- size;
  if t.tx_down.(id) then
    (* The sender endpoint is crashed: the host that would stripe this
       packet does not exist. Not counted as pushed — the offered load
       never reached a striping engine. *)
    t.tx_down_dp.(id) <- t.tx_down_dp.(id) + 1
  else begin
    let d = t.tx.(id) in
    if not (Deficit.any_active d) then
      (* Every channel suspended (a storm covering the whole bundle):
         drop like [Striper.push] does, counted, never an exception. *)
      t.no_active_dp.(id) <- t.no_active_dp.(id) + 1
    else begin
      (* Select settles the round the packet belongs to (as in
         [Striper.push]); the marker check below compares against it. *)
      let c = Deficit.select d in
      let round_before = Deficit.round d in
      let pkt =
        if t.stamp_seq then begin
          let s = t.next_seq.(id) in
          t.next_seq.(id) <- s + 1;
          Packet.data ~seq:s ~size ()
        end
        else intern t size
      in
      transmit t id c ~size pkt;
      Deficit.consume d ~size;
      t.pushed_p.(id) <- t.pushed_p.(id) + 1;
      t.pushed_b.(id) <- t.pushed_b.(id) + size;
      match t.policy with
      | Some policy when Deficit.round d > round_before ->
        (* Round_end batches: the consume wrapped into a new round, so the
           markers follow all data of the completed round — the reference
           striper's default position. *)
        t.next_mark.(id) <-
          Marker.batch policy d ~next:t.next_mark.(id) ~epoch:t.tx_epoch.(id)
            ~gen:t.tx_gen.(id) ~now:t.now_fn ~send:t.send_marker.(id)
      | Some _ | None -> ()
    end
  end

(* §5 reset barrier for one slot ([Marker.reset_barrier], as in
   [Striper.send_reset]): the engine reinitializes in place (suspensions
   survive — a reset does not revive a dead channel) and every channel
   gets a reset marker stamped with the slot's incarnation and its
   freshly bumped barrier generation ([m_gen] — what lets the receiver
   pair markers of the same barrier when storms interleave them). Reset
   markers go to ALL channels — the barrier is incomplete without each
   one — so the caller must not fire a barrier while carriers are still
   dark if it can help it: a dark carrier eats its copy and the receiver
   must wait out the staleness horizon for that barrier. Both carrier resumes
   ([set_channel_up]) and crash restarts ([restart_sender]) therefore
   defer the barrier to the full heal; in the interim the epoch stamp
   on ordinary periodic markers keeps a restarted sender's receiver
   re-anchoring channel by channel. *)
let send_slot_reset t id =
  t.tx_gen.(id) <- t.tx_gen.(id) + 1;
  t.next_mark.(id) <-
    Marker.reset_barrier t.tx.(id) ~epoch:t.tx_epoch.(id) ~gen:t.tx_gen.(id)
      ~now:t.now_fn ~send:t.send_marker.(id)

let channel_up t c =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.channel_up: bad channel";
  t.ch_up.(c)

(* Channels a fully healed slot engine is expected to be striping on:
   everything except the health engine's quarantines. The §5 full-heal
   barrier fires against this count, not [n_ch] — otherwise a single
   quarantined channel would postpone every carrier-heal barrier
   forever. *)
let expected_active t =
  let q = ref 0 in
  Array.iter (fun b -> if b then incr q) t.ch_quarantined;
  t.n_ch - !q

(* The quantum vector every slot engine should be running right now:
   nominal, scaled per channel by health probation, floored at the
   largest data packet the pool has ever striped (the Thm 5.1 marker
   precondition — the slot engines declare no [max_packet], so the pool
   supplies the observed bound). Identity when no health engine is
   attached. *)
let health_target t =
  match t.health with
  | None -> t.quanta
  | Some h ->
    let floor_q = max 1 t.max_push in
    Array.mapi
      (fun c nominal ->
        let scale = Health.quantum_scale h c in
        if scale <= 0.0 || scale >= 1.0 then nominal
        else max floor_q (int_of_float (float_of_int nominal *. scale)))
      t.quanta

let set_channel_up t c up =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.set_channel_up: bad channel";
  if t.ch_up.(c) <> up then begin
    t.ch_up.(c) <- up;
    (* One carrier transition touches channel [c] of every live bundle
       at once — the shared-risk-group semantics. Crashed senders are
       skipped: their engines are dead, and [restart_sender] re-derives
       suspensions from the link state of the moment anyway. *)
    for id = 0 to t.cap - 1 do
      if t.live.(id) && not t.tx_down.(id) then
        if up then begin
          (* A healed carrier does not override the health engine: a
             quarantined channel stays suspended until its timed
             reinstatement. *)
          if Deficit.suspended t.tx.(id) c && not t.ch_quarantined.(c)
          then begin
            Deficit.resume t.tx.(id) c;
            (* Fire the §5 barrier only once the slot is fully healed.
               A barrier per partial resume would stripe its reset
               markers into still-dark carriers, which eat them, and the
               receiver would wait out the staleness horizon for each
               such barrier. Until the last channel returns, the resumed
               channel's ordinary markers re-pin the receiver
               quasi-FIFO, which is the legal degraded mode during a
               storm. *)
            if Deficit.n_active t.tx.(id) = expected_active t then
              send_slot_reset t id
          end
        end
        else if not (Deficit.suspended t.tx.(id) c) then
          Deficit.suspend t.tx.(id) c
    done
  end

let crash_sender t id =
  check_live t id "crash_sender";
  if t.tx_down.(id) then
    invalid_arg "Bundle_pool.crash_sender: sender already down";
  t.tx_down.(id) <- true;
  t.n_crashes <- t.n_crashes + 1

let restart_sender t id =
  check_live t id "restart_sender";
  if not t.tx_down.(id) then
    invalid_arg "Bundle_pool.restart_sender: sender is not down";
  t.tx_down.(id) <- false;
  t.n_restarts <- t.n_restarts + 1;
  (* The rebooted host has no striping state (PROTOCOL.md §12): the
     engine rebuilds on the pool's current quantum vector — the health
     target, not the nominal config. A sender reborn at nominal while
     its receiver still runs an adopted probation retune would restripe
     on a different cadence than the receiver simulates, and since the
     reconciler only compares the sender half against the target, the
     mismatch would never heal: one channel of the bundle then trails
     the stripe by a constant quasi-FIFO offset forever. Suspensions
     come from the link state of the moment, and the new incarnation
     announces itself with epoch-stamped reset markers. *)
  Deficit.reconfigure t.tx.(id) ~quanta:(health_target t);
  for c = 0 to t.n_ch - 1 do
    if not t.ch_up.(c) || t.ch_quarantined.(c) then Deficit.suspend t.tx.(id) c
  done;
  t.tx_epoch.(id) <- t.tx_epoch.(id) + 1;
  t.tx_gen.(id) <- 0;
  (* Announce the new incarnation with a reset barrier only if every
     carrier is up: a barrier fired into a storm loses the markers on
     dark channels and strands the receiver mid-assembly (see
     [send_slot_reset]). When some carriers are down, the epoch bump
     alone is enough in the interim — every periodic marker carries it,
     so the receiver's eager crash-sync re-anchors channel by channel —
     and the full heal fires the proper barrier via [set_channel_up]
     (the engine just rebuilt with those channels suspended). *)
  if Deficit.n_active t.tx.(id) = expected_active t then send_slot_reset t id

let crash_receiver t id =
  check_live t id "crash_receiver";
  if t.rx_down.(id) then
    invalid_arg "Bundle_pool.crash_receiver: receiver already down";
  t.rx_down.(id) <- true;
  t.n_crashes <- t.n_crashes + 1;
  (* Everything buffered dies with the endpoint now; the resequencer is
     also reset here rather than at restart, because its post-crash
     cold state is exactly what the restarted process boots with.
     Arrivals in between are dropped by [rx_ingest]. *)
  let wiped = Resequencer.crash_restart t.rx.(id) in
  t.rx_wiped_p.(id) <- t.rx_wiped_p.(id) + wiped;
  wiped

let restart_receiver t id =
  check_live t id "restart_receiver";
  if not t.rx_down.(id) then
    invalid_arg "Bundle_pool.restart_receiver: receiver is not down";
  t.rx_down.(id) <- false;
  t.n_restarts <- t.n_restarts + 1

let set_channel_loss t c loss =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.set_channel_loss: bad channel";
  t.ch_loss.(c) <- loss

let scale_channel_rate t c f =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.scale_channel_rate: bad channel";
  if not (f > 0.0) then
    invalid_arg "Bundle_pool.scale_channel_rate: factor must be positive";
  t.rate_scale.(c) <- f

(* --- Fleet-wide gray-failure self-healing (PROTOCOL.md §13) --------- *)

let health t = t.health

let channel_quarantined t c =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.channel_quarantined: bad channel";
  t.ch_quarantined.(c)

(* One verdict, every bundle: policy-suspend channel [c] of each live
   slot engine. Suspends need no barrier; the reinstatement's retune
   below carries the §5 resynchronization. *)
let quarantine_channel t c =
  t.ch_quarantined.(c) <- true;
  for id = 0 to t.cap - 1 do
    if t.live.(id) && not t.tx_down.(id) then
      if not (Deficit.suspended t.tx.(id) c) then Deficit.suspend t.tx.(id) c
  done

let unquarantine_channel t c =
  t.ch_quarantined.(c) <- false;
  (* Resume only where the carrier cooperates — a channel that also went
     physically dark during its quarantine stays suspended until
     [set_channel_up] heals it. No barrier here: the probation retune
     that always follows a reinstatement fires [send_slot_reset] per
     slot, which doubles as the §5 resync for the resumed channel. *)
  if t.ch_up.(c) then
    for id = 0 to t.cap - 1 do
      if t.live.(id) && not t.tx_down.(id) then
        if Deficit.suspended t.tx.(id) c then Deficit.resume t.tx.(id) c
    done

(* Operator-initiated pool-wide §5 resynchronization. A resequencer can
   carry a bounded stale surplus indefinitely: when the cadence watchdog
   skips packets that were merely delayed (a rate collapse), not lost,
   the late copies still arrive and sit in the channel buffer — and
   since data packets carry no round identity, periodic markers re-pin
   the cadence but can never expunge the surplus, so every later
   delivery on that channel trails the stripe by a constant offset
   (legal quasi-FIFO, but never self-healing). The reset barrier is the
   protocol's cure: the pre-barrier surplus drains during assembly and
   the adopted engine restarts clean. Slots with a crashed endpoint are
   skipped — their own crash barrier resynchronizes on restart. *)
let resync t =
  for id = 0 to t.cap - 1 do
    if t.live.(id) && (not t.tx_down.(id)) && not t.rx_down.(id) then
      send_slot_reset t id
  done

(* Reconcile every slot's quantum vector with the health target. The
   sender half stages via [Deficit.retune] and adopts in
   [send_slot_reset]'s reinit; the receiver half stages via
   [Resequencer.retune] and adopts when that same barrier completes.
   BOTH halves are compared against the target: they can disagree with
   each other even when the sender matches — a sender crash-restart
   rebuilds its engine from the target of that moment while its
   receiver still runs an earlier adopted retune — and an unrepaired
   split-cadence slot trails the stripe by a constant quasi-FIFO offset
   forever. A slot mid-transition (or with a crashed endpoint) is
   skipped and counted; the target is recomputed next tick, so deferral
   self-heals. *)
let flush_health_quanta t =
  let target = health_target t in
  for id = 0 to t.cap - 1 do
    if
      t.live.(id)
      && (not t.tx_down.(id))
      && not t.rx_down.(id)
    then
      if
        Deficit.quanta t.tx.(id) <> target
        || Resequencer.quanta t.rx.(id) <> target
      then
        if Resequencer.transition_pending t.rx.(id) then
          t.health_deferred <- t.health_deferred + 1
        else begin
          t.health_retunes <- t.health_retunes + 1;
          Deficit.retune t.tx.(id) ~quanta:target;
          Resequencer.retune t.rx.(id) ~quanta:target;
          send_slot_reset t id
        end
  done

let health_tick t ~now =
  match t.health with
  | None -> []
  | Some h ->
    (* Evidence: this tick's pool-wide wire deltas per channel. Loss and
       goodput shortfall both come from the facility itself — one gray
       link is one detection, however many bundles ride it. *)
    for c = 0 to t.n_ch - 1 do
      let sent = t.wtx_p.(c) - t.last_wtx_p.(c) in
      let lost = t.wlost_p.(c) - t.last_wlost_p.(c) in
      let txb = t.wtx_b.(c) - t.last_wtx_b.(c) in
      let doneb = t.wdone_b.(c) - t.last_wdone_b.(c) in
      t.last_wtx_p.(c) <- t.wtx_p.(c);
      t.last_wlost_p.(c) <- t.wlost_p.(c);
      t.last_wtx_b.(c) <- t.wtx_b.(c);
      t.last_wdone_b.(c) <- t.wdone_b.(c);
      if sent > 0 then
        let goodput_ratio =
          min 1.0 (float_of_int doneb /. float_of_int (max txb 1))
        in
        Health.observe h ~channel:c ~sent ~lost ~goodput_ratio ()
    done;
    let transitions = Health.sample h ~now in
    List.iter
      (fun tr ->
        match tr with
        | Health.To_quarantine { channel; _ } -> quarantine_channel t channel
        | Health.To_probation { channel; from_quarantine = true } ->
          unquarantine_channel t channel
        | Health.To_probation _ | Health.To_suspect _ | Health.To_healthy _
          ->
          ())
      transitions;
    flush_health_quanta t;
    transitions

let health_retunes t = t.health_retunes
let health_deferred_retunes t = t.health_deferred

let channel_wire_tx t c =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.channel_wire_tx: bad channel";
  t.wtx_p.(c)

let channel_wire_lost t c =
  if c < 0 || c >= t.n_ch then
    invalid_arg "Bundle_pool.channel_wire_lost: bad channel";
  t.wlost_p.(c)

let set_fifo_check_after t time = t.fifo_check_after <- time

let inject_violation t id =
  check_live t id "inject_violation";
  (* Test-only: poison the FIFO monitor's high-water so the very next
     delivery on this slot registers as an ordering violation —
     validates that the always-on monitors actually fire. *)
  t.last_seq.(id) <- max_int

let birth_time t id =
  check_slot t id "birth_time";
  t.birth.(id)

let pushed_packets t id =
  check_slot t id "pushed_packets";
  t.pushed_p.(id)

let pushed_bytes t id =
  check_slot t id "pushed_bytes";
  t.pushed_b.(id)

let delivered_packets t id =
  check_slot t id "delivered_packets";
  t.delivered_p.(id)

let delivered_bytes t id =
  check_slot t id "delivered_bytes";
  t.delivered_b.(id)

let in_flight_packets t id =
  check_slot t id "in_flight_packets";
  let base = id * t.n_ch in
  let total = ref 0 in
  for c = 0 to t.n_ch - 1 do
    let sc = base + c in
    total := !total + Fifo_queue.length t.wire.(sc) - t.drop.(sc)
  done;
  !total

let rx_high_water_packets t id =
  check_slot t id "rx_high_water_packets";
  Resequencer.buffer_high_water_packets t.rx.(id)

let sender_down t id =
  check_slot t id "sender_down";
  t.tx_down.(id)

let receiver_down t id =
  check_slot t id "receiver_down";
  t.rx_down.(id)

let sender_epoch t id =
  check_slot t id "sender_epoch";
  t.tx_epoch.(id)

let carrier_drops t id =
  check_slot t id "carrier_drops";
  t.carrier_dp.(id)

let sender_down_drops t id =
  check_slot t id "sender_down_drops";
  t.tx_down_dp.(id)

let no_channel_drops t id =
  check_slot t id "no_channel_drops";
  t.no_active_dp.(id)

let receiver_down_drops t id =
  check_slot t id "receiver_down_drops";
  t.rx_down_dp.(id)

let rx_wiped_packets t id =
  check_slot t id "rx_wiped_packets";
  t.rx_wiped_p.(id)

let wire_loss_drops t id =
  check_slot t id "wire_loss_drops";
  t.wire_dp.(id)

let wire_busy_until t = Array.fold_left Float.max 0.0 t.busy

let rx_epoch_discards t id =
  check_slot t id "rx_epoch_discards";
  Resequencer.epoch_discards t.rx.(id)

let rx_crash_syncs t id =
  check_slot t id "rx_crash_syncs";
  Resequencer.crash_syncs t.rx.(id)

let rx_resets t id =
  check_slot t id "rx_resets";
  Resequencer.resets t.rx.(id)

let rx_forced_barriers t id =
  check_slot t id "rx_forced_barriers";
  Resequencer.forced_barriers t.rx.(id)

let rx_pending_packets t id =
  check_slot t id "rx_pending_packets";
  Resequencer.pending t.rx.(id)

let rx_channel_dead t id c =
  check_slot t id "rx_channel_dead";
  Resequencer.channel_dead t.rx.(id) c

let rx_watchdog_skips t id =
  check_slot t id "rx_watchdog_skips";
  Resequencer.watchdog_skips t.rx.(id)

let rx_dead_declarations t id =
  check_slot t id "rx_dead_declarations";
  Resequencer.dead_declarations t.rx.(id)

let last_delivery_time t id =
  check_slot t id "last_delivery_time";
  t.last_delivery.(id)

let fifo_violations t id =
  check_slot t id "fifo_violations";
  t.fifo_viol.(id)

let seq_inversions t id =
  check_slot t id "seq_inversions";
  t.ooo.(id)

let total_delivered_packets t = t.total_dp
let total_delivered_bytes t = t.total_db
let markers_sent t = t.markers
let total_fifo_violations t = t.fifo_violations
let first_violation t = t.first_violation
let crashes t = t.n_crashes
let restarts t = t.n_restarts
