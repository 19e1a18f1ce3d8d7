(* The four workloads of the striping benchmark; README.md says why each
   one is there.

   A workload is set up from a seed, which makes its inputs (the packet
   sizes of a bundle run, the op tape of a fleet run) and builds what the
   measured path needs. Then:
   - [e2e] runs the path the end-to-end metrics time, once;
   - [drive] runs the same protocol work again through the benchmark's
     own step loop. Given a span recorder, it brackets every call the
     benchmark makes into a layer's public function, so layer costs are
     measured from outside the library.
   Both return the run's simulated results ([exact]), which depend on
   the seed alone: any two runs of one set-up must agree on them. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let clock_s () = float_of_int (Span.now_ns ()) *. 1e-9

(* Processor time of the whole process, all domains. Unlike wall time it
   leaves out the time the host took the processor away (steal), which
   on a shared virtual machine moves wall-clock rates by up to 2x. *)
let cpu_s = Sys.time

(* Layers the benchmark times. [sim] is the root span around a traced
   run: its self time is the event loop, the event queue, and the event
   handlers no other span covers. *)
let l_sim = 0
let l_workload = 1
let l_striper = 2
let l_link = 3
let l_reseq = 4
let l_deliver = 5
let l_pool_push = 6
let l_pool_acquire = 7
let l_pool_release = 8

let layer_names =
  [|
    "sim";
    "workload";
    "striper.push";
    "link.send";
    "resequencer.receive";
    "deliver";
    "pool.push";
    "pool.acquire";
    "pool.release";
  |]

let[@inline] enter tr l = match tr with None -> () | Some t -> Span.enter t l
let[@inline] leave tr = match tr with None -> () | Some t -> Span.exit t

type exact = {
  pushed : int;  (** Data packets offered. *)
  delivered : int;
  delivered_bytes : int;
  markers : int;
  sim_seconds : float;  (** When the run's last event fired. *)
  offered_s : float;  (** When the last packet was offered. *)
  failed : int;
      (** Offered packets the protocol itself lost or refused: not
          delivered, yet neither taken by the injected channel loss nor
          discarded with a closed bundle's in-flight tail. *)
  latency_p50_ms : float;  (** Bundles only: delivery time - [born]. *)
  latency_p99_ms : float;
  latency_p999_ms : float;
  seq_inversions : int;  (** Bundles only. *)
  share_err_p50 : float;  (** Fleets only (see [share_errors]). *)
  share_err_p99 : float;
  gen_bytes : int array;  (** Fleets only: delivered bytes per generation. *)
}

type gc_delta = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type sharded = {
  shard_wall_max_s : float;
  shard_wall_min_s : float;
  efficiency : float;
  merge_s : float;
}

type section = {
  exact : exact;
  gc : gc_delta;
  skips : int;
  high_water : int;
  reorder_depth_max : int;
  slots : int;
  events : int;  (** Simulation events, counted by traced runs only. *)
  sharded : sharded option;
}

type instance = {
  inputs_s : float;  (** Set-up processor time spent making the inputs. *)
  e2e : unit -> section;
  drive : Span.t option -> section;
}

type t = {
  name : string;
  lossless : bool;
      (** One lossless bundle: Thm 4.1 says every packet arrives, in
          order. *)
  sharded : bool;
      (** The end-to-end path is the sharded replay, not the benchmark's
          own drive, so each invocation also drives one pool directly as
          the reference the replay must agree with. *)
  setup : seed:int -> scale:float -> instance;
      (** [scale] multiplies the amount of work (1.0 = full size). *)
}

(* Times [f] from a compacted heap. The GC counters are read after a
   minor collection, outside the timed span: it flushes this domain's
   allocation into the totals, which already hold what finished domains
   allocated. *)
let timed f =
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = clock_s () in
  f ();
  let wall_s = clock_s () -. t0 in
  let cpu_s = cpu_s () -. c0 in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  {
    wall_s;
    cpu_s;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* Runs [sim] to completion, untraced, or traced inside a root span;
   returns the number of events run when traced, 0 otherwise. *)
let run_sim tr sim =
  match tr with
  | None ->
    Sim.run sim;
    0
  | Some t ->
    Span.enter t l_sim;
    let events = ref 0 in
    while Sim.step sim do
      incr events
    done;
    Span.exit t;
    !events

(* Delivery latencies, bucketed by the top bits of their IEEE
   representation: 2^sub_bits buckets per octave (under 1% error), no
   allocation, and exact agreement between runs that deliver alike. *)
module Latency = struct
  let sub_bits = 7
  let shift = 52 - sub_bits
  let[@inline] key x = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) shift)
  let lo = key 1e-9
  let hi = key 1e3
  let create () = Array.make (hi - lo + 1) 0

  let[@inline] add h x =
    let k = key x - lo in
    let k = if k < 0 then 0 else if k > hi - lo then hi - lo else k in
    h.(k) <- h.(k) + 1

  (* The lower edge of the bucket holding the [p]-quantile. *)
  let percentile h p =
    let n = Array.fold_left ( + ) 0 h in
    if n = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
      let rec find i acc =
        let acc = acc + h.(i) in
        if acc >= rank then i else find (i + 1) acc
      in
      Int64.float_of_bits
        (Int64.shift_left (Int64.of_int (find 0 0 + lo)) shift)
    end
end

(* --- one striped bundle ------------------------------------------------ *)

type bundle = {
  rates : float array;
  delays : float array;
  marker_every : int;
  loss : (int * float) option;  (** Bernoulli loss on one channel. *)
  small : int;
  large : int;  (** Sizes drawn 50/50; equal for a fixed size. *)
  packets : int;
}

let delays = [| 0.001; 0.002; 0.005; 0.010 |]
let load = 0.9

let bundle_bimodal =
  {
    rates = Array.make 4 10e6;
    delays;
    marker_every = 4;
    loss = None;
    small = 200;
    large = 1000;
    packets = 3_000_000;
  }

let bundle_lossy_min =
  {
    rates = [| 10e6; 10e6; 5e6; 2.5e6 |];
    delays;
    marker_every = 1;
    loss = Some (2, 0.01);
    small = 64;
    large = 64;
    packets = 3_000_000;
  }

type rx_stats = {
  mutable delivered : int;
  mutable bytes : int;
  mutable arrived : int;  (* data packets that reached the resequencer *)
  mutable max_seq : int;
  mutable inversions : int;
}

(* Packet sizes as 16-bit words: the inputs, made once per set-up. *)
let make_sizes cfg ~seed n =
  let gen =
    Stripe_workload.Genpkt.bimodal ~rng:(Rng.stream ~seed 0) ~small:cfg.small
      ~large:cfg.large ()
  in
  let sizes = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    Bytes.set_uint16_le sizes (2 * i) (gen ())
  done;
  sizes

(* Builds the bundle and schedules its open-loop source; the returned
   function runs it to completion. *)
let build_bundle cfg ~seed ~sizes tr =
  let n = Bytes.length sizes / 2 in
  let nch = Array.length cfg.rates in
  let sim = Sim.create ~engine:Sim.Calendar () in
  let srr = Srr.for_rates ~rates_bps:cfg.rates ~quantum_unit:1500 () in
  let st = { delivered = 0; bytes = 0; arrived = 0; max_seq = -1; inversions = 0 } in
  let lat = Latency.create () in
  let on_deliver (pkt : Packet.t) =
    st.delivered <- st.delivered + 1;
    st.bytes <- st.bytes + pkt.size;
    if pkt.seq < st.max_seq then st.inversions <- st.inversions + 1
    else st.max_seq <- pkt.seq;
    Latency.add lat (Sim.now sim -. pkt.born)
  in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial srr)
      ~now:(fun () -> Sim.now sim)
      ~deliver:(fun ~channel:_ pkt ->
        enter tr l_deliver;
        on_deliver pkt;
        leave tr)
      ()
  in
  let links =
    Array.init nch (fun i ->
        let loss =
          match cfg.loss with
          | Some (c, p) when c = i -> Loss.bernoulli ~p
          | _ -> Loss.none ()
        in
        Link.create sim ~rate_bps:cfg.rates.(i) ~prop_delay:cfg.delays.(i)
          ~rng:(Rng.stream ~seed (i + 1))
          ~loss
          ~deliver:(fun (pkt : Packet.t) ->
            (match pkt.kind with
            | Packet.Data -> st.arrived <- st.arrived + 1
            | Packet.Marker _ -> ());
            enter tr l_reseq;
            Resequencer.receive reseq ~channel:i pkt;
            leave tr)
          ())
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" srr)
      ~marker:(Marker.make ~every_rounds:cfg.marker_every ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        enter tr l_link;
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt);
        leave tr)
      ()
  in
  let mean_size = float_of_int (cfg.small + cfg.large) /. 2.0 in
  let interval =
    mean_size *. 8.0 /. (Array.fold_left ( +. ) 0.0 cfg.rates *. load)
  in
  let next = ref 0 in
  let last_offer = Float.Array.make 1 0.0 in
  let rec tick () =
    enter tr l_workload;
    let i = !next in
    next := i + 1;
    let pkt =
      Packet.data ~seq:i ~born:(Sim.now sim)
        ~size:(Bytes.get_uint16_le sizes (2 * i))
        ()
    in
    enter tr l_striper;
    Striper.push striper pkt;
    leave tr;
    if i + 1 < n then Sim.schedule_after sim ~delay:interval tick
    else Float.Array.set last_offer 0 (Sim.now sim);
    leave tr
  in
  Sim.schedule sim ~at:0.0 tick;
  fun () ->
    let events = ref 0 in
    let gc =
      timed (fun () -> events := run_sim tr sim)
    in
    let ms p = 1e3 *. Latency.percentile lat p in
    let exact =
      {
        pushed = n;
        delivered = st.delivered;
        delivered_bytes = st.bytes;
        markers = Striper.markers_sent striper;
        sim_seconds = Sim.now sim;
        offered_s = Float.Array.get last_offer 0;
        failed =
          st.arrived - st.delivered - Resequencer.pending reseq
          + Striper.undispatched_drops striper;
        latency_p50_ms = ms 0.5;
        latency_p99_ms = ms 0.99;
        latency_p999_ms = ms 0.999;
        seq_inversions = st.inversions;
        share_err_p50 = 0.0;
        share_err_p99 = 0.0;
        gen_bytes = [||];
      }
    in
    {
      exact;
      gc;
      skips = Resequencer.skips reseq;
      high_water = Resequencer.buffer_high_water_packets reseq;
      reorder_depth_max = Resequencer.reorder_depth_max reseq;
      slots = 0;
      events = !events;
      sharded = None;
    }

let bundle_setup cfg ~seed ~scale =
  let t0 = cpu_s () in
  let n = max 1 (int_of_float (float_of_int cfg.packets *. scale)) in
  let sizes = make_sizes cfg ~seed n in
  let inputs_s = cpu_s () -. t0 in
  let e2e = build_bundle cfg ~seed ~sizes None in
  { inputs_s; e2e; drive = (fun tr -> build_bundle cfg ~seed ~sizes tr ()) }

(* --- a churned fleet of bundles ----------------------------------------- *)

(* The exp_fleet scenario: 4-channel SRR bundles under Poisson churn
   (steady population arrival_rate * mean_life), with a fleet-wide
   Poisson stream of bimodal packets sprayed over the live bundles. *)
let fleet_bundles = 25_000
let arrival_rate = 2000.0
let mean_life = 0.5
let packet_rate = 100_000.0

(* Shorter-lived bundles' goodput is too noisy to count as a share. *)
let min_measured_life = 0.02

let fleet_config =
  let rates = [| 10e6; 10e6; 5e6; 2.5e6 |] in
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta = Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ();
    marker_every = 4;
    guard = false;
    discipline = Bundle_pool.Srr;
  }

let op_acquire = 0
let op_release = 1
let op_push = 2

(* The recorded ops again, for the direct drive: [arg] is the acquire's
   ordinal or the push's size. *)
type tape = {
  mutable len : int;
  mutable at : Float.Array.t;
  mutable kind : Bytes.t;
  mutable slot : int array;
  mutable arg : int array;
  mutable pushes : int;
  mutable max_slot : int;
}

let tape_add tp ~kind ~at ~slot ~arg =
  if tp.len = Array.length tp.slot then begin
    let cap = 2 * tp.len in
    let at' = Float.Array.make cap 0.0 in
    Float.Array.blit tp.at 0 at' 0 tp.len;
    tp.at <- at';
    tp.kind <- Bytes.extend tp.kind 0 tp.len;
    tp.slot <- Array.append tp.slot tp.slot;
    tp.arg <- Array.append tp.arg tp.arg
  end;
  Float.Array.set tp.at tp.len at;
  Bytes.set_uint8 tp.kind tp.len kind;
  tp.slot.(tp.len) <- slot;
  tp.arg.(tp.len) <- arg;
  tp.len <- tp.len + 1;
  if kind = op_push then tp.pushes <- tp.pushes + 1;
  if slot > tp.max_slot then tp.max_slot <- slot

(* Generates the churn once, recording it both into a Sharded_pool and
   into a tape; this is the fleet's set-up. *)
let record_fleet ~seed ~bundles ~domains =
  let gsim = Sim.create ~engine:Sim.Heap () in
  let rng = Rng.create seed in
  let arrivals_rng = Rng.split rng in
  let life_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let pool =
    Sharded_pool.create ~engine:Sim.Calendar ~clock:clock_s ~domains ~seed
      fleet_config
  in
  let tp =
    {
      len = 0;
      at = Float.Array.make 1024 0.0;
      kind = Bytes.create 1024;
      slot = Array.make 1024 0;
      arg = Array.make 1024 0;
      pushes = 0;
      max_slot = 0;
    }
  in
  let gen_size =
    Stripe_workload.Genpkt.bimodal ~rng:size_rng ~small:200 ~large:1000 ()
  in
  (* Dense table of live ids for O(1) uniform picks; [pos] maps an id
     back to its index for swap-removal. *)
  let ids = ref (Array.make 1024 0) in
  let pos = ref (Array.make 1024 (-1)) in
  let n_ids = ref 0 in
  let add_live id =
    if !n_ids = Array.length !ids then ids := Array.append !ids !ids;
    !ids.(!n_ids) <- id;
    if id >= Array.length !pos then begin
      let bigger = Array.make (2 * (id + 1)) (-1) in
      Array.blit !pos 0 bigger 0 (Array.length !pos);
      pos := bigger
    end;
    !pos.(id) <- !n_ids;
    incr n_ids
  in
  let remove_live id =
    let i = !pos.(id) in
    let last = !ids.(!n_ids - 1) in
    !ids.(i) <- last;
    !pos.(last) <- i;
    !pos.(id) <- -1;
    decr n_ids
  in
  let arrivals_done = ref false in
  let start_bundle () =
    let at = Sim.now gsim in
    let ordinal = Sharded_pool.total_acquired pool in
    let id = Sharded_pool.acquire pool ~at in
    tape_add tp ~kind:op_acquire ~at ~slot:id ~arg:ordinal;
    add_live id;
    let life = Rng.exponential life_rng ~mean:mean_life in
    Sim.schedule_after gsim ~delay:life (fun () ->
        let at = Sim.now gsim in
        remove_live id;
        Sharded_pool.release pool ~at id;
        tape_add tp ~kind:op_release ~at ~slot:id ~arg:0)
  in
  let rec arrival_tick () =
    if Sharded_pool.total_acquired pool < bundles then begin
      start_bundle ();
      Sim.schedule_after gsim
        ~delay:(Rng.exponential arrivals_rng ~mean:(1.0 /. arrival_rate))
        arrival_tick
    end
    else arrivals_done := true
  in
  let rec traffic_tick () =
    (* Traffic stops with the arrivals. Sprayed over the draining tail
       population, it would overload the last few bundles and make the
       run's length and losses hinge on the longest lifetime drawn. *)
    if not !arrivals_done then begin
      if !n_ids > 0 then begin
        let at = Sim.now gsim in
        let id = !ids.(Rng.int traffic_rng !n_ids) in
        let size = gen_size () in
        Sharded_pool.push pool ~at id ~size;
        tape_add tp ~kind:op_push ~at ~slot:id ~arg:size
      end;
      Sim.schedule_after gsim
        ~delay:(Rng.exponential traffic_rng ~mean:(1.0 /. packet_rate))
        traffic_tick
    end
  in
  (* Warm start at the steady-state population, leaving at least half
     the bundles to arrive by churn. *)
  for _ = 1 to min (int_of_float (arrival_rate *. mean_life)) (bundles / 2) do
    start_bundle ()
  done;
  arrival_tick ();
  traffic_tick ();
  Sim.run gsim;
  (pool, tp)

(* Per-generation relative share error |rate/mean - 1|, over generations
   in ordinal order; returns the p50 and p99. Every bundle runs the same
   configuration under the same arrival statistics, so a scheduling bug
   that starves recycled slots shows up as a p99 step. *)
let share_errors ~lives ~bytes =
  let rates =
    List.filter_map
      (fun (life, b) ->
        if life >= min_measured_life then Some (float_of_int b /. life)
        else None)
      (List.combine lives bytes)
  in
  let n = List.length rates in
  if n = 0 then (0.0, 0.0)
  else begin
    let mean = List.fold_left ( +. ) 0.0 rates /. float_of_int n in
    let e = Array.of_list (List.map (fun r -> Float.abs ((r /. mean) -. 1.0)) rates) in
    Array.sort compare e;
    let pct p = e.(min (n - 1) (int_of_float (p *. float_of_int (n - 1)))) in
    (pct 0.50, pct 0.99)
  end

let last_push_at tp =
  let rec back k =
    if k < 0 then 0.0
    else if Bytes.get_uint8 tp.kind k = op_push then Float.Array.get tp.at k
    else back (k - 1)
  in
  back (tp.len - 1)

let fleet_exact tp ~accepted ~delivered ~delivered_bytes ~markers ~sim_seconds
    ~lives ~bytes =
  let p50, p99 = share_errors ~lives ~bytes in
  {
    pushed = tp.pushes;
    delivered;
    delivered_bytes;
    markers;
    sim_seconds;
    offered_s = last_push_at tp;
    failed = tp.pushes - accepted;
    latency_p50_ms = 0.0;
    latency_p99_ms = 0.0;
    latency_p999_ms = 0.0;
    seq_inversions = 0;
    share_err_p50 = p50;
    share_err_p99 = p99;
    gen_bytes = Array.of_list bytes;
  }

let sharded_section pool tp =
  let report = ref None in
  let gc = timed (fun () -> report := Some (Sharded_pool.run pool)) in
  let r = Option.get !report in
  let gens = Array.to_list r.Sharded_pool.gens in
  let walls = Array.map (fun (s : Sharded_pool.shard_report) -> s.wall_s) r.shards in
  {
    exact =
      fleet_exact tp
        ~accepted:
          (List.fold_left
             (fun acc (g : Sharded_pool.gen_report) -> acc + g.pushed_packets)
             0 gens)
        ~delivered:r.delivered_packets ~delivered_bytes:r.delivered_bytes
        ~markers:r.markers_sent ~sim_seconds:r.end_time
        ~lives:(List.map (fun (g : Sharded_pool.gen_report) -> g.death -. g.birth) gens)
        ~bytes:(List.map (fun (g : Sharded_pool.gen_report) -> g.delivered_bytes) gens);
    gc;
    skips = 0;
    high_water = 0;
    reorder_depth_max = 0;
    slots =
      Array.fold_left (fun acc (s : Sharded_pool.shard_report) -> acc + s.slots) 0 r.shards;
    events = 0;
    sharded =
      Some
        {
          shard_wall_max_s = Array.fold_left Float.max 0.0 walls;
          shard_wall_min_s = Array.fold_left Float.min infinity walls;
          efficiency = r.efficiency;
          merge_s = gc.wall_s -. r.wall_s;
        };
  }

(* Replays the tape on one Sim and one Bundle_pool, the way a shard
   does, acquiring through the pool's own allocator: the recorder's
   shadow allocator must have predicted every slot, and a misprediction
   counts as a failed op. *)
let drive_fleet tp ~seed ~bundles tr =
  let sim = Sim.create ~engine:Sim.Calendar () in
  let pool = Bundle_pool.create ~rng:(Rng.stream ~seed 0) ~sim fleet_config in
  let birth = Float.Array.make bundles 0.0 in
  let death = Float.Array.make bundles 0.0 in
  let gen_bytes = Array.make bundles (-1) in
  let accepted = ref 0 in
  let mispredicted = ref 0 in
  let high_water = ref 0 in
  let ordinal = Array.make (tp.max_slot + 1) 0 in
  let next = ref 0 in
  let rec pump () =
    enter tr l_workload;
    let k = !next in
    let s = tp.slot.(k) in
    let kind = Bytes.get_uint8 tp.kind k in
    if kind = op_acquire then begin
      enter tr l_pool_acquire;
      let id = Bundle_pool.acquire pool in
      leave tr;
      if id <> s then incr mispredicted;
      ordinal.(s) <- tp.arg.(k)
    end
    else if kind = op_release then begin
      let o = ordinal.(s) in
      Float.Array.set birth o (Bundle_pool.birth_time pool s);
      Float.Array.set death o (Sim.now sim);
      gen_bytes.(o) <- Bundle_pool.delivered_bytes pool s;
      accepted := !accepted + Bundle_pool.pushed_packets pool s;
      high_water := max !high_water (Bundle_pool.rx_high_water_packets pool s);
      enter tr l_pool_release;
      Bundle_pool.release pool s;
      leave tr
    end
    else begin
      enter tr l_pool_push;
      Bundle_pool.push pool s ~size:tp.arg.(k);
      leave tr
    end;
    next := k + 1;
    if k + 1 < tp.len then Sim.schedule sim ~at:(Float.Array.get tp.at (k + 1)) pump;
    leave tr
  in
  if tp.len > 0 then Sim.schedule sim ~at:(Float.Array.get tp.at 0) pump;
  let events = ref 0 in
  let gc =
    timed (fun () -> events := run_sim tr sim)
  in
  let released = List.filter (fun o -> gen_bytes.(o) >= 0) (List.init bundles Fun.id) in
  {
    exact =
      fleet_exact tp
        ~accepted:(!accepted - !mispredicted)
        ~delivered:(Bundle_pool.total_delivered_packets pool)
        ~delivered_bytes:(Bundle_pool.total_delivered_bytes pool)
        ~markers:(Bundle_pool.markers_sent pool) ~sim_seconds:(Sim.now sim)
        ~lives:
          (List.map
             (fun o -> Float.Array.get death o -. Float.Array.get birth o)
             released)
        ~bytes:(List.map (fun o -> gen_bytes.(o)) released);
    gc;
    skips = 0;
    high_water = !high_water;
    reorder_depth_max = 0;
    slots = Bundle_pool.capacity pool;
    events = !events;
    sharded = None;
  }

let fleet_setup ~domains ~seed ~scale =
  let t0 = cpu_s () in
  let bundles = max 1 (int_of_float (float_of_int fleet_bundles *. scale)) in
  let pool, tp = record_fleet ~seed ~bundles ~domains in
  let inputs_s = cpu_s () -. t0 in
  {
    inputs_s;
    e2e = (fun () -> sharded_section pool tp);
    drive = drive_fleet tp ~seed ~bundles;
  }

let all =
  [
    {
      name = "bundle-bimodal";
      lossless = true;
      sharded = false;
      setup = bundle_setup bundle_bimodal;
    };
    {
      name = "bundle-lossy-min";
      lossless = false;
      sharded = false;
      setup = bundle_setup bundle_lossy_min;
    };
    {
      name = "fleet-churn";
      lossless = false;
      sharded = true;
      setup = fleet_setup ~domains:1;
    };
    {
      name = "fleet-churn-d2";
      lossless = false;
      sharded = true;
      setup = fleet_setup ~domains:2;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
