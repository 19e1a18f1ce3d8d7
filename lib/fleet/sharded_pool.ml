(* Sharded bundle-pool fleet: record once, replay in parallel domains.

   The churn workloads that drive a Bundle_pool are protocol-independent
   — which bundle starts when, how long it lives, which live bundle each
   offered packet lands on are all drawn from workload RNG streams that
   never read protocol state. That makes the fleet shardable by
   *recording* the workload as a timestamped op tape (acquire / release
   / push over pool slot ids) and *replaying* disjoint slices of the
   tape in parallel, one OCaml 5 domain per shard, each with its own
   [Netsim.Sim] loop, its own [Rng] stream ([Rng.stream] indexed by
   shard), and its own [Bundle_pool] — no shared mutable protocol state,
   communication only at the final merge barrier.

   The partition is by pool slot id, not by acquisition order: slots are
   the unit of state reuse (a recycled slot bequeaths its successor the
   busy-wire tail the link is still serializing), so giving a shard
   whole slots gives it whole recycling chains. The recorder shadows
   Bundle_pool's allocator exactly (LIFO free stack, doubling growth) to
   learn which slot each acquire would land on; the replay then drives
   that assignment verbatim through [Bundle_pool.acquire_slot]. Because
   slots never interact — wires, resequencers and schedulers are all
   per-slot — each slot's event sequence is identical whatever other
   slots share its sim, and therefore identical for every shard count:
   [--domains 1] reproduces the legacy single-pool run byte-for-byte,
   and [--domains N] merges back to the same protocol aggregates.

   What merges at the barrier: per-generation delivery records (ordered
   by global acquisition ordinal), pool counter totals (sums), marker
   counts (sums), FIFO-monitor verdicts (sum violations, min-time first
   violation), and wall-clock (max + scaling efficiency). Cross-bundle
   delivery ordering is *not* preserved across shards — bundles are
   independent FIFO streams, so no protocol invariant spans them. *)

module Sim = Stripe_netsim.Sim
module Rng = Stripe_netsim.Rng

let op_acquire = 0
let op_release = 1
let op_push = 2

type tape = {
  mutable kind : Bytes.t;
  mutable at : float array;
  mutable slot : int array;
  mutable arg : int array;
      (* push size; for acquire ops the global acquisition ordinal *)
  mutable len : int;
}

let tape_create () =
  {
    kind = Bytes.create 1024;
    at = Array.make 1024 0.0;
    slot = Array.make 1024 0;
    arg = Array.make 1024 0;
    len = 0;
  }

let tape_push tp ~op ~at ~slot ~arg =
  if tp.len = Bytes.length tp.kind then begin
    let n = tp.len in
    let kind = Bytes.create (2 * n) in
    Bytes.blit tp.kind 0 kind 0 n;
    tp.kind <- kind;
    let grow a zero =
      let b = Array.make (2 * n) zero in
      Array.blit a 0 b 0 n;
      b
    in
    tp.at <- grow tp.at 0.0;
    tp.slot <- grow tp.slot 0;
    tp.arg <- grow tp.arg 0
  end;
  Bytes.set_uint8 tp.kind tp.len op;
  tp.at.(tp.len) <- at;
  tp.slot.(tp.len) <- slot;
  tp.arg.(tp.len) <- arg;
  tp.len <- tp.len + 1

type t = {
  domains : int;
  engine : Sim.engine;
  stamp_seq : bool;
  seed : int;
  config : Bundle_pool.config;
  clock : unit -> float;
  tapes : tape array;
  (* Shadow of Bundle_pool's slot allocator: LIFO free stack, doubling
     growth, new slots stacked lowest-id-first — bit-for-bit the
     assignment the legacy single pool would make. *)
  mutable cap : int;
  mutable free : int array;
  mutable n_free : int;
  mutable live : bool array;
  mutable n_live : int;
  mutable peak_live : int;
  mutable n_acquired : int;
  mutable last_at : float;
}

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let shard_of_bundle ~domains id =
  if domains <= 1 then 0
  else
    (* Mix the slot id before reducing: slot ids are dense small ints,
       and a bare modulus would correlate the partition with allocation
       order. The mixed form is still a pure function of (id, domains),
       so a given seed always produces the same partition. *)
    let z = mix64 (Int64.mul (Int64.of_int (id + 1)) 0x9E3779B97F4A7C15L) in
    Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL) mod domains

let auto_domains () = max 1 (Domain.recommended_domain_count ())
let resolve_domains n = if n <= 0 then auto_domains () else n

let split_fleet ~domains ~bundles =
  let counts = Array.make domains 0 in
  for b = 0 to bundles - 1 do
    let s = shard_of_bundle ~domains b in
    counts.(s) <- counts.(s) + 1
  done;
  let parts = Array.map (fun n -> Array.make n 0) counts in
  let fill = Array.make domains 0 in
  for b = 0 to bundles - 1 do
    let s = shard_of_bundle ~domains b in
    parts.(s).(fill.(s)) <- b;
    fill.(s) <- fill.(s) + 1
  done;
  parts

let grow_shadow t cap =
  let extend zero a =
    let b = Array.make cap zero in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.free <- extend 0 t.free;
  t.live <- extend false t.live;
  (* Stack the new slots so the lowest id comes off first — mirrors
     Bundle_pool.grow_to. *)
  for id = cap - 1 downto t.cap do
    t.free.(t.n_free) <- id;
    t.n_free <- t.n_free + 1
  done;
  t.cap <- cap

let create ?(engine = Sim.Heap) ?(stamp_seq = false) ?(initial_capacity = 64)
    ?(clock = fun () -> 0.0) ~domains ~seed config =
  let domains = resolve_domains domains in
  if initial_capacity <= 0 then
    invalid_arg "Sharded_pool.create: initial_capacity must be positive";
  let t =
    {
      domains;
      engine;
      stamp_seq;
      seed;
      config;
      clock;
      tapes = Array.init domains (fun _ -> tape_create ());
      cap = 0;
      free = [||];
      live = [||];
      n_free = 0;
      n_live = 0;
      peak_live = 0;
      n_acquired = 0;
      last_at = neg_infinity;
    }
  in
  grow_shadow t initial_capacity;
  t

let domains t = t.domains
let total_acquired t = t.n_acquired
let live_bundles t = t.n_live
let peak_live t = t.peak_live

let check_at t at op =
  if at < t.last_at then
    invalid_arg (Printf.sprintf "Sharded_pool.%s: time runs backwards" op);
  t.last_at <- at

let acquire t ~at =
  check_at t at "acquire";
  if t.n_free = 0 then grow_shadow t (2 * t.cap);
  t.n_free <- t.n_free - 1;
  let id = t.free.(t.n_free) in
  t.live.(id) <- true;
  t.n_live <- t.n_live + 1;
  if t.n_live > t.peak_live then t.peak_live <- t.n_live;
  let ordinal = t.n_acquired in
  t.n_acquired <- t.n_acquired + 1;
  let shard = shard_of_bundle ~domains:t.domains id in
  tape_push t.tapes.(shard) ~op:op_acquire ~at ~slot:id ~arg:ordinal;
  id

let check_live t id op =
  if id < 0 || id >= t.cap || not t.live.(id) then
    invalid_arg (Printf.sprintf "Sharded_pool.%s: bundle %d is not live" op id)

let release t ~at id =
  check_at t at "release";
  check_live t id "release";
  t.live.(id) <- false;
  t.n_live <- t.n_live - 1;
  t.free.(t.n_free) <- id;
  t.n_free <- t.n_free + 1;
  let shard = shard_of_bundle ~domains:t.domains id in
  tape_push t.tapes.(shard) ~op:op_release ~at ~slot:id ~arg:0

let push t ~at id ~size =
  check_at t at "push";
  check_live t id "push";
  let shard = shard_of_bundle ~domains:t.domains id in
  tape_push t.tapes.(shard) ~op:op_push ~at ~slot:id ~arg:size

(* --- replay ----------------------------------------------------------- *)

type gen_report = {
  ordinal : int;
  slot : int;
  shard : int;
  birth : float;
  death : float;
  pushed_packets : int;
  pushed_bytes : int;
  delivered_packets : int;
  delivered_bytes : int;
}

type shard_report = {
  shard : int;
  slots : int;
  ops : int;
  generations : int;
  delivered_packets : int;
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;
  wall_s : float;
  end_time : float;
}

type report = {
  domains : int;
  shards : shard_report array;
  gens : gen_report array;
  acquired : int;
  peak_live : int;
  delivered_packets : int;
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;
  wall_s : float;
  end_time : float;
  efficiency : float;
}

let replay t ~shard =
  let tp = t.tapes.(shard) in
  let wall0 = t.clock () in
  (* Dense local ids for the global slots this shard owns; a slot's
     first op is necessarily its first acquire. *)
  let local_of_global = Array.make (max 1 t.cap) (-1) in
  let n_slots = ref 0 in
  for i = 0 to tp.len - 1 do
    if Bytes.get_uint8 tp.kind i = op_acquire then begin
      let g = tp.slot.(i) in
      if local_of_global.(g) < 0 then begin
        local_of_global.(g) <- !n_slots;
        incr n_slots
      end
    end
  done;
  let global_of_local = Array.make (max 1 !n_slots) (-1) in
  Array.iteri
    (fun g l -> if l >= 0 then global_of_local.(l) <- g)
    local_of_global;
  let sim = Sim.create ~engine:t.engine () in
  let rng = Rng.stream ~seed:t.seed shard in
  let pool =
    Bundle_pool.create ~initial_capacity:(max 1 !n_slots)
      ~stamp_seq:t.stamp_seq ~rng ~sim t.config
  in
  let cur_ord = Array.make (max 1 !n_slots) (-1) in
  let gens = ref [] in
  let n_gens = ref 0 in
  (* One reused event walks the tape: op [!i] fires at its time and
     schedules op [!i + 1] as its last act. *)
  let i = ref 0 in
  let rec fire () =
    let k = !i in
    let g = tp.slot.(k) in
    let l = local_of_global.(g) in
    (match Bytes.get_uint8 tp.kind k with
    | 0 ->
      ignore (Bundle_pool.acquire_slot pool l);
      cur_ord.(l) <- tp.arg.(k)
    | 1 ->
      gens :=
        {
          ordinal = cur_ord.(l);
          slot = g;
          shard;
          birth = Bundle_pool.birth_time pool l;
          death = Sim.now sim;
          pushed_packets = Bundle_pool.pushed_packets pool l;
          pushed_bytes = Bundle_pool.pushed_bytes pool l;
          delivered_packets = Bundle_pool.delivered_packets pool l;
          delivered_bytes = Bundle_pool.delivered_bytes pool l;
        }
        :: !gens;
      incr n_gens;
      Bundle_pool.release pool l
    | _ -> Bundle_pool.push pool l ~size:tp.arg.(k));
    i := k + 1;
    if k + 1 < tp.len then Sim.schedule sim ~at:tp.at.(k + 1) fire
  in
  if tp.len > 0 then Sim.schedule sim ~at:tp.at.(0) fire;
  Sim.run sim;
  let first_violation =
    match Bundle_pool.first_violation pool with
    | None -> None
    | Some (time, l, seq) -> Some (time, global_of_local.(l), seq)
  in
  ( {
      shard;
      slots = !n_slots;
      ops = tp.len;
      generations = !n_gens;
      delivered_packets = Bundle_pool.total_delivered_packets pool;
      delivered_bytes = Bundle_pool.total_delivered_bytes pool;
      markers_sent = Bundle_pool.markers_sent pool;
      fifo_violations = Bundle_pool.total_fifo_violations pool;
      first_violation;
      wall_s = t.clock () -. wall0;
      end_time = Sim.now sim;
    },
    !gens )

let earlier a b =
  match (a, b) with
  | None, v | v, None -> v
  | Some (ta, _, _), Some (tb, _, _) -> if tb < ta then b else a

let run t =
  let wall0 = t.clock () in
  let results =
    if t.domains = 1 then [| replay t ~shard:0 |]
    else begin
      let workers =
        Array.init (t.domains - 1) (fun k ->
            Domain.spawn (fun () -> replay t ~shard:(k + 1)))
      in
      let own = replay t ~shard:0 in
      Array.append [| own |] (Array.map Domain.join workers)
    end
  in
  let wall_s = t.clock () -. wall0 in
  let shards = Array.map fst results in
  let gens =
    Array.of_list (List.concat_map (fun (_, gs) -> gs) (Array.to_list results))
  in
  Array.sort (fun a b -> compare a.ordinal b.ordinal) gens;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let maxf f = Array.fold_left (fun acc s -> Float.max acc (f s)) 0.0 shards in
  let sum_wall =
    Array.fold_left (fun acc (s : shard_report) -> acc +. s.wall_s) 0.0 shards
  in
  let first_violation =
    Array.fold_left
      (fun acc (s : shard_report) -> earlier acc s.first_violation)
      None shards
  in
  {
    domains = t.domains;
    shards;
    gens;
    acquired = t.n_acquired;
    peak_live = t.peak_live;
    delivered_packets = sum (fun s -> s.delivered_packets);
    delivered_bytes = sum (fun s -> s.delivered_bytes);
    markers_sent = sum (fun s -> s.markers_sent);
    fifo_violations = sum (fun s -> s.fifo_violations);
    first_violation;
    wall_s;
    end_time = maxf (fun s -> s.end_time);
    efficiency =
      (if wall_s > 0.0 then sum_wall /. (float_of_int t.domains *. wall_s)
       else 1.0);
  }
