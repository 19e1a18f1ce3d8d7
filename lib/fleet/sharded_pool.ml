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

   The same argument lets one shard replay its slots in groups of
   [group_slots], one group after another on one sim and one pool that
   are reset in between. The recorder files each op under its slot's
   group as it records, so a group's tape is contiguous and the replay
   needs no index. A group's working set fits in cache where a whole
   shard's does not, which is most of the replay's cost.

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

(* Slots per replay group, [1 lsl slot_bits]. A group's live state —
   slot engines, resequencers, wires and the sim's pending events —
   stays cache-sized however large the shard is. Picked from a sweep
   over the 25k-bundle churned fleet (DESIGN.md §10, "Replay groups"). *)
let slot_bits = 7
let group_slots = 1 lsl slot_bits

(* One replay group: up to [group_slots] slots of one shard and the tape
   of every op on them, in recording order. An op is its time and one
   word: [(arg lsl (slot_bits + 2)) lor (slot lsl 2) lor kind], where
   [slot] is the group-local index and [arg] the push size or, for an
   acquire, the global acquisition ordinal. *)
type group = {
  mutable at : float array;
  mutable op : int array;
  mutable len : int;
  globals : int array;  (* global slot id of each group-local index *)
  mutable n_slots : int;
}

let group_create () =
  {
    at = Array.make 1024 0.0;
    op = Array.make 1024 0;
    len = 0;
    globals = Array.make group_slots (-1);
    n_slots = 0;
  }

(* Placeholder for slots not yet acquired; never written. *)
let no_group = { at = [||]; op = [||]; len = 0; globals = [||]; n_slots = 0 }

let tape_push g ~op ~at ~slot ~arg =
  if g.len = Array.length g.op then begin
    let grow a zero =
      let b = Array.make (2 * g.len) zero in
      Array.blit a 0 b 0 g.len;
      b
    in
    g.at <- grow g.at 0.0;
    g.op <- grow g.op 0
  end;
  g.at.(g.len) <- at;
  g.op.(g.len) <- (arg lsl (slot_bits + 2)) lor (slot lsl 2) lor op;
  g.len <- g.len + 1

type t = {
  domains : int;
  engine : Sim.engine;
  stamp_seq : bool;
  seed : int;
  config : Bundle_pool.config;
  clock : unit -> float;
  groups : group array array;  (* per shard, in order of first acquire *)
  (* Shadow of Bundle_pool's slot allocator: LIFO free stack, doubling
     growth, new slots stacked lowest-id-first — bit-for-bit the
     assignment the legacy single pool would make. *)
  mutable cap : int;
  mutable free : int array;
  mutable n_free : int;
  mutable live : bool array;
  mutable group_of : group array;
  mutable local_of : int array;
      (* Per global slot: its replay group and its index in it, set at
         its first acquire ([local_of] is -1 until then). *)
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
  t.group_of <- extend no_group t.group_of;
  t.local_of <- extend (-1) t.local_of;
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
      groups = Array.make domains [||];
      cap = 0;
      free = [||];
      live = [||];
      group_of = [||];
      local_of = [||];
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

(* Written so that NaN fails the test too: [at < last_at] is false for
   NaN, and a NaN [last_at] would then let every later time through. *)
let check_at t at op =
  if not (at >= t.last_at) then
    invalid_arg
      (Printf.sprintf "Sharded_pool.%s: %s" op
         (if Float.is_nan at then "time is NaN" else "time runs backwards"));
  t.last_at <- at

(* Append one op to the group tape of slot [id]. A slot's first op is
   its first acquire, which files it in the last group of its shard: a
   new group opens every [group_slots] slots. *)
let record t ~op ~at id ~arg =
  if t.local_of.(id) < 0 then begin
    let shard = shard_of_bundle ~domains:t.domains id in
    let groups = t.groups.(shard) in
    let n = Array.length groups in
    if n = 0 || groups.(n - 1).n_slots = group_slots then
      t.groups.(shard) <- Array.append groups [| group_create () |];
    let g = t.groups.(shard).(Array.length t.groups.(shard) - 1) in
    t.group_of.(id) <- g;
    t.local_of.(id) <- g.n_slots;
    g.globals.(g.n_slots) <- id;
    g.n_slots <- g.n_slots + 1
  end;
  tape_push t.group_of.(id) ~op ~at ~slot:t.local_of.(id) ~arg

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
  record t ~op:op_acquire ~at id ~arg:ordinal;
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
  record t ~op:op_release ~at id ~arg:0

let push t ~at id ~size =
  check_at t at "push";
  check_live t id "push";
  record t ~op:op_push ~at id ~arg:size

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

let earlier a b =
  match (a, b) with
  | None, v | v, None -> v
  | Some (ta, _, _), Some (tb, _, _) -> if tb < ta then b else a

(* One shard's groups, one after another, on one sim and one pool sized
   for a group, both reset at the start of every group. Slots never
   interact, so each slot runs the event sequence it would run sharing a
   sim with every other slot (DESIGN.md §10). *)
let replay t ~shard =
  let groups = t.groups.(shard) in
  let wall0 = t.clock () in
  let cap = Array.fold_left (fun m g -> max m g.n_slots) 1 groups in
  let sim = Sim.create ~engine:t.engine () in
  let rng = Rng.stream ~seed:t.seed shard in
  let pool =
    Bundle_pool.create ~initial_capacity:cap ~stamp_seq:t.stamp_seq ~rng ~sim
      t.config
  in
  let cur_ord = Array.make cap (-1) in
  let gens = ref [] in
  let n_gens = ref 0 in
  let delivered_packets = ref 0 in
  let delivered_bytes = ref 0 in
  let markers_sent = ref 0 in
  let fifo_violations = ref 0 in
  let first_violation = ref None in
  let end_time = ref 0.0 in
  let replay_group (g : group) =
    Sim.reset sim;
    Bundle_pool.reset pool;
    (* One reused event walks the tape: op [!i] fires at its time and
       schedules op [!i + 1] as its last act. *)
    let i = ref 0 in
    let rec fire () =
      let k = !i in
      let w = g.op.(k) in
      let l = (w lsr 2) land (group_slots - 1) in
      let arg = w asr (slot_bits + 2) in
      (match w land 3 with
      | 0 ->
        ignore (Bundle_pool.acquire_slot pool l);
        cur_ord.(l) <- arg
      | 1 ->
        gens :=
          {
            ordinal = cur_ord.(l);
            slot = g.globals.(l);
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
      | _ -> Bundle_pool.push pool l ~size:arg);
      i := k + 1;
      if k + 1 < g.len then Sim.schedule sim ~at:g.at.(k + 1) fire
    in
    if g.len > 0 then Sim.schedule sim ~at:g.at.(0) fire;
    Sim.run sim;
    delivered_packets :=
      !delivered_packets + Bundle_pool.total_delivered_packets pool;
    delivered_bytes := !delivered_bytes + Bundle_pool.total_delivered_bytes pool;
    markers_sent := !markers_sent + Bundle_pool.markers_sent pool;
    fifo_violations :=
      !fifo_violations + Bundle_pool.total_fifo_violations pool;
    (match Bundle_pool.first_violation pool with
    | None -> ()
    | Some (time, l, seq) ->
      first_violation :=
        earlier !first_violation (Some (time, g.globals.(l), seq)));
    end_time := Float.max !end_time (Sim.now sim)
  in
  Array.iter replay_group groups;
  ( {
      shard;
      slots = Array.fold_left (fun n (g : group) -> n + g.n_slots) 0 groups;
      ops = Array.fold_left (fun n (g : group) -> n + g.len) 0 groups;
      generations = !n_gens;
      delivered_packets = !delivered_packets;
      delivered_bytes = !delivered_bytes;
      markers_sent = !markers_sent;
      fifo_violations = !fifo_violations;
      first_violation = !first_violation;
      wall_s = t.clock () -. wall0;
      end_time = !end_time;
    },
    !gens )

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
