(* Sharded bundle-pool fleet: record once, replay in parallel domains.

   The recorder shadows Bundle_pool's slot allocator and files every op
   on the tape of its slot's replay group, cut in order of first
   acquire. [run] assigns whole groups to domains (LPT over their op
   counts); each domain replays its groups one after another on one sim
   and one pool reset in between, and the results merge at one barrier:
   generation tables joined in ordinal order, counters summed, the
   earliest FIFO violation kept. A group's tape, a run of fixed-size
   chunks, is walked by a plain loop that runs the sim up to each op's
   time, so the only event is the pool's one pending landing event.
   Slots never interact, so every group replays the same events at
   every domain count (sharded_pool.mli, DESIGN.md §10). *)

module Sim = Stripe_netsim.Sim
module Rng = Stripe_netsim.Rng
module Parallel = Stripe_netsim.Parallel

let op_acquire = 0
let op_release = 1
let op_push = 2

(* Slots per replay group, [1 lsl slot_bits]. A group's live state —
   slot engines, resequencers and wire rings — stays cache-sized however large the fleet is. Picked from a sweep
   over the 25k-bundle churned fleet (DESIGN.md §10, "Replay groups"). *)
let slot_bits = 7
let group_slots = 1 lsl slot_bits

(* Ops per tape chunk, [1 lsl chunk_bits]. *)
let chunk_bits = 12
let tape_chunk = 1 lsl chunk_bits

(* One replay group: up to [group_slots] slots and the tape of every op
   on them, in recording order. An op is its time and one word:
   [(arg lsl (slot_bits + 2)) lor (slot lsl 2) lor kind], where [slot]
   is the group-local index and [arg] the push size or, for an acquire,
   the global acquisition ordinal. The tape is a run of fixed-size
   chunks, a float array of times and an int array of words each: op
   [k] is entry [k mod tape_chunk] of chunk [k / tape_chunk]. A full
   chunk is never copied: the next op opens a new one, and only the
   chunk tables, one pointer per chunk, grow. *)
type group = {
  mutable at : float array array;  (* chunk tables; unused cells [||] *)
  mutable op : int array array;
  mutable len : int;
  globals : int array;  (* global slot id of each group-local index *)
  mutable n_slots : int;
  mutable n_releases : int;  (* release ops on the tape: its generations *)
}

let group_create () =
  {
    at = [||];
    op = [||];
    len = 0;
    globals = Array.make group_slots (-1);
    n_slots = 0;
    n_releases = 0;
  }

let n_chunks g = (g.len + tape_chunk - 1) lsr chunk_bits

(* Op [g.len] opens chunk [g.len / tape_chunk]. *)
let[@inline never] open_chunk g =
  let c = g.len lsr chunk_bits in
  if c = Array.length g.at then begin
    g.at <- Array.append g.at (Array.make (max 8 c) [||]);
    g.op <- Array.append g.op (Array.make (max 8 c) [||])
  end;
  g.at.(c) <- Array.make tape_chunk 0.0;
  g.op.(c) <- Array.make tape_chunk 0

let[@inline] tape_push g ~op ~at ~slot ~arg =
  let c = g.len lsr chunk_bits and i = g.len land (tape_chunk - 1) in
  if i = 0 then open_chunk g;
  g.at.(c).(i) <- at;
  g.op.(c).(i) <- (arg lsl (slot_bits + 2)) lor (slot lsl 2) lor op;
  g.len <- g.len + 1;
  if op = op_release then g.n_releases <- g.n_releases + 1

type t = {
  domains : int;
  stamp_seq : bool;
  seed : int;
  config : Bundle_pool.config;
  clock : unit -> float;
  mutable groups : group array;  (* in order of first acquire *)
  (* Shadow of Bundle_pool's slot allocator: LIFO free stack, doubling
     growth, new slots stacked lowest-id-first — bit-for-bit the
     assignment the legacy single pool would make. *)
  mutable cap : int;
  mutable free : int array;
  mutable n_free : int;
  mutable live : bool array;
  mutable rank : int array;
      (* Per global slot: its place in first-acquire order, so its group
         is [rank / group_slots] and its index there [rank mod
         group_slots]; -1 until its first acquire. *)
  mutable n_live : int;
  mutable peak_live : int;
  mutable n_acquired : int;
  last_at : float array;
      (* One cell: a float field of this mixed record would box on every
         store, a float-array store does not (as [Sim]'s clock). *)
}

let grow_shadow t cap =
  let extend zero a =
    let b = Array.make cap zero in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.free <- extend 0 t.free;
  t.live <- extend false t.live;
  t.rank <- extend (-1) t.rank;
  (* Stack the new slots so the lowest id comes off first — mirrors
     Bundle_pool.grow_to. *)
  for id = cap - 1 downto t.cap do
    t.free.(t.n_free) <- id;
    t.n_free <- t.n_free + 1
  done;
  t.cap <- cap

(* [engine] is ignored: every simulation runs the calendar; kept until
   ROADMAP item 20 edits [workloads.ml]. *)
let create ?engine:(_ : Sim.engine option) ?(stamp_seq = false)
    ?(initial_capacity = 64) ?(clock = fun () -> 0.0) ~domains ~seed config =
  let domains = Parallel.resolve domains in
  if initial_capacity <= 0 then
    invalid_arg "Sharded_pool.create: initial_capacity must be positive";
  let t =
    {
      domains;
      stamp_seq;
      seed;
      config;
      clock;
      groups = [||];
      cap = 0;
      free = [||];
      live = [||];
      rank = [||];
      n_free = 0;
      n_live = 0;
      peak_live = 0;
      n_acquired = 0;
      last_at = [| neg_infinity |];
    }
  in
  grow_shadow t initial_capacity;
  t

let total_acquired t = t.n_acquired

(* A float and an int per op, for every op of every chunk opened. *)
let tape_bytes t =
  Array.fold_left (fun n g -> n + n_chunks g) 0 t.groups
  * tape_chunk
  * (8 + (Sys.word_size / 8))

(* The error paths are out of line so that the recording calls inline
   and [at] stays unboxed through them. *)
let[@inline never] bad_time op ~nan =
  invalid_arg
    (Printf.sprintf "Sharded_pool.%s: %s" op
       (if nan then "time is NaN" else "time runs backwards"))

(* Written so that NaN fails the test too: [at < last_at] is false for
   NaN, and a NaN [last_at] would then let every later time through. *)
let[@inline] check_at t at op =
  if not (at >= t.last_at.(0)) then bad_time op ~nan:(Float.is_nan at);
  t.last_at.(0) <- at

(* A slot's first op is its first acquire, which files it in the last
   group: a new group opens every [group_slots] slots. *)
let[@inline never] rank_slot t id =
  let n = Array.length t.groups in
  if n = 0 || t.groups.(n - 1).n_slots = group_slots then
    t.groups <- Array.append t.groups [| group_create () |];
  let gi = Array.length t.groups - 1 in
  let g = t.groups.(gi) in
  t.rank.(id) <- (gi * group_slots) + g.n_slots;
  g.globals.(g.n_slots) <- id;
  g.n_slots <- g.n_slots + 1

(* Append one op to the group tape of slot [id]. *)
let[@inline] record t ~op ~at id ~arg =
  if t.rank.(id) < 0 then rank_slot t id;
  let r = t.rank.(id) in
  tape_push t.groups.(r / group_slots) ~op ~at ~slot:(r mod group_slots) ~arg

let[@inline] acquire t ~at =
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

let[@inline never] not_live op id =
  invalid_arg (Printf.sprintf "Sharded_pool.%s: bundle %d is not live" op id)

let[@inline] check_live t id op =
  if id < 0 || id >= t.cap || not t.live.(id) then not_live op id

let[@inline] release t ~at id =
  check_at t at "release";
  check_live t id "release";
  t.live.(id) <- false;
  t.n_live <- t.n_live - 1;
  t.free.(t.n_free) <- id;
  t.n_free <- t.n_free + 1;
  record t ~op:op_release ~at id ~arg:0

let[@inline] push t ~at id ~size =
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

(* Fills a generation table's slots until the replay writes them. *)
let no_gen =
  { ordinal = -1; slot = -1; shard = -1; birth = 0.0; death = 0.0;
    pushed_packets = 0; pushed_bytes = 0; delivered_packets = 0;
    delivered_bytes = 0 }

type shard_report = {
  shard : int;
  groups : int array;
  slots : int;
  ops : int;
  generations : int;
  delivered_packets : int;
  delivered_bytes : int;
  markers_sent : int;
  fifo_violations : int;
  first_violation : (float * int * int) option;
  events : int;
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
  imbalance : float;
}

let earlier a b =
  match (a, b) with
  | None, v | v, None -> v
  | Some (ta, _, _), Some (tb, _, _) -> if tb < ta then b else a

(* LPT over the groups' op counts: largest first (ties to the lower
   group), each to the least-loaded domain (ties to the lower domain).
   Returns each domain's group indices, ascending. *)
let assign ~domains ops =
  let n = Array.length ops in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare ops.(b) ops.(a)) order;
  let load = Array.make domains 0 in
  let owner = Array.make n 0 in
  Array.iter
    (fun g ->
      let d = ref 0 in
      for k = 1 to domains - 1 do
        if load.(k) < load.(!d) then d := k
      done;
      owner.(g) <- !d;
      load.(!d) <- load.(!d) + ops.(g))
    order;
  let plan = Array.make domains [] in
  for g = n - 1 downto 0 do
    plan.(owner.(g)) <- g :: plan.(owner.(g))
  done;
  Array.map Array.of_list plan

(* One domain's groups [ids], one after another, on one sim and one pool
   sized for a group, both reset at the start of every group. Slots
   never interact, so each slot runs the event sequence it would run
   sharing a sim with every other slot (DESIGN.md §10). Each release
   fills the next slot of the shard's generation table, which the
   recorder's release counts size exactly.

   Replay needs no tape event. A replay sim holds at most the pool's
   one pending landing event; landings are not events, and each op
   first lands its slot's packets due by its time, ties included
   ([Bundle_pool]'s settle). A replay runs no watchdog, health engine
   or chaos, so nothing else is scheduled. [Sim.run_until] only has to
   bring the clock to op [k]'s time, firing the pool's event if it is
   due, and op [k] then runs as an op event would. *)
let replay (t : t) ~shard ids =
  let groups = Array.map (fun i -> t.groups.(i)) ids in
  let wall0 = t.clock () in
  let cap = Array.fold_left (fun m g -> max m g.n_slots) 1 groups in
  let sim = Sim.create () in
  let rng = Rng.stream ~seed:t.seed shard in
  let pool =
    Bundle_pool.create ~initial_capacity:cap ~stamp_seq:t.stamp_seq ~rng ~sim
      t.config
  in
  let cur_ord = Array.make cap (-1) in
  let gens =
    Array.make
      (Array.fold_left (fun n (g : group) -> n + g.n_releases) 0 groups)
      no_gen
  in
  let n_gens = ref 0 in
  let delivered_packets = ref 0 in
  let delivered_bytes = ref 0 in
  let markers_sent = ref 0 in
  let fifo_violations = ref 0 in
  let first_violation = ref None in
  let events = ref 0 in
  let end_time = ref 0.0 in
  let replay_group (g : group) =
    Sim.reset sim;
    Bundle_pool.reset pool;
    (* The clock reaches op [k]'s time, then op [k] runs (see "Replay
       needs no tape event" above). *)
    for c = 0 to n_chunks g - 1 do
      let at = g.at.(c) and op = g.op.(c) in
      for k = 0 to min tape_chunk (g.len - (c lsl chunk_bits)) - 1 do
        Sim.run_until sim at.(k);
        let w = op.(k) in
        let l = (w lsr 2) land (group_slots - 1) in
        let arg = w asr (slot_bits + 2) in
        match w land 3 with
        | 0 ->
          ignore (Bundle_pool.acquire_slot pool ~key:g.globals.(l) l);
          cur_ord.(l) <- arg
        | 1 ->
          gens.(!n_gens) <-
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
            };
          incr n_gens;
          Bundle_pool.release pool l
        | _ -> Bundle_pool.push pool l ~size:arg
      done
    done;
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
    events := !events + Sim.events sim;
    end_time := Float.max !end_time (Sim.now sim)
  in
  Array.iter replay_group groups;
  ( {
      shard;
      groups = ids;
      slots = Array.fold_left (fun n (g : group) -> n + g.n_slots) 0 groups;
      ops = Array.fold_left (fun n (g : group) -> n + g.len) 0 groups;
      generations = !n_gens;
      delivered_packets = !delivered_packets;
      delivered_bytes = !delivered_bytes;
      markers_sent = !markers_sent;
      fifo_violations = !fifo_violations;
      first_violation = !first_violation;
      events = !events;
      wall_s = t.clock () -. wall0;
      end_time = !end_time;
    },
    gens )

(* The shards' generation tables joined in ordinal order. Ordinals are
   unique and below [acquired], so one counting pass places each
   report: mark its ordinal, prefix-sum the marks into places, place. *)
let merge_gens ~acquired tables =
  let place = Array.make (acquired + 1) 0 in
  Array.iter (Array.iter (fun g -> place.(g.ordinal + 1) <- 1)) tables;
  for o = 1 to acquired do
    place.(o) <- place.(o) + place.(o - 1)
  done;
  let gens = Array.make place.(acquired) no_gen in
  Array.iter (Array.iter (fun g -> gens.(place.(g.ordinal)) <- g)) tables;
  gens

let run (t : t) =
  let plan =
    assign ~domains:t.domains (Array.map (fun (g : group) -> g.len) t.groups)
  in
  let wall0 = t.clock () in
  let results =
    Parallel.run t.domains (fun k -> replay t ~shard:k plan.(k))
  in
  let wall_s = t.clock () -. wall0 in
  let shards = Array.map fst results in
  let gens = merge_gens ~acquired:t.n_acquired (Array.map snd results) in
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
  let ops = sum (fun s -> s.ops) in
  let max_ops =
    Array.fold_left (fun m (s : shard_report) -> max m s.ops) 0 shards
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
    imbalance =
      (if ops > 0 then
         float_of_int (t.domains * max_ops) /. float_of_int ops
       else 1.0);
  }
