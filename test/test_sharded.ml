(* Tests for the sharded-fleet layer: the merge algebra must be
   partition-invariant (counters, recovery intervals, monitor verdicts),
   and Sharded_pool must honor its determinism contract — domains = 1
   replays exactly like a directly driven single pool, and any domain
   count merges to the same protocol aggregates. *)

open Stripe_netsim
module Counters = Stripe_obs.Counters
module Event = Stripe_obs.Event
module Monitor = Stripe_obs.Monitor
module Recovery = Stripe_metrics.Recovery
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let n_channels = 4

(* Channel-scoped event kinds only: partitioning by channel keeps each
   channel's whole stream (including the clamped buffered-bytes gauge
   arithmetic) inside one registry, which is the exactness condition
   Counters.merge_into documents. *)
let kinds =
  [|
    Event.Enqueue; Event.Deliver; Event.Transmit; Event.Drop; Event.Arrival;
    Event.Marker_sent; Event.Marker_applied; Event.Skip; Event.Channel_down;
    Event.Watchdog_skip; Event.Suspend; Event.Dup_discard; Event.Quarantine;
  |]

let counters_equal a b =
  Counters.n_channels a = Counters.n_channels b
  && Counters.resets a = Counters.resets b
  && Counters.rounds a = Counters.rounds b
  && Counters.events_seen a = Counters.events_seen b
  && Counters.no_channel_drops a = Counters.no_channel_drops b
  && List.for_all
       (fun c -> Counters.channel a c = Counters.channel b c)
       (List.init (Counters.n_channels a) Fun.id)

let prop_counters_partition_merge =
  QCheck.Test.make
    ~name:"counters: merge over any channel partition = unsharded" ~count:100
    QCheck.(
      pair (Arb.int_range 1 4)
        (small_list
           (triple
              (int_range 0 (Array.length kinds - 1))
              (int_range 0 (n_channels - 1))
              (Arb.int_range 1 1500))))
    (fun (shards, evs) ->
      let whole = Counters.create ~n:n_channels in
      let parts = Array.init shards (fun _ -> Counters.create ~n:n_channels) in
      List.iteri
        (fun i (k, c, size) ->
          let e =
            Event.v ~channel:c ~size ~seq:i
              ~time:(float_of_int i *. 1e-3)
              kinds.(k)
          in
          Counters.observe whole e;
          Counters.observe parts.(c mod shards) e)
        evs;
      counters_equal whole (Counters.merged (Array.to_list parts)))

let prop_recovery_partition_merge =
  QCheck.Test.make ~name:"recovery: interval union is partition-invariant"
    ~count:100
    QCheck.(
      pair (Arb.int_range 1 4)
        (small_list (pair (int_range 0 1000) (Arb.int_range 1 150))))
    (fun (shards, raw) ->
      let outages =
        List.map
          (fun (s, d) ->
            (float_of_int s /. 10.0, float_of_int (s + d) /. 10.0))
          raw
      in
      let parts = Array.make shards [] in
      List.iteri (fun i iv -> parts.(i mod shards) <- iv :: parts.(i mod shards)) outages;
      Recovery.merge_parts [ outages ]
      = Recovery.merge_parts (Array.to_list parts))

let test_verdict_merge () =
  let a =
    {
      Monitor.violations = 2;
      seq_inversions = 5;
      first_violation = Some (3.0, "a");
      events_seen = 100;
    }
  in
  let b =
    {
      Monitor.violations = 1;
      seq_inversions = 0;
      first_violation = Some (1.5, "b");
      events_seen = 40;
    }
  in
  let c =
    {
      Monitor.violations = 0;
      seq_inversions = 7;
      first_violation = None;
      events_seen = 1;
    }
  in
  let m = Monitor.merged_verdict [ a; b; c ] in
  Alcotest.(check int) "violations sum" 3 m.Monitor.violations;
  Alcotest.(check int) "inversions sum" 12 m.Monitor.seq_inversions;
  Alcotest.(check int) "events sum" 141 m.Monitor.events_seen;
  (match m.Monitor.first_violation with
  | Some (t, msg) ->
    Alcotest.(check (float 1e-9)) "earliest violation time" 1.5 t;
    Alcotest.(check string) "earliest violation message" "b" msg
  | None -> Alcotest.fail "merged verdict lost the first violation");
  let b' = { b with Monitor.first_violation = Some (3.0, "b") } in
  (match (Monitor.merged_verdict [ a; b' ]).Monitor.first_violation with
  | Some (_, msg) -> Alcotest.(check string) "tie keeps the left shard" "a" msg
  | None -> Alcotest.fail "tie merge lost the violation");
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Monitor.merged_verdict: empty list") (fun () ->
      ignore (Monitor.merged_verdict []))

(* ---- Sharded_pool end-to-end ---- *)

let fleet_config ?(discipline = Bundle_pool.Srr) () =
  let rates = [| 10e6; 10e6; 5e6; 2.5e6 |] in
  let delays = [| 0.001; 0.002; 0.005; 0.010 |] in
  let quanta =
    Stripe_core.Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ()
  in
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta;
    marker_every = 4;
    guard = false;
    discipline;
  }

type op =
  | Acquire of float * int
  | Release of float * int
  | Push of float * int * int

(* Scripted churn with staggered releases so slots recycle mid-run: up
   to [max_live] bundles, a new one one step in [acquire_one_in] while
   below that. The script's RNG never reads pool state, so every
   recorder sees the same op sequence; ids come back from the recorder's
   shadow allocator. *)
let record_churn ~steps ~dt ~max_live ~acquire_one_in sp =
  let rng = Rng.create 5 in
  let ops = ref [] in
  let live = ref [] in
  let t = ref 0.0 in
  for _ = 1 to steps do
    t := !t +. dt;
    let nlive = List.length !live in
    if nlive = 0 || (nlive < max_live && Rng.int rng acquire_one_in = 0)
    then begin
      let id = Sharded_pool.acquire sp ~at:!t in
      ops := Acquire (!t, id) :: !ops;
      live := id :: !live
    end
    else if Rng.int rng 12 = 0 then begin
      let i = Rng.int rng nlive in
      let id = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Sharded_pool.release sp ~at:!t id;
      ops := Release (!t, id) :: !ops
    end
    else begin
      let id = List.nth !live (Rng.int rng nlive) in
      let size = 200 + Rng.int rng 1100 in
      Sharded_pool.push sp ~at:!t id ~size;
      ops := Push (!t, id, size) :: !ops
    end
  done;
  List.rev !ops

(* At most 10 live bundles: every shard replays one group. *)
let record_script =
  record_churn ~steps:600 ~dt:0.0015 ~max_live:10 ~acquire_one_in:4

(* About 700 distinct slots: at 1, 2 and 3 domains every shard owns
   more than [Sharded_pool.group_slots] of them, so it replays several
   groups one after another on its reset pool. *)
let record_many_slots =
  record_churn ~steps:20_000 ~dt:0.0002 ~max_live:700 ~acquire_one_in:2

(* 200 bundles, one packet each, and only the first [group_slots] of
   them released: group 1's bundles are still live when the tape ends,
   so they get no generation. At 2 domains LPT puts group 0 on shard 0
   and group 1 alone on shard 1, whose groups release nothing; at 3 and
   4 domains the other shards replay no group at all. The spacing is no
   multiple of the links' 1e-4 s time grain, so no op falls on an
   arrival's instant. *)
let record_unreleased sp =
  let dt = 1.2345e-4 in
  let ops = ref [] in
  let ids =
    Array.init 200 (fun k ->
        let at = float_of_int k *. dt in
        let id = Sharded_pool.acquire sp ~at in
        ops := Acquire (at, id) :: !ops;
        id)
  in
  Array.iteri
    (fun k id ->
      let at = 0.0500321 +. (float_of_int k *. dt) in
      Sharded_pool.push sp ~at id ~size:500;
      ops := Push (at, id, 500) :: !ops)
    ids;
  for k = 0 to Sharded_pool.group_slots - 1 do
    let at = 1.0000321 +. (float_of_int k *. dt) in
    Sharded_pool.release sp ~at ids.(k);
    ops := Release (at, ids.(k)) :: !ops
  done;
  List.rev !ops

(* Ordinals with holes: 300 bundles, one packet each, every other one
   released; then 100 more on the recycled slots, every third of them
   released. The bundles live at the end leave holes all through the
   ordinals, in all three groups, so each shard's table interleaves
   with the others'. *)
let record_holes sp =
  let dt = 1.2345e-4 in
  let ops = ref [] in
  let n = ref 0 in
  let next () =
    incr n;
    float_of_int !n *. dt
  in
  let wave count ~released =
    let ids =
      Array.init count (fun _ ->
          let at = next () in
          let id = Sharded_pool.acquire sp ~at in
          ops := Acquire (at, id) :: !ops;
          id)
    in
    Array.iter
      (fun id ->
        let at = next () in
        Sharded_pool.push sp ~at id ~size:700;
        ops := Push (at, id, 700) :: !ops)
      ids;
    Array.iteri
      (fun k id ->
        if released k then begin
          let at = next () in
          Sharded_pool.release sp ~at id;
          ops := Release (at, id) :: !ops
        end)
      ids
  in
  wave 300 ~released:(fun k -> k mod 2 = 0);
  wave 100 ~released:(fun k -> k mod 3 = 0);
  List.rev !ops

(* [slots] bundles and [n] ops on them: the acquires, pushes round-robin
   and the releases. Every slot falls in one group, whose tape fills
   [n / Sharded_pool.tape_chunk] chunks and opens one more for any
   rest. *)
let record_spread ~slots ~dt n sp =
  let ops = ref [] in
  let ids = Array.make slots (-1) in
  for k = 0 to n - 1 do
    let at = float_of_int k *. dt in
    if k < slots then begin
      ids.(k) <- Sharded_pool.acquire sp ~at;
      ops := Acquire (at, ids.(k)) :: !ops
    end
    else if k >= n - slots then begin
      let id = ids.(k - (n - slots)) in
      Sharded_pool.release sp ~at id;
      ops := Release (at, id) :: !ops
    end
    else begin
      let id = ids.(k mod slots) in
      Sharded_pool.push sp ~at id ~size:500;
      ops := Push (at, id, 500) :: !ops
    end
  done;
  List.rev !ops

(* One released generation as both sides report it: ordinal, slot,
   birth, death, pushed packets/bytes, delivered packets/bytes. *)
type gen_key = int * int * float * float * int * int * int * int

let gen_key (g : Sharded_pool.gen_report) : gen_key =
  ( g.ordinal, g.slot, g.birth, g.death, g.pushed_packets, g.pushed_bytes,
    g.delivered_packets, g.delivered_bytes )

type direct = {
  gens : gen_key list;  (* by ordinal *)
  totals : int * int * int;  (* delivered packets, bytes, markers *)
  end_time : float;
}

(* The same script driven straight into one Bundle_pool — the legacy
   single-pool run the sharded replay must reproduce. Checks on the way
   that the recorder's shadow allocator predicted every slot id, and
   harvests every generation at its release. Every op is scheduled up
   front; an op at the instant of a landing still lands it first, as in
   the replay, since every op settles its slot before it acts
   ([test_op_ties_arrival] pins the tie against a pump drive). *)
let run_direct ~discipline ops =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~rng:(Rng.stream ~seed:33 0) ~sim
      (fleet_config ~discipline ())
  in
  let ordinal = Hashtbl.create 64 in
  let gens = ref [] in
  List.iter
    (fun op ->
      match op with
      | Acquire (at, id) ->
        Sim.schedule sim ~at (fun () ->
            Hashtbl.replace ordinal id (Bundle_pool.total_acquired pool);
            Alcotest.(check int)
              "shadow allocator predicts the real slot" id
              (Bundle_pool.acquire pool))
      | Release (at, id) ->
        Sim.schedule sim ~at (fun () ->
            gens :=
              ( Hashtbl.find ordinal id, id, Bundle_pool.birth_time pool id,
                Sim.now sim, Bundle_pool.pushed_packets pool id,
                Bundle_pool.pushed_bytes pool id,
                Bundle_pool.delivered_packets pool id,
                Bundle_pool.delivered_bytes pool id )
              :: !gens;
            Bundle_pool.release pool id)
      | Push (at, id, size) ->
        Sim.schedule sim ~at (fun () -> Bundle_pool.push pool id ~size))
    ops;
  Sim.run sim;
  {
    gens = List.sort compare !gens;
    totals =
      ( Bundle_pool.total_delivered_packets pool,
        Bundle_pool.total_delivered_bytes pool,
        Bundle_pool.markers_sent pool );
    end_time = Sim.now sim;
  }

(* Records [script] at 1, 2 and 3 domains and checks every replay against
   the directly driven single pool: per-generation reports, aggregates
   and end time, under both disciplines ([Sprinklers] seeds each slot's
   visit order from its recorded slot id, which a replay group must
   carry over from the fleet). [min_slots] is a lower bound on every
   shard's slots. The merged generation table must hold exactly the
   shards' generations, in strictly increasing ordinal. *)
let check_against_direct ?(domain_counts = [ 1; 2; 3 ]) ~script ~min_slots
    () =
  List.iter
    (fun discipline ->
      let reports =
        List.map
          (fun domains ->
            let sp =
              Sharded_pool.create ~domains ~seed:33
                (fleet_config ~discipline ())
            in
            let ops = script sp in
            (ops, Sharded_pool.run sp))
          domain_counts
      in
      let ops1, _ = List.hd reports in
      let direct = run_direct ~discipline ops1 in
      let d_packets, _, _ = direct.totals in
      Alcotest.(check bool) "script delivered packets" true (d_packets > 0);
      Alcotest.(check bool) "script released generations" true
        (direct.gens <> []);
      List.iter
        (fun (ops, (r : Sharded_pool.report)) ->
          let label what =
            Printf.sprintf "%s domains=%d: %s"
              (match discipline with
              | Bundle_pool.Srr -> "srr"
              | Sprinklers _ -> "sprinklers")
              r.domains what
          in
          Alcotest.(check bool)
            (label "recorder is shard-count independent")
            true (ops = ops1);
          Array.iter
            (fun (s : Sharded_pool.shard_report) ->
              if s.slots < min_slots then
                Alcotest.failf "domains=%d: shard %d owns %d slots, want >= %d"
                  r.domains s.shard s.slots min_slots)
            r.shards;
          Alcotest.(check (triple int int int))
            (label "aggregates equal the direct drive")
            direct.totals
            (r.delivered_packets, r.delivered_bytes, r.markers_sent);
          Alcotest.(check int)
            (label "the table holds the shards' generations")
            (Array.fold_left
               (fun n (s : Sharded_pool.shard_report) -> n + s.generations)
               0 r.shards)
            (Array.length r.gens);
          Array.iteri
            (fun i (g : Sharded_pool.gen_report) ->
              if i > 0 && g.ordinal <= r.gens.(i - 1).ordinal then
                Alcotest.failf "%s" (label "ordinals do not strictly increase"))
            r.gens;
          Alcotest.(check bool)
            (label "per-generation reports equal the direct drive")
            true
            (Array.to_list (Array.map gen_key r.gens) = direct.gens);
          Alcotest.(check (float 0.0))
            (label "end time equals the direct drive")
            direct.end_time r.end_time)
        reports)
    [ Bundle_pool.Srr; Bundle_pool.Sprinklers 17 ]

let e2e () = check_against_direct ~script:record_script ~min_slots:0 ()

let grouped () =
  check_against_direct ~script:record_many_slots
    ~min_slots:(Sharded_pool.group_slots + 1) ()

(* The generation table's edges: a shard whose groups release nothing,
   shards with no group, and bundles live at the end of the tape. *)
let unreleased () =
  check_against_direct ~domain_counts:[ 1; 2; 3; 4 ] ~script:record_unreleased
    ~min_slots:0 ();
  List.iter
    (fun domains ->
      let sp = Sharded_pool.create ~domains ~seed:33 (fleet_config ()) in
      ignore (record_unreleased sp);
      let r = Sharded_pool.run sp in
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: one generation per release" domains)
        Sharded_pool.group_slots (Array.length r.gens);
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: the live bundles still delivered" domains)
        200 r.delivered_packets;
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d: generations per shard" domains)
        (Array.init domains (fun k ->
             if k = 0 then Sharded_pool.group_slots else 0))
        (Array.map
           (fun (s : Sharded_pool.shard_report) -> s.generations)
           r.shards))
    [ 2; 3; 4 ]

let holes () =
  check_against_direct ~domain_counts:[ 1; 2; 3; 4 ] ~script:record_holes
    ~min_slots:0 ()

(* Op count of each replay group, derived from the script itself: slots
   ranked by first appearance, [group_slots] to a group. *)
let group_ops script =
  let rank = Hashtbl.create 1024 in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let id =
        match op with Acquire (_, id) | Release (_, id) | Push (_, id, _) -> id
      in
      if not (Hashtbl.mem rank id) then
        Hashtbl.add rank id (Hashtbl.length rank);
      let g = Hashtbl.find rank id / Sharded_pool.group_slots in
      let n = Option.value (Hashtbl.find_opt counts g) ~default:0 in
      Hashtbl.replace counts g (n + 1))
    script;
  Array.init (Hashtbl.length counts) (Hashtbl.find counts)

(* [tape_bytes] after recording [ops]: 16 B for every entry of every
   chunk the groups opened, at most 16 B an op and a chunk a group.
   Returns the chunks. *)
let check_tape_bytes label sp ops =
  let c = Sharded_pool.tape_chunk in
  let groups = group_ops ops in
  let chunks = Array.fold_left (fun k n -> k + ((n + c - 1) / c)) 0 groups in
  Alcotest.(check int) (label ^ ": tape bytes") (16 * c * chunks)
    (Sharded_pool.tape_bytes sp);
  Alcotest.(check bool)
    (label ^ ": at most 16 B an op and a chunk a group")
    true
    (Sharded_pool.tape_bytes sp
    <= (16 * List.length ops) + (16 * c * Array.length groups));
  chunks

(* The tape at the edges of its chunks: one slot whose tape ends one op
   before, at and one op after a chunk's end, and one group of ten slots
   whose tape crosses three chunks. Each replays like the direct drive
   at 1 to 4 domains, and [tape_bytes] counts the chunks opened, also
   on the many-group script. *)
let test_tape_chunks () =
  let c = Sharded_pool.tape_chunk in
  let recorded script =
    let sp = Sharded_pool.create ~domains:1 ~seed:33 (fleet_config ()) in
    (sp, script sp)
  in
  List.iter
    (fun (slots, dt, n, chunks) ->
      let script = record_spread ~slots ~dt n in
      check_against_direct ~domain_counts:[ 1; 2; 3; 4 ] ~script
        ~min_slots:0 ();
      let sp, ops = recorded script in
      let label = Printf.sprintf "%d ops on %d slots" n slots in
      Alcotest.(check int) (label ^ ": chunks") chunks
        (check_tape_bytes label sp ops))
    [
      (1, 2.3457e-4, c - 1, 1);
      (1, 2.3457e-4, c, 1);
      (1, 2.3457e-4, c + 1, 2);
      (10, 5.4321e-5, (2 * c) + 808, 3);
    ];
  let sp, ops = recorded record_many_slots in
  ignore (check_tape_bytes "many groups" sp ops)

(* The LPT assignment on the 700-slot script: every group replayed by
   exactly one domain, in ascending order there; the same assignment on
   a second recording; each group, taken largest first (ties to the
   lower index), on a domain that was least loaded at its turn; and the
   reported imbalance is max over domains of replayed ops over the
   mean. *)
let test_lpt_assignment () =
  List.iter
    (fun domains ->
      let replay () =
        let sp = Sharded_pool.create ~domains ~seed:33 (fleet_config ()) in
        let script = record_many_slots sp in
        (script, Sharded_pool.run sp)
      in
      let script, r = replay () in
      let ops = group_ops script in
      let n = Array.length ops in
      if n <= domains then
        Alcotest.failf "domains=%d: only %d groups to assign" domains n;
      let owner = Array.make n (-1) in
      Array.iter
        (fun (s : Sharded_pool.shard_report) ->
          let groups = Array.to_list s.groups in
          Alcotest.(check bool) "a domain replays its groups in order" true
            (groups = List.sort compare groups);
          Array.iter
            (fun g ->
              if owner.(g) >= 0 then
                Alcotest.failf "domains=%d: group %d assigned twice" domains g;
              owner.(g) <- s.shard)
            s.groups;
          Alcotest.(check int) "a domain replays its groups' ops"
            (Array.fold_left (fun a g -> a + ops.(g)) 0 s.groups)
            s.ops)
        r.shards;
      Array.iteri
        (fun g d ->
          if d < 0 then
            Alcotest.failf "domains=%d: group %d unassigned" domains g)
        owner;
      let plan (r : Sharded_pool.report) =
        List.map
          (fun (s : Sharded_pool.shard_report) -> s.groups)
          (Array.to_list r.shards)
      in
      Alcotest.(check (list (array int)))
        "the assignment is a function of the tape" (plan r)
        (plan (snd (replay ())));
      let turn =
        List.sort
          (fun a b -> compare (ops.(b), a) (ops.(a), b))
          (List.init n Fun.id)
      in
      let load = Array.make domains 0 in
      List.iter
        (fun g ->
          let d = owner.(g) in
          if Array.exists (fun l -> l < load.(d)) load then
            Alcotest.failf
              "domains=%d: group %d went to domain %d, not least loaded"
              domains g d;
          load.(d) <- load.(d) + ops.(g))
        turn;
      let total = Array.fold_left ( + ) 0 ops in
      Alcotest.(check (float 1e-12)) "imbalance is max over mean"
        (float_of_int (domains * Array.fold_left max 0 load)
        /. float_of_int total)
        r.imbalance)
    [ 2; 3; 4 ]

(* The drive the replay stands for: op [k + 1] is scheduled when op [k]
   fires. Returns the delivered packets of each released generation, in
   release order. *)
let run_pump config ops =
  let op_at = function Acquire (at, _) | Release (at, _) | Push (at, _, _) -> at in
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~rng:(Rng.stream ~seed:33 0) ~sim config in
  let delivered = ref [] in
  let ops = Array.of_list ops in
  let rec pump k () =
    (match ops.(k) with
    | Acquire (_, id) ->
      Alcotest.(check int) "pump acquires the recorded slot" id
        (Bundle_pool.acquire pool)
    | Release (_, id) ->
      delivered := Bundle_pool.delivered_packets pool id :: !delivered;
      Bundle_pool.release pool id
    | Push (_, id, size) -> Bundle_pool.push pool id ~size);
    if k + 1 < Array.length ops then
      Sim.schedule sim ~at:(op_at ops.(k + 1)) (pump (k + 1))
  in
  if Array.length ops > 0 then Sim.schedule sim ~at:(op_at ops.(0)) (pump 0);
  Sim.run sim;
  List.rev !delivered

(* An op at the exact instant of a landing: 1000 B at 8 Mb/s takes
   1 ms to send and 1 ms to cross, so the packet pushed at 0 lands at
   0.002, the instant its bundle is released. The release settles the
   slot first, so the generation reports it delivered in either drive;
   a release that did not would report 0. *)
let test_op_ties_arrival () =
  let config =
    {
      Bundle_pool.rate_bps = [| 8e6; 8e6 |];
      prop_delay = [| 0.001; 0.001 |];
      quanta = [| 1500; 1500 |];
      marker_every = 0;
      guard = false;
      discipline = Bundle_pool.Srr;
    }
  in
  Alcotest.(check bool) "the arrival lands on the release" true
    ((1000.0 *. 8.0 /. 8e6) +. 0.001 = 0.002);
  let sp = Sharded_pool.create ~domains:1 ~seed:33 config in
  let id = Sharded_pool.acquire sp ~at:0.0 in
  Sharded_pool.push sp ~at:0.0 id ~size:1000;
  Sharded_pool.release sp ~at:0.002 id;
  let ops = [ Acquire (0.0, id); Push (0.0, id, 1000); Release (0.002, id) ] in
  let r = Sharded_pool.run sp in
  Alcotest.(check (list int)) "the pump drive delivers it first" [ 1 ]
    (run_pump config ops);
  Alcotest.(check (list int)) "the replay delivers it first" [ 1 ]
    (Array.to_list
       (Array.map (fun (g : Sharded_pool.gen_report) -> g.delivered_packets)
          r.gens))

(* A NaN time must be refused where it is recorded: [at < last_at] is
   false for NaN, and a NaN [last_at] would let every later time
   through. *)
let test_recorder_rejects_nan () =
  let sp = Sharded_pool.create ~domains:1 ~seed:1 (fleet_config ()) in
  let id = Sharded_pool.acquire sp ~at:1.0 in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "acquire at NaN" (fun () ->
      ignore (Sharded_pool.acquire sp ~at:Float.nan));
  rejects "release at NaN" (fun () -> Sharded_pool.release sp ~at:Float.nan id);
  rejects "push at NaN" (fun () -> Sharded_pool.push sp ~at:Float.nan id ~size:100);
  rejects "backwards push after a NaN" (fun () ->
      Sharded_pool.push sp ~at:0.5 id ~size:100);
  Alcotest.(check int) "rejected acquire took no slot" 1
    (Sharded_pool.total_acquired sp);
  Sharded_pool.push sp ~at:1.0 id ~size:100;
  let r = Sharded_pool.run sp in
  Alcotest.(check int) "only the accepted ops replay" 2 r.shards.(0).ops;
  Alcotest.(check int) "the accepted push is delivered" 1 r.delivered_packets

(* A state fingerprint of [pool] after a script: every slot's counters
   and the pool's totals, floats in hex so equal means bit-identical. *)
let fingerprint pool sim =
  let b = Buffer.create 1024 in
  for id = 0 to Bundle_pool.capacity pool - 1 do
    Printf.bprintf b "%d:%b %d %d %d %d %h %d %d %d|" id
      (Bundle_pool.is_live pool id)
      (Bundle_pool.pushed_packets pool id)
      (Bundle_pool.pushed_bytes pool id)
      (Bundle_pool.delivered_packets pool id)
      (Bundle_pool.delivered_bytes pool id)
      (Bundle_pool.last_delivery_time pool id)
      (Bundle_pool.rx_high_water_packets pool id)
      (Bundle_pool.rx_pending_packets pool id)
      (Bundle_pool.carrier_drops pool id)
  done;
  Printf.bprintf b "totals %d %d %d %d %d %d %d %d %h %h"
    (Bundle_pool.total_delivered_packets pool)
    (Bundle_pool.total_delivered_bytes pool)
    (Bundle_pool.markers_sent pool)
    (Bundle_pool.total_acquired pool)
    (Bundle_pool.recycles pool)
    (Bundle_pool.live_bundles pool)
    (Bundle_pool.crashes pool)
    (Bundle_pool.total_fifo_violations pool)
    (Bundle_pool.wire_busy_until pool)
    (Sim.now sim);
  Buffer.contents b

(* Stamped packets arm the FIFO monitor, so its state is compared too. *)
let pool_for_reset sim =
  Bundle_pool.create ~initial_capacity:8 ~stamp_seq:true
    ~rng:(Rng.stream ~seed:9 0) ~sim (fleet_config ())

(* The second script: acquires through the pool's own allocator (six
   slots, more than the first script left free, so the free stack's
   order shows), pushes, recycles a slot, and poisons one FIFO monitor
   (the violation counts only if the quiet line is back at 0). Returns
   the ids acquired. *)
let clean_script pool sim =
  let slots = Array.make 6 (-1) in
  let acquired = ref [] in
  let acquire at k =
    Sim.schedule sim ~at (fun () ->
        slots.(k) <- Bundle_pool.acquire pool;
        acquired := slots.(k) :: !acquired)
  in
  List.iteri (fun k at -> acquire at k) [ 0.0; 0.0; 0.001; 0.002; 0.003; 0.003 ];
  for k = 0 to 399 do
    Sim.schedule sim ~at:(0.01 +. (float_of_int k *. 2e-4)) (fun () ->
        let id = slots.(k mod 6) in
        if Bundle_pool.is_live pool id then
          Bundle_pool.push pool id ~size:(300 + (k * 7 mod 1200)))
  done;
  Sim.schedule sim ~at:0.03 (fun () -> Bundle_pool.inject_violation pool slots.(2));
  Sim.schedule sim ~at:0.05 (fun () -> Bundle_pool.release pool slots.(1));
  acquire 0.06 1;
  Sim.run sim;
  List.rev !acquired

let test_pool_reset () =
  let sim = Sim.create () in
  let pool = pool_for_reset sim in
  (* A dirty first script: a dark carrier blocks every receiver on
     channel 3 (buffered data), a rate collapse leaves the wires busy
     past the reset clock, a crashed sender, a release, an armed FIFO
     quiet line, and live slots at the end. *)
  let ids = Array.init 6 (fun _ -> Bundle_pool.acquire pool) in
  for k = 0 to 299 do
    Sim.schedule sim ~at:(float_of_int k *. 1e-3) (fun () ->
        if Bundle_pool.is_live pool ids.(k mod 6) then
          Bundle_pool.push pool ids.(k mod 6) ~size:(200 + (k * 13 mod 1300)))
  done;
  Sim.schedule sim ~at:0.1 (fun () -> Bundle_pool.set_channel_up pool 3 false);
  Sim.schedule sim ~at:0.15 (fun () ->
      Bundle_pool.scale_channel_rate pool 0 0.05;
      Bundle_pool.set_fifo_check_after pool 9.0);
  Sim.schedule sim ~at:0.2 (fun () -> Bundle_pool.crash_sender pool ids.(2));
  Sim.schedule sim ~at:0.25 (fun () -> Bundle_pool.release pool ids.(4));
  Sim.run sim;
  Alcotest.(check bool) "live slots before reset" true
    (Bundle_pool.live_bundles pool > 0);
  Alcotest.(check bool) "buffered resequencer data before reset" true
    (Array.exists (fun id -> Bundle_pool.rx_pending_packets pool id > 0) ids);
  Alcotest.(check bool) "wires busy past the reset clock" true
    (Bundle_pool.wire_busy_until pool > 0.3);
  (* A packet still on a wire has an arrival pending: refused. *)
  Bundle_pool.push pool ids.(0) ~size:500;
  Alcotest.check_raises "reset refuses a wire in flight"
    (Invalid_argument "Bundle_pool.reset: a packet is still on a wire")
    (fun () -> Bundle_pool.reset pool);
  Sim.run sim;
  Sim.reset sim;
  Bundle_pool.reset pool;
  let fresh_sim = Sim.create () in
  let fresh = pool_for_reset fresh_sim in
  Alcotest.(check string) "reset pool reads like a fresh one"
    (fingerprint fresh fresh_sim) (fingerprint pool sim);
  let ids_reset = clean_script pool sim in
  let ids_fresh = clean_script fresh fresh_sim in
  Alcotest.(check (list int)) "acquires pick the fresh pool's slots" ids_fresh
    ids_reset;
  Alcotest.(check int) "capacity kept" (Bundle_pool.capacity fresh)
    (Bundle_pool.capacity pool);
  Alcotest.(check string) "reset pool replays like a fresh one"
    (fingerprint fresh fresh_sim) (fingerprint pool sim)

(* The churn-shaped event population (dense near cluster + sparse far
   timers) that used to degenerate the calendar's span-derived bucket
   width: with the quantile-derived width the calendar must still pop
   the identical sequence the reference heap does. Each pop schedules
   the next event, as a fired event would, into both queues at once. *)
let test_calendar_bimodal_equivalence () =
  let heap = Eventq.create () and cal = Calendar_queue.create () in
  let rng = Rng.create 17 in
  let next = ref 0 and now = ref 0.0 in
  let schedule_one () =
    let delay =
      if Rng.bernoulli rng ~p:0.9 then Rng.exponential rng ~mean:0.01
      else Rng.uniform rng ~lo:1.0 ~hi:5.0
    in
    Eventq.add heap ~time:(!now +. delay) !next;
    Calendar_queue.add cal ~time:(!now +. delay) !next;
    incr next
  in
  for _ = 1 to 512 do
    schedule_one ()
  done;
  let popped = ref 0 and ops = ref 4000 in
  let rec drain () =
    let h = Eventq.pop heap in
    if h <> Calendar_queue.pop cal then
      Alcotest.failf "pop %d: the calendar differs from the heap" !popped;
    match h with
    | None -> ()
    | Some (t, _) ->
      now := t;
      incr popped;
      if !ops > 0 then begin
        decr ops;
        schedule_one ()
      end;
      drain ()
  in
  drain ();
  Alcotest.(check int)
    "calendar pops the heap's exact sequence on a bimodal population" 4512
    !popped

let suites =
  [
    ( "sharded",
      [
        QCheck_alcotest.to_alcotest prop_counters_partition_merge;
        QCheck_alcotest.to_alcotest prop_recovery_partition_merge;
        Alcotest.test_case "verdict merge" `Quick test_verdict_merge;
        Alcotest.test_case "e2e calendar: domains 1/2/3" `Quick e2e;
        Alcotest.test_case "grouped replay calendar: domains 1/2/3" `Quick
          grouped;
        Alcotest.test_case "generation table calendar: domains 1-4" `Quick
          unreleased;
        Alcotest.test_case "generation table with holes: domains 1-4" `Quick
          holes;
        Alcotest.test_case "tape chunk edges: domains 1-4" `Quick
          test_tape_chunks;
        Alcotest.test_case "LPT assignment of replay groups" `Quick
          test_lpt_assignment;
        Alcotest.test_case "op at the instant of an arrival" `Quick
          test_op_ties_arrival;
        Alcotest.test_case "recorder rejects NaN times" `Quick
          test_recorder_rejects_nan;
        Alcotest.test_case "pool reset replays like fresh" `Quick
          test_pool_reset;
        Alcotest.test_case "calendar bimodal equivalence" `Quick
          test_calendar_bimodal_equivalence;
      ] );
  ]
