(* Calendar queue tests: unit coverage, the qcheck equivalence property
   against the binary heap (the reference model — including FIFO
   tie-breaking, so either engine drives byte-identical simulations),
   the Eventq popped-slot leak regression, and a seeded end-to-end
   trace-equality check between the two engines. *)

open Stripe_netsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Calendar queue unit tests ------------------------------------- *)

let test_empty () =
  let q = Calendar_queue.create () in
  check "fresh calendar is empty" true (Calendar_queue.is_empty q);
  check_int "fresh calendar length" 0 (Calendar_queue.length q);
  check "no peek time" true (Calendar_queue.peek_time q = None);
  check "pop on empty" true (Calendar_queue.pop q = None)

let test_time_order () =
  let q = Calendar_queue.create () in
  List.iter
    (fun t -> Calendar_queue.add q ~time:t (int_of_float t))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order =
    List.init 5 (fun _ ->
        match Calendar_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "ascending time order" [ 1; 2; 3; 4; 5 ] order

let test_fifo_ties () =
  let q = Calendar_queue.create () in
  for i = 0 to 9 do
    Calendar_queue.add q ~time:1.0 i
  done;
  let order =
    List.init 10 (fun _ ->
        match Calendar_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "same-time events pop in insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    order

let test_growth_across_resizes () =
  (* Enough events to force several bucket-ring doublings, inserted in
     reverse so every add lands before the current year. *)
  let q = Calendar_queue.create () in
  let n = 10_000 in
  for i = n downto 1 do
    Calendar_queue.add q ~time:(float_of_int i) i
  done;
  check_int "all inserted" n (Calendar_queue.length q);
  let prev = ref 0 in
  let sorted = ref true in
  for _ = 1 to n do
    match Calendar_queue.pop q with
    | Some (_, v) ->
      if v < !prev then sorted := false;
      prev := v
    | None -> sorted := false
  done;
  check "large reverse-order insert pops sorted" true !sorted

let test_wide_spread () =
  (* Times spanning ten orders of magnitude exercise the width clamp and
     the direct-search fallback for far-future events. *)
  let q = Calendar_queue.create () in
  let times = [ 1e-6; 3.0; 1e4; 0.5; 2e-6; 9e3; 7.0; 0.0 ] in
  List.iteri (fun i t -> Calendar_queue.add q ~time:t i) times;
  let rec drain acc =
    match Calendar_queue.pop q with
    | Some (t, _) -> drain (t :: acc)
    | None -> List.rev acc
  in
  let popped = drain [] in
  Alcotest.(check (list (float 0.0)))
    "wide time spread pops sorted"
    (List.sort compare times)
    popped

let test_clear_and_reuse () =
  let q = Calendar_queue.create () in
  for i = 0 to 99 do
    Calendar_queue.add q ~time:(float_of_int i) i
  done;
  Calendar_queue.clear q;
  check "cleared calendar is empty" true (Calendar_queue.is_empty q);
  Calendar_queue.add q ~time:2.0 20;
  Calendar_queue.add q ~time:1.0 10;
  check "usable after clear" true (Calendar_queue.pop q = Some (1.0, 10))

(* Resize hysteresis. Bursts that swing the population between 0 and
   ~100 every time must stop rehashing once the ring has grown; a
   lasting drop to a handful of sparse events must still shrink it, or
   every pop would sweep a ring sized for the peak. *)
let test_resize_hysteresis () =
  let q = Calendar_queue.create () in
  let clock = [| 0.0 |] in
  let burst () =
    let t0 = clock.(0) in
    for i = 1 to 100 do
      Calendar_queue.add q ~time:(t0 +. 0.001 +. (float_of_int i *. 1e-6)) i
    done;
    while not (Calendar_queue.is_empty q) do
      ignore (Calendar_queue.take q clock)
    done
  in
  burst ();
  let grown = Calendar_queue.buckets q in
  check "a burst leaves the ring grown" true (grown > 16);
  for _ = 1 to 1000 do
    burst ()
  done;
  check_int "steady bursts keep the ring" grown (Calendar_queue.buckets q);
  (* Grow far past the burst size, then drop to 4 events a second apart
     and keep them cycling. *)
  for i = 1 to 100_000 do
    Calendar_queue.add q ~time:(clock.(0) +. (float_of_int i *. 1e-6)) 0
  done;
  let peak = Calendar_queue.buckets q in
  for _ = 1 to 100_000 - 4 do
    ignore (Calendar_queue.take q clock)
  done;
  let pops = ref 0 in
  while Calendar_queue.buckets q > 16 && !pops < 100_000 do
    ignore (Calendar_queue.take q clock);
    Calendar_queue.add q ~time:(clock.(0) +. 4.0) 0;
    incr pops
  done;
  check "the ring had grown" true (peak >= 65_536);
  check_int "a lasting drop shrinks the ring" 16 (Calendar_queue.buckets q);
  check "within a few pops per halving" true (!pops < 1000)

(* --- Equivalence against the heap ---------------------------------- *)

(* Operations drawn for the property: add at one of a few times (small
   palette to force plenty of ties), pop, clear. Both structures see the
   same sequence; every pop must agree on (time, value), including the
   FIFO order within a tie — that identity is what lets a simulation
   switch engines without changing a single event. *)
type op = Add of float | Pop | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Add t) (float_range 0.0 100.0));
        (3, map (fun i -> Add (float_of_int (i mod 8))) (int_bound 1000));
        (4, return Pop);
        (1, return Clear);
      ])

let op_print = function
  | Add t -> Printf.sprintf "Add %g" t
  | Pop -> "Pop"
  | Clear -> "Clear"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 400) op_gen)

let prop_calendar_equals_heap =
  QCheck.Test.make ~name:"calendar = heap on random add/pop/clear" ~count:300
    ops_arb (fun ops ->
      let heap = Eventq.create () in
      let cal = Calendar_queue.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Add t ->
            Eventq.add heap ~time:t !next;
            Calendar_queue.add cal ~time:t !next;
            incr next
          | Pop ->
            if Eventq.pop heap <> Calendar_queue.pop cal then ok := false
          | Clear ->
            Eventq.clear heap;
            Calendar_queue.clear cal)
        ops;
      (* Drain what is left: the full remaining pop sequences must agree
         too, and both must end empty. *)
      let rec drain () =
        let h = Eventq.pop heap and c = Calendar_queue.pop cal in
        if h <> c then ok := false
        else match h with Some _ -> drain () | None -> ()
      in
      drain ();
      !ok && Eventq.is_empty heap && Calendar_queue.is_empty cal)

(* Fleet-style churn stress: a bundle pool drives the shared queue
   through repeated population swings — thousands of arrivals cluster
   events near the clock, departures drain them again — which is
   exactly the add/pop/clear interleaving that exercises the calendar's
   [resize] doublings on the way up and [maybe_shrink] on the way down.
   The property is the same equivalence: every pop (time and value,
   FIFO within ties) must match the reference heap throughout. *)
type churn_seg =
  | Grow of int  (* burst of adds clustered just after the current time *)
  | Drain of int  (* burst of pops *)
  | Wipe  (* teardown of the whole population *)

let churn_seg_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Grow (1 + (k mod 500))) (int_bound 10_000));
        (5, map (fun k -> Drain (1 + (k mod 500))) (int_bound 10_000));
        (1, return Wipe);
      ])

let churn_seg_print = function
  | Grow k -> Printf.sprintf "Grow %d" k
  | Drain k -> Printf.sprintf "Drain %d" k
  | Wipe -> "Wipe"

let churn_arb =
  QCheck.make
    ~print:(fun segs -> String.concat "; " (List.map churn_seg_print segs))
    QCheck.Gen.(list_size (int_range 1 30) churn_seg_gen)

let prop_calendar_churn_equals_heap =
  QCheck.Test.make ~name:"calendar = heap under fleet-like churn" ~count:100
    churn_arb (fun segs ->
      let heap = Eventq.create () in
      let cal = Calendar_queue.create () in
      let next = ref 0 in
      let now = ref 0.0 in
      let ok = ref true in
      (* Deterministic pseudo-offsets keep the generated case small (and
         shrinkable) while still clustering times the way link arrivals
         do, with occasional far-future stragglers. *)
      let offset i =
        if i mod 97 = 0 then 50.0 +. float_of_int (i mod 7)
        else float_of_int (i * 7919 mod 1000) /. 1000.0
      in
      List.iter
        (fun seg ->
          match seg with
          | Grow k ->
            for _ = 1 to k do
              let t = !now +. offset !next in
              Eventq.add heap ~time:t !next;
              Calendar_queue.add cal ~time:t !next;
              incr next
            done
          | Drain k ->
            for _ = 1 to k do
              let h = Eventq.pop heap and c = Calendar_queue.pop cal in
              if h <> c then ok := false;
              match h with Some (t, _) -> now := t | None -> ()
            done
          | Wipe ->
            Eventq.clear heap;
            Calendar_queue.clear cal)
        segs;
      let rec drain () =
        let h = Eventq.pop heap and c = Calendar_queue.pop cal in
        if h <> c then ok := false
        else match h with Some _ -> drain () | None -> ()
      in
      drain ();
      !ok && Eventq.is_empty heap && Calendar_queue.is_empty cal)

(* --- Both engines against a sorted-list oracle ---------------------- *)

(* The heap-vs-calendar properties above cannot catch a bug the two
   share, so this one drives [Eventq], [Calendar_queue] and [Sim] (on
   both engines, through [Sim.step]'s take path) against a sorted list.
   Times are offsets from the oracle's clock — the time of the last pop
   — so they are legal for [Sim.schedule] too. The op mix aims at the
   calendar's corners: exact ties, reverse-order runs, far-future and
   infinite times, sub-nanosecond gaps, laps around the initial
   16-bucket ring (width 1), and append/pop slides that make a bucket
   compact in place. *)
type ref_op =
  | Add of float  (* at now + offset *)
  | Again  (* at the time of the previous add: an exact tie *)
  | Desc of int * float  (* k adds at now + (k - i) * gap, i = 1..k *)
  | Slide of int * float  (* k times: add at latest + gap, then pop *)
  | Take
  | Wipe

let ref_op_gen =
  QCheck.Gen.(
    let offset =
      frequency
        [
          (3, float_range 0.0 4.0);
          (2, map (fun k -> float_of_int k *. 1e-10) (int_bound 50));
          (1, return 0.0);
          ( 2,
            map2
              (fun lap k -> (16.0 *. float_of_int lap) +. (0.25 *. float_of_int k))
              (int_range 1 3) (int_bound 7) );
          (1, map (fun k -> 1e5 *. float_of_int (k + 1)) (int_bound 9));
          (1, return infinity);
        ]
    in
    frequency
      [
        (8, map (fun d -> Add d) offset);
        (2, return Again);
        ( 1,
          map2 (fun k gap -> Desc (k, gap)) (int_range 2 40)
            (oneofl [ 1e-10; 1e-3; 0.3; 5.0 ]) );
        ( 1,
          map2 (fun k gap -> Slide (k, gap)) (int_range 2 80)
            (oneofl [ 0.0; 1e-9; 1e-3; 0.6 ]) );
        (6, return Take);
        (1, return Wipe);
      ])

let ref_op_print = function
  | Add d -> Printf.sprintf "Add %h" d
  | Again -> "Again"
  | Desc (k, g) -> Printf.sprintf "Desc (%d, %g)" k g
  | Slide (k, g) -> Printf.sprintf "Slide (%d, %g)" k g
  | Take -> "Take"
  | Wipe -> "Wipe"

let ref_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map ref_op_print ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 300) ref_op_gen)

(* Seed of the property's random state, printed with any failure so the
   run can be replayed with QCHECK_SEED. *)
let ref_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> Random.State.bits (Random.State.make_self_init ())

let prop_engines_match_oracle =
  QCheck.Test.make ~name:"eventq, calendar and Sim.step = sorted-list oracle"
    ~count:300 ref_ops_arb (fun ops ->
      let fail fmt =
        QCheck.Test.fail_reportf ("seed %d (QCHECK_SEED=%d replays it): " ^^ fmt)
          ref_seed ref_seed
      in
      (* The oracle: pending (time, id) in pop order; equal times keep
         insertion order. *)
      let oracle = ref [] and now = ref 0.0 and last_add = ref 0.0 in
      let heap = Eventq.create () and cal = Calendar_queue.create () in
      let fired = ref (-1) in
      let new_sims () =
        ( Sim.create ~engine:Sim.Heap (),
          Sim.create ~engine:Sim.Calendar () )
      in
      let sims = ref (new_sims ()) in
      let next_id = ref 0 in
      let cell = [| 0.0 |] in
      let add t =
        let id = !next_id in
        incr next_id;
        last_add := t;
        let rec ins = function
          | (t', _) as e :: rest when t' <= t -> e :: ins rest
          | rest -> (t, id) :: rest
        in
        oracle := ins !oracle;
        Eventq.add heap ~time:t id;
        Calendar_queue.add cal ~time:t id;
        let sh, sc = !sims in
        Sim.schedule sh ~at:t (fun () -> fired := id);
        Sim.schedule sc ~at:t (fun () -> fired := id)
      in
      let take () =
        match !oracle with
        | [] ->
          if not (Eventq.is_empty heap && Calendar_queue.is_empty cal) then
            fail "a queue holds events the oracle does not"
        | (t, id) :: rest ->
          oracle := rest;
          now := t;
          let check what t' id' =
            if not (Float.equal t' t && id' = id) then
              fail "%s popped (%h, %d), oracle (%h, %d)" what t' id' t id
          in
          let id' = Eventq.take heap cell in
          check "eventq take" cell.(0) id';
          let id' = Calendar_queue.take cal cell in
          check "calendar take" cell.(0) id';
          List.iter
            (fun (name, sim) ->
              fired := -1;
              if not (Sim.step sim) then fail "%s: Sim.step found nothing" name;
              check name (Sim.now sim) !fired)
            [ ("Sim.step heap", fst !sims); ("Sim.step calendar", snd !sims) ]
      in
      let check_lengths i =
        let n = List.length !oracle in
        let sh, sc = !sims in
        if
          Eventq.length heap <> n
          || Calendar_queue.length cal <> n
          || Sim.pending sh <> n
          || Sim.pending sc <> n
        then fail "after op %d: lengths differ from the oracle's %d" i n
      in
      List.iteri
        (fun i op ->
          (match op with
          | Add d -> add (!now +. d)
          | Again -> add (Float.max !now !last_add)
          | Desc (k, gap) ->
            for j = 1 to k do
              add (!now +. (float_of_int (k - j) *. gap))
            done
          | Slide (k, gap) ->
            for _ = 1 to k do
              add (Float.max !now !last_add +. gap);
              take ()
            done
          | Take -> take ()
          | Wipe ->
            oracle := [];
            Eventq.clear heap;
            Calendar_queue.clear cal;
            sims := new_sims ());
          check_lengths i)
        ops;
      (* Drain through the option-returning [pop] too. *)
      List.iter
        (fun (t, id) ->
          let ok = Some (t, id) in
          if Eventq.pop heap <> ok then fail "eventq drain differs at (%h, %d)" t id;
          if Calendar_queue.pop cal <> ok then
            fail "calendar drain differs at (%h, %d)" t id)
        !oracle;
      Eventq.is_empty heap && Calendar_queue.is_empty cal)

(* --- Eventq popped-slot leak regression ---------------------------- *)

let test_pop_releases_value () =
  (* The heap used to keep popped values reachable in its vacated array
     slots. Register popped values in a weak array and check the GC can
     actually collect them once the only strong reference is dropped. *)
  let q = Eventq.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    Eventq.add q ~time:(float_of_int i) (ref i)
  done;
  for i = 0 to 7 do
    match Eventq.pop q with
    | Some (_, v) -> Weak.set w i (Some v)
    | None -> Alcotest.fail "heap emptied early"
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  check_int "popped values are collectable" 0 !live

let test_calendar_pop_releases_value () =
  let q = Calendar_queue.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    Calendar_queue.add q ~time:(float_of_int i) (ref i)
  done;
  for i = 0 to 7 do
    match Calendar_queue.pop q with
    | Some (_, v) -> Weak.set w i (Some v)
    | None -> Alcotest.fail "calendar emptied early"
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  check_int "popped values are collectable" 0 !live

(* --- Seeded end-to-end trace equality ------------------------------ *)

(* A scaled-down copy of the benchmark scenario (4 channels, SRR with
   markers, resequencer) with every observability event rendered to
   JSON. The two engines must produce byte-identical traces. *)
let trace_run ~engine ~n_packets =
  let open Stripe_packet in
  let open Stripe_core in
  let buf = Buffer.create 65536 in
  let sink =
    Stripe_obs.Sink.of_fn (fun e ->
        Buffer.add_string buf (Stripe_obs.Event.to_json e);
        Buffer.add_char buf '\n')
  in
  let sim = Sim.create ~engine () in
  let rng = Rng.create 42 in
  let delays = [| 0.001; 0.002; 0.005; 0.010 |] in
  let n = Array.length delays in
  let rates = Array.make n 10e6 in
  let srr = Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 () in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial srr)
      ~now:(fun () -> Sim.now sim)
      ~sink
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:rates.(i) ~prop_delay:delays.(i) ~rng:(Rng.split rng)
          ~channel:i ~sink
          ~deliver:(fun pkt -> Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" srr)
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~sink
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  let seq = ref 0 in
  let rec tick () =
    if !seq < n_packets then begin
      Striper.push striper
        (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:(gen ()) ());
      incr seq;
      Sim.schedule_after sim ~delay:0.00015 tick
    end
  in
  tick ();
  Sim.run sim;
  Buffer.contents buf

let test_engines_trace_identical () =
  let heap = trace_run ~engine:Sim.Heap ~n_packets:2000 in
  let cal = trace_run ~engine:Sim.Calendar ~n_packets:2000 in
  check "trace is non-trivial" true (String.length heap > 10_000);
  check "heap and calendar traces byte-identical" true (String.equal heap cal)

let suites =
  [
    ( "calendar",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "time order" `Quick test_time_order;
        Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
        Alcotest.test_case "growth across resizes" `Quick
          test_growth_across_resizes;
        Alcotest.test_case "wide time spread" `Quick test_wide_spread;
        Alcotest.test_case "clear and reuse" `Quick test_clear_and_reuse;
        Alcotest.test_case "resize hysteresis" `Quick test_resize_hysteresis;
        QCheck_alcotest.to_alcotest prop_calendar_equals_heap;
        QCheck_alcotest.to_alcotest prop_calendar_churn_equals_heap;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| ref_seed |])
          prop_engines_match_oracle;
        Alcotest.test_case "eventq pop releases value" `Quick
          test_pop_releases_value;
        Alcotest.test_case "calendar pop releases value" `Quick
          test_calendar_pop_releases_value;
        Alcotest.test_case "engines trace identical" `Quick
          test_engines_trace_identical;
      ] );
  ]
