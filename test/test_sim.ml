(* Unit tests for the discrete-event engine: clock advancement, ordering,
   horizons, stop, and scheduling validity. *)

open Stripe_netsim

let test_clock_starts_at_zero () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.now sim)

let test_events_run_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:3.0 (fun () -> log := 3 :: !log);
  Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Sim.now sim)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:1.0 (fun () ->
      log := "outer" :: !log;
      Sim.schedule_after sim ~delay:0.5 (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested event fires" [ "outer"; "inner" ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 1.5 (Sim.now sim)

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:2.0 (fun () ->
      Alcotest.check_raises "scheduling in the past raises"
        (Invalid_argument "Sim.schedule: time 1 is before now (2)") (fun () ->
          Sim.schedule sim ~at:1.0 (fun () -> ())));
  Sim.run sim

let test_run_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.schedule sim ~at:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run_until sim 2.5;
  Alcotest.(check (list (float 0.0))) "only events <= horizon" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock advanced to horizon" 2.5 (Sim.now sim);
  Alcotest.(check int) "later events remain" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "rest fire on run" 4 (List.length !fired)

let test_run_until_advances_clock_without_events () =
  let sim = Sim.create () in
  Sim.run_until sim 10.0;
  Alcotest.(check (float 0.0)) "clock jumps to horizon" 10.0 (Sim.now sim)

let test_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~at:(float_of_int i) (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Alcotest.(check int) "stopped after third event" 3 !count;
  Alcotest.(check int) "remaining events kept" 7 (Sim.pending sim)

let test_stop_leaves_clock_at_stop_point () =
  (* Regression: run_until used to fast-forward the clock to the horizon
     even when [stop] fired mid-run, so a stopped run lied about how far
     it had gotten. *)
  let sim = Sim.create () in
  for i = 1 to 10 do
    Sim.schedule sim ~at:(float_of_int i) (fun () ->
        if Sim.now sim = 3.0 then Sim.stop sim)
  done;
  Sim.run_until sim 100.0;
  Alcotest.(check (float 0.0)) "clock stays at the stop point" 3.0 (Sim.now sim);
  Alcotest.(check int) "remaining events kept" 7 (Sim.pending sim);
  (* A resumed run picks up from the stop point and does reach the
     horizon this time. *)
  Sim.run_until sim 100.0;
  Alcotest.(check (float 0.0)) "resumed run reaches horizon" 100.0 (Sim.now sim);
  Alcotest.(check int) "all events fired" 0 (Sim.pending sim)

let test_step () =
  let sim = Sim.create () in
  Alcotest.(check bool) "step on empty" false (Sim.step sim);
  Sim.schedule sim ~at:1.0 (fun () -> ());
  Alcotest.(check bool) "step consumes one" true (Sim.step sim);
  Alcotest.(check bool) "then empty" false (Sim.step sim)

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      Sim.schedule_after sim ~delay:(-1.0) (fun () -> ()))

(* A NaN time fails [at >= now] but also [at < now], so a guard written
   as the latter let it in, after which the queue fired out of order
   (the binary heap it once ran on fired 1, 2, 0.5: time went
   backwards). It must be rejected
   with the queue left as it was; +inf is a legal, last time. *)
let test_nan_rejected () =
  let sim = Sim.create () in
  let fired = ref [] in
  let at t = Sim.schedule sim ~at:t (fun () -> fired := Sim.now sim :: !fired) in
  at 1.0;
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.schedule: time is NaN")
    (fun () -> at Float.nan);
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.schedule_after: delay is NaN") (fun () ->
      Sim.schedule_after sim ~delay:Float.nan ignore);
  Alcotest.(check int) "queue unchanged" 1 (Sim.pending sim);
  List.iter at [ infinity; 0.5; 2.0 ];
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "time order, +inf last"
    [ 0.5; 1.0; 2.0; infinity ] (List.rev !fired)

let test_reset () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule sim ~at:2.0 (fun () -> fired := Sim.now sim :: !fired);
  Alcotest.check_raises "reset refuses pending events"
    (Invalid_argument "Sim.reset: events are pending") (fun () -> Sim.reset sim);
  Alcotest.(check int) "queue unchanged" 1 (Sim.pending sim);
  Sim.run sim;
  Sim.stop sim;
  Sim.reset sim;
  Alcotest.(check (float 0.0)) "clock back to zero" 0.0 (Sim.now sim);
  Sim.schedule sim ~at:0.5 (fun () -> fired := Sim.now sim :: !fired);
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "runs again from zero" [ 2.0; 0.5 ]
    (List.rev !fired)

(* A fired closure must not stay reachable from the sim: the slot table
   clears a slot before it calls the closure. Each closure captures a
   ref registered in a weak array, which the GC can then collect. *)
let test_fired_collectable () =
  let sim = Sim.create () in
  let w = Weak.create 8 in
  let hits = ref 0 in
  for i = 0 to 7 do
    let r = ref i in
    Weak.set w i (Some r);
    Sim.schedule sim ~at:(float_of_int i) (fun () -> hits := !hits + !r + 1)
  done;
  Sim.run sim;
  Alcotest.(check int) "all fired" 36 !hits;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "fired closures are collectable" 0 !live;
  (* Used after the collections, so the sim itself stays reachable. *)
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

exception Handler_failed

(* A handler that raises: the exception reaches the caller, the event
   counts as fired, [pending] still counts the rest, and the raised
   event's slot is free again, so raising over and over does not grow
   the table. *)
let test_handler_raises () =
  let sim = Sim.create () in
  let fired = ref [] in
  let at t = Sim.schedule sim ~at:t (fun () -> fired := t :: !fired) in
  at 1.0;
  Sim.schedule sim ~at:2.0 (fun () -> raise Handler_failed);
  at 3.0;
  Alcotest.check_raises "the handler's exception escapes run" Handler_failed
    (fun () -> Sim.run sim);
  Alcotest.(check int) "one event left" 1 (Sim.pending sim);
  Alcotest.(check int) "two events fired" 2 (Sim.events sim);
  Alcotest.(check (float 0.0)) "clock at the raising event" 2.0 (Sim.now sim);
  let cycle () =
    Sim.schedule sim ~at:(Sim.now sim) (fun () -> raise Handler_failed);
    Alcotest.check_raises "raises" Handler_failed (fun () ->
        ignore (Sim.step sim))
  in
  cycle ();
  let size = Obj.reachable_words (Obj.repr sim) in
  for _ = 1 to 100 do
    cycle ()
  done;
  Alcotest.(check int) "freed slots are reused" size
    (Obj.reachable_words (Obj.repr sim));
  Alcotest.(check int) "still one event left" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "the rest fire in order" [ 1.0; 3.0 ]
    (List.rev !fired);
  Alcotest.(check int) "every event counted" 104 (Sim.events sim)

let test_events_counted () =
  let sim = Sim.create () in
  Alcotest.(check int) "none yet" 0 (Sim.events sim);
  for i = 1 to 5 do
    Sim.schedule sim ~at:(float_of_int i) ignore
  done;
  Sim.run_until sim 3.0;
  Alcotest.(check int) "three fired" 3 (Sim.events sim);
  Sim.run sim;
  Alcotest.(check int) "five fired" 5 (Sim.events sim);
  Sim.reset sim;
  Alcotest.(check int) "reset zeroes the count" 0 (Sim.events sim)

(* [run_until h] then [run] against [run] alone, on random schedules.
   Times and child delays are multiples of 0.5, so many events share an
   instant, the horizon [h] among them, and children land at exactly
   [h] from earlier parents or from parents at [h]. An event with [stop]
   set calls [Sim.stop]; either run is resumed until the queue drains.
   [run_until h] must fire exactly the prefix of [run]'s sequence up to
   [h] — ties at [h] included — and leave the clock at [h], or, if a
   stop fired, at the stopping event's time. *)
type ev = { at : int; children : int list; stop : bool }

let ev_gen =
  QCheck.Gen.(
    map3
      (fun at children stop -> { at; children; stop })
      (int_range 0 10)
      (list_size (int_range 0 3) (int_range 0 4))
      (map (fun k -> k = 0) (int_range 0 15)))

let half k = float_of_int k *. 0.5

(* Schedules [evs] on a fresh sim; [log] gets (time, label)
   of each fired event, the labels being (event, -1) and (event,
   child). *)
let schedule_all evs =
  let sim = Sim.create () in
  let log = ref [] and stopped = ref false in
  List.iteri
    (fun i e ->
      Sim.schedule sim ~at:(half e.at) (fun () ->
          log := (Sim.now sim, (i, -1)) :: !log;
          List.iteri
            (fun j d ->
              Sim.schedule_after sim ~delay:(half d) (fun () ->
                  log := (Sim.now sim, (i, j)) :: !log))
            e.children;
          if e.stop then begin
            stopped := true;
            Sim.stop sim
          end))
    evs;
  (sim, log, stopped)

let rec drain sim = if Sim.pending sim > 0 then (Sim.run sim; drain sim)

let prop_run_until =
  QCheck.Test.make ~name:"run_until h then run = run (calendar)" ~count:300
    QCheck.(
      pair (int_range 0 12)
        (make
           ~print:(fun evs ->
             String.concat "; "
               (List.map
                  (fun e ->
                    Printf.sprintf "%d:[%s]%s" e.at
                      (String.concat "," (List.map string_of_int e.children))
                      (if e.stop then "!" else ""))
                  evs))
           QCheck.Gen.(list_size (int_range 0 12) ev_gen)))
    (fun (hk, evs) ->
      let h = half hk in
      let ref_sim, ref_log, _ = schedule_all evs in
      drain ref_sim;
      let reference = List.rev !ref_log in
      let sim, log, stopped = schedule_all evs in
      Sim.run_until sim h;
      let upto = List.rev !log in
      let clock = Sim.now sim in
      let stopped_early = !stopped in
      drain sim;
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      List.rev !log = reference
      && is_prefix upto reference
      &&
      if stopped_early then
        upto <> [] && clock = fst (List.nth upto (List.length upto - 1))
      else
        clock = h
        && upto = List.filter (fun (t, _) -> t <= h) reference)

let suites =
  [
    ( "sim",
      [
        Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
        Alcotest.test_case "events in order" `Quick test_events_run_in_order;
        Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
        Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
        Alcotest.test_case "run_until horizon" `Quick test_run_until_horizon;
        Alcotest.test_case "run_until no events" `Quick
          test_run_until_advances_clock_without_events;
        Alcotest.test_case "stop" `Quick test_stop;
        Alcotest.test_case "stop leaves clock at stop point" `Quick
          test_stop_leaves_clock_at_stop_point;
        Alcotest.test_case "step" `Quick test_step;
        Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
        Alcotest.test_case "NaN rejected (calendar)" `Quick test_nan_rejected;
        Alcotest.test_case "reset" `Quick test_reset;
        Alcotest.test_case "events counted" `Quick test_events_counted;
        Alcotest.test_case "fired collectable (calendar)" `Quick
          test_fired_collectable;
        Alcotest.test_case "handler raises (calendar)" `Quick
          test_handler_raises;
        QCheck_alcotest.to_alcotest prop_run_until;
      ] );
  ]
