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
   as the latter let it in, after which both queues fired out of order
   (the heap ran 1, 2, 0.5: time went backwards). It must be rejected
   with the queue left as it was; +inf is a legal, last time. *)
let test_nan_rejected engine () =
  let sim = Sim.create ~engine () in
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
  let sim = Sim.create ~engine:Sim.Calendar () in
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
        Alcotest.test_case "NaN rejected (heap)" `Quick
          (test_nan_rejected Sim.Heap);
        Alcotest.test_case "NaN rejected (calendar)" `Quick
          (test_nan_rejected Sim.Calendar);
        Alcotest.test_case "reset" `Quick test_reset;
      ] );
  ]
