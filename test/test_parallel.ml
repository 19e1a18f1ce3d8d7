(* Tests for the domain runner every parallel section shares: results
   indexed by task, task 0 on the calling domain, failures surfacing at
   the caller, and the [--domains] resolution rule. *)

module Parallel = Stripe_netsim.Parallel

let test_run () =
  let caller = Domain.self () in
  List.iter
    (fun n ->
      let rs = Parallel.run n (fun k -> (k, Domain.self ())) in
      Alcotest.(check (list int))
        (Printf.sprintf "%d tasks: results by task" n)
        (List.init n Fun.id)
        (Array.to_list (Array.map fst rs));
      Alcotest.(check bool) "task 0 runs on the caller" true
        (snd rs.(0) = caller);
      Array.iteri
        (fun k (_, d) ->
          if k > 0 && d = caller then
            Alcotest.failf "task %d ran on the caller" k)
        rs)
    [ 1; 2; 3 ];
  Alcotest.check_raises "no tasks rejected"
    (Invalid_argument "Parallel.run: needs at least one task") (fun () ->
      ignore (Parallel.run 0 Fun.id))

exception Task of int

let test_run_raises () =
  let finished = Atomic.make 0 in
  Alcotest.check_raises "a spawned task's exception reaches the caller"
    (Task 1) (fun () ->
      ignore
        (Parallel.run 3 (fun k ->
             if k >= 1 then raise (Task k);
             Atomic.incr finished)));
  Alcotest.(check int) "the caller's task still ran" 1 (Atomic.get finished)

let test_resolve () =
  Alcotest.(check int) "positive is kept" 3 (Parallel.resolve 3);
  Alcotest.(check int) "0 is auto" (Parallel.auto ()) (Parallel.resolve 0);
  Alcotest.(check bool) "auto is at least 1" true (Parallel.auto () >= 1);
  Alcotest.check_raises "negative is rejected"
    (Invalid_argument "Parallel.resolve: negative domain count") (fun () ->
      ignore (Parallel.resolve (-1)))

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "run: results by task, task 0 on the caller" `Quick
          test_run;
        Alcotest.test_case "run: a task's exception reaches the caller" `Quick
          test_run_raises;
        Alcotest.test_case "resolve rejects a negative count" `Quick
          test_resolve;
      ] );
  ]
