(* Tests for the real fair-queuing discipline (DRR/SRR over an output
   link), including consistency with the backlogged execution that
   [Scheduler.fair_queue] runs, and the non-backlogged behaviors that
   make general FQ non-causal. *)

open Stripe_core
open Stripe_packet

let pkt seq size = Packet.data ~seq ~size ()

let drain fq =
  let rec go acc =
    match Fair_queue.dequeue fq with
    | Some (flow, p) -> go ((flow, p.Packet.seq) :: acc)
    | None -> List.rev acc
  in
  go []

let test_paper_example () =
  (* Figure 5: queues [a b c] / [d e f], quantum 500: service order
     a d e b c f. *)
  let fq = Fair_queue.create ~quanta:[| 500; 500 |] () in
  List.iteri (fun i size -> Fair_queue.enqueue fq ~flow:0 (pkt i size))
    [ 550; 150; 300 ];
  List.iteri (fun i size -> Fair_queue.enqueue fq ~flow:1 (pkt (10 + i) size))
    [ 200; 400; 400 ];
  Alcotest.(check (list (pair int int))) "Figure 5 service order"
    [ (0, 0); (1, 10); (1, 11); (0, 1); (0, 2); (1, 12) ]
    (drain fq)

let test_matches_cfq_when_backlogged () =
  (* The deployable FQ and the duality abstraction agree on backlogged
     inputs: same quanta, same service order. *)
  let rng = Stripe_netsim.Rng.create 12 in
  let quanta = [| 1500; 1500; 1500 |] in
  (* Identical size sequences per flow keep all queues draining in
     lockstep, so the backlogged execution stays backlogged to the
     end. *)
  let shared = List.init 120 (fun _ -> 50 + Stripe_netsim.Rng.int rng 1450) in
  let sizes = Array.init 3 (fun _ -> shared) in
  let fq = Fair_queue.create ~quanta () in
  Array.iteri
    (fun flow list ->
      List.iteri
        (fun i size -> Fair_queue.enqueue fq ~flow (pkt ((flow * 1000) + i) size))
        list)
    sizes;
  let real_order = List.map fst (drain fq) in
  (* Reference: the raw deficit engine driven as the backlogged FQ of
     §3.1, stopped at the instant the backlog assumption first breaks
     (it would select a drained queue). *)
  let d = Srr.create ~quanta () in
  let remaining = Array.map (fun l -> ref l) sizes in
  let rec reference acc =
    let flow = Deficit.select d in
    match !(remaining.(flow)) with
    | [] -> List.rev acc
    | size :: rest ->
      remaining.(flow) := rest;
      Deficit.consume d ~size;
      reference (flow :: acc)
  in
  let ref_order = reference [] in
  let truncated real = List.filteri (fun i _ -> i < List.length ref_order) real in
  Alcotest.(check bool) "reference covers most of the run" true
    (List.length ref_order > 300);
  Alcotest.(check (list int)) "flow service order identical while backlogged"
    ref_order (truncated real_order)

let test_skips_empty_queues () =
  let fq = Fair_queue.create ~quanta:[| 500; 500; 500 |] () in
  Fair_queue.enqueue fq ~flow:2 (pkt 0 400);
  Alcotest.(check (option (pair int int))) "only active flow served"
    (Some (2, 0))
    (Option.map (fun (f, p) -> (f, p.Packet.seq)) (Fair_queue.dequeue fq));
  Alcotest.(check bool) "then empty" true (Fair_queue.dequeue fq = None)

let test_idle_flow_forfeits_credit () =
  let fq = Fair_queue.create ~quanta:[| 1000; 1000 |] () in
  (* Flow 0 sends one tiny packet and goes idle with 900 credit; flow 1
     is backlogged. When flow 0 returns it must not burst 1900 bytes. *)
  Fair_queue.enqueue fq ~flow:0 (pkt 0 100);
  for i = 0 to 9 do
    Fair_queue.enqueue fq ~flow:1 (pkt (100 + i) 1000)
  done;
  ignore (Fair_queue.dequeue fq);
  (* flow 0 served, idle *)
  ignore (Fair_queue.dequeue fq);
  (* flow 1 serving *)
  Fair_queue.enqueue fq ~flow:0 (pkt 1 1000);
  Fair_queue.enqueue fq ~flow:0 (pkt 2 1000);
  let order = List.map fst (drain fq) in
  (* If credit were hoarded, flow 0 would send both packets back to back
     on its first visit. It must alternate. *)
  let rec first_two_zero = function
    | 0 :: 0 :: _ -> true
    | _ :: rest -> first_two_zero rest
    | [] -> false
  in
  ignore first_two_zero;
  let rec has_adjacent_pair = function
    | 0 :: 0 :: _ -> true
    | _ :: rest -> has_adjacent_pair rest
    | [] -> false
  in
  Alcotest.(check bool) "no double service from banked credit" false
    (has_adjacent_pair order)

let test_fairness_on_backlog () =
  let rng = Stripe_netsim.Rng.create 13 in
  let fq = Fair_queue.create ~quanta:[| 1500; 1500 |] () in
  for i = 0 to 1999 do
    Fair_queue.enqueue fq ~flow:(i mod 2)
      (pkt i (50 + Stripe_netsim.Rng.int rng 1450))
  done;
  (* Dequeue most of the backlog, then compare service. *)
  for _ = 1 to 1800 do
    ignore (Fair_queue.dequeue fq)
  done;
  let s0 = Fair_queue.served_bytes fq ~flow:0
  and s1 = Fair_queue.served_bytes fq ~flow:1 in
  Alcotest.(check bool)
    (Printf.sprintf "served bytes within bound: %d vs %d" s0 s1)
    true
    (abs (s0 - s1) <= 1500 + (2 * 1500))

let test_weighted_service () =
  let fq = Fair_queue.create ~quanta:[| 3000; 1000 |] () in
  for i = 0 to 999 do
    Fair_queue.enqueue fq ~flow:(i mod 2) (pkt i 500)
  done;
  (* Stop while both flows are still backlogged. *)
  for _ = 1 to 400 do
    ignore (Fair_queue.dequeue fq)
  done;
  let s0 = Fair_queue.served_bytes fq ~flow:0
  and s1 = Fair_queue.served_bytes fq ~flow:1 in
  let ratio = float_of_int s0 /. float_of_int s1 in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 weights give ratio %.2f" ratio)
    true
    (ratio > 2.5 && ratio < 3.5)

let test_backlog_accounting () =
  let fq = Fair_queue.create ~quanta:[| 500 |] () in
  Fair_queue.enqueue fq ~flow:0 (pkt 0 300);
  Fair_queue.enqueue fq ~flow:0 (pkt 1 200);
  Alcotest.(check int) "backlog" 500 (Fair_queue.backlog fq ~flow:0);
  ignore (Fair_queue.dequeue fq);
  Alcotest.(check int) "after service" 200 (Fair_queue.backlog fq ~flow:0);
  Alcotest.(check bool) "not yet empty" false (Fair_queue.is_empty fq)

let test_validation () =
  Alcotest.check_raises "no flows" (Invalid_argument "Fair_queue.create: no flows")
    (fun () -> ignore (Fair_queue.create ~quanta:[||] ()));
  let fq = Fair_queue.create ~quanta:[| 100 |] () in
  Alcotest.check_raises "bad flow" (Invalid_argument "Fair_queue.enqueue: bad flow")
    (fun () -> Fair_queue.enqueue fq ~flow:3 (pkt 0 10));
  Alcotest.check_raises "marker" (Invalid_argument "Fair_queue.enqueue: marker packet")
    (fun () ->
      Fair_queue.enqueue fq ~flow:0
        (Packet.marker ~channel:0 ~round:0 ~dc:1 ~born:0.0 ()))

let prop_work_conserving =
  QCheck.Test.make ~name:"fair_queue: dequeues everything enqueued" ~count:100
    QCheck.(pair (Arb.int_range 1 4) (list_of_size (Gen.int_range 0 200) (Arb.int_range 1 1500)))
    (fun (n, sizes) ->
      let fq = Fair_queue.create ~quanta:(Array.make n 1500) () in
      List.iteri
        (fun i size -> Fair_queue.enqueue fq ~flow:(i mod n) (pkt i size))
        sizes;
      let out = drain fq in
      List.length out = List.length sizes && Fair_queue.is_empty fq)

let prop_per_flow_fifo =
  QCheck.Test.make ~name:"fair_queue: per-flow order preserved" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_range 0 2) (Arb.int_range 1 1500)))
    (fun jobs ->
      let fq = Fair_queue.create ~quanta:[| 1000; 1000; 1000 |] () in
      List.iteri
        (fun i (flow, size) -> Fair_queue.enqueue fq ~flow (pkt i size))
        jobs;
      let out = drain fq in
      List.for_all
        (fun flow ->
          let seqs = List.filter_map (fun (f, s) -> if f = flow then Some s else None) out in
          List.sort compare seqs = seqs)
        [ 0; 1; 2 ])

let suites =
  [
    ( "fair_queue",
      [
        Alcotest.test_case "paper example" `Quick test_paper_example;
        Alcotest.test_case "matches cfq backlogged" `Quick
          test_matches_cfq_when_backlogged;
        Alcotest.test_case "skips empty queues" `Quick test_skips_empty_queues;
        Alcotest.test_case "idle forfeits credit" `Quick test_idle_flow_forfeits_credit;
        Alcotest.test_case "fairness on backlog" `Quick test_fairness_on_backlog;
        Alcotest.test_case "weighted service" `Quick test_weighted_service;
        Alcotest.test_case "backlog accounting" `Quick test_backlog_accounting;
        Alcotest.test_case "validation" `Quick test_validation;
        QCheck_alcotest.to_alcotest prop_work_conserving;
        QCheck_alcotest.to_alcotest prop_per_flow_fifo;
      ] );
  ]
