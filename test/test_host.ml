(* Tests for the host model: CPU work queue and NIC interrupt
   coalescing — the mechanism behind Figure 15's saturation shape. *)

open Stripe_netsim
open Stripe_host

let test_cpu_serializes_work () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let log = ref [] in
  Cpu.execute cpu ~cost:0.010 (fun () -> log := ("a", Sim.now sim) :: !log);
  Cpu.execute cpu ~cost:0.020 (fun () -> log := ("b", Sim.now sim) :: !log);
  Sim.run sim;
  match List.rev !log with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check (float 1e-9)) "first completes at its cost" 0.010 ta;
    Alcotest.(check (float 1e-9)) "second queues behind first" 0.030 tb
  | _ -> Alcotest.fail "expected two completions"

let test_cpu_idle_gap () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let t = ref 0.0 in
  Cpu.execute cpu ~cost:0.010 (fun () -> ());
  Sim.run sim;
  (* Submit again after the CPU went idle: starts at now, not at 0. *)
  Sim.schedule sim ~at:1.0 (fun () ->
      Cpu.execute cpu ~cost:0.005 (fun () -> t := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "starts from idle time" 1.005 !t

let test_cpu_accounting () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  Cpu.execute cpu ~cost:0.25 (fun () -> ());
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "busy seconds" 0.25 (Cpu.busy_seconds cpu);
  Alcotest.(check (float 1e-9)) "utilization at completion" 1.0 (Cpu.utilization cpu)

let test_cpu_negative_cost () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Cpu.execute: negative cost") (fun () ->
      Cpu.execute cpu ~cost:(-1.0) (fun () -> ()))

let test_nic_single_packet () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let got = ref [] in
  let nic =
    Nic.create ~cpu ~intr_cost:0.001 ~per_packet_cost:0.0005
      ~deliver:(fun v -> got := (v, Sim.now sim) :: !got)
      ()
  in
  Nic.rx nic "p";
  Sim.run sim;
  (match !got with
  | [ ("p", t) ] ->
    Alcotest.(check (float 1e-9)) "intr + 1 packet cost" 0.0015 t
  | _ -> Alcotest.fail "expected one delivery");
  Alcotest.(check int) "one interrupt" 1 (Nic.interrupts nic)

let test_nic_coalescing_under_burst () =
  (* A burst that arrives while the handler is busy is drained by far
     fewer interrupts than packets. *)
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let n = ref 0 in
  let nic =
    Nic.create ~cpu ~intr_cost:0.001 ~per_packet_cost:0.0001
      ~deliver:(fun _ -> incr n)
      ()
  in
  for i = 0 to 99 do
    Sim.schedule sim ~at:(float_of_int i *. 0.00001) (fun () -> Nic.rx nic i)
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 100 !n;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d interrupts for 100 packets" (Nic.interrupts nic))
    true
    (Nic.interrupts nic < 20);
  Alcotest.(check bool) "mean batch > 5" true (Nic.mean_batch nic > 5.0)

let test_nic_split_load_more_interrupts () =
  (* The same aggregate arrival rate split over two NICs takes more
     interrupts than over one: the Figure 15 striping overhead. *)
  let run n_nics =
    let sim = Sim.create () in
    let cpu = Cpu.create sim () in
    let nics =
      Array.init n_nics (fun _ ->
          Nic.create ~cpu
            ~intr_cost:0.0005 ~per_packet_cost:0.0001
            ~deliver:(fun _ -> ())
            ())
    in
    for i = 0 to 399 do
      Sim.schedule sim ~at:(float_of_int i *. 0.0002) (fun () ->
          Nic.rx nics.(i mod n_nics) i)
    done;
    Sim.run sim;
    Array.fold_left (fun acc nic -> acc + Nic.interrupts nic) 0 nics
  in
  let one = run 1 and two = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "interrupts: 1 NIC %d < 2 NICs %d" one two)
    true (one < two)

let test_nic_rx_budget () =
  (* A bounded rx budget splits a burst into several activations instead
     of one big batch. *)
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let n = ref 0 in
  let nic =
    Nic.create ~cpu ~max_batch:4 ~intr_cost:0.001 ~per_packet_cost:0.0001
      ~deliver:(fun _ -> incr n)
      ()
  in
  for i = 0 to 19 do
    Nic.rx nic i
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 20 !n;
  Alcotest.(check bool)
    (Printf.sprintf "budget forces >= 5 activations (got %d)" (Nic.interrupts nic))
    true
    (Nic.interrupts nic >= 5);
  Alcotest.(check bool) "mean batch capped at the budget" true
    (Nic.mean_batch nic <= 4.0)

let test_nic_budget_validation () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Nic.create: max_batch must be positive") (fun () ->
      ignore
        (Nic.create ~cpu ~max_batch:0 ~intr_cost:1.0 ~per_packet_cost:1.0
           ~deliver:(fun (_ : int) -> ())
           ()))

let test_nic_ring_overflow () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim () in
  let nic =
    Nic.create ~cpu ~ring_capacity:4 ~intr_cost:1.0 ~per_packet_cost:0.1
      ~deliver:(fun _ -> ())
      ()
  in
  (* The handler takes 1 s; ten immediate arrivals overflow the 4-slot
     ring. *)
  for i = 0 to 9 do
    Nic.rx nic i
  done;
  Alcotest.(check int) "drops counted" 6 (Nic.ring_drops nic);
  Sim.run sim;
  Alcotest.(check int) "survivors delivered" 4 (Nic.packets nic)

let suites =
  [
    ( "host",
      [
        Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes_work;
        Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
        Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
        Alcotest.test_case "cpu negative cost" `Quick test_cpu_negative_cost;
        Alcotest.test_case "nic single packet" `Quick test_nic_single_packet;
        Alcotest.test_case "nic coalescing" `Quick test_nic_coalescing_under_burst;
        Alcotest.test_case "nic split load" `Quick test_nic_split_load_more_interrupts;
        Alcotest.test_case "nic rx budget" `Quick test_nic_rx_budget;
        Alcotest.test_case "nic budget validation" `Quick test_nic_budget_validation;
        Alcotest.test_case "nic ring overflow" `Quick test_nic_ring_overflow;
      ] );
  ]
