(* Metamorphic relations: exact checks that need no second
   implementation. A relation transforms a run's input and states how
   its output must change; where binary floating point makes the
   transformation exact, so is the check.

   Time scaling by 2: doubling every rate and halving every delay and
   the offer interval halves every serialization and propagation time
   exactly, so the scaled run must emit the same events in the same
   order, each at exactly half the time. The calendar queue derives its
   bucket width from the times it holds, so this also checks that its
   pop order does not depend on that width. *)

open Stripe_netsim
open Stripe_core

(* A seeded, lossy two-channel bundle: SRR with markers every 4 rounds
   into logical reception, [rate] bps per channel with one-way [delays],
   1% Bernoulli loss on channel 0, and 3000 bimodal packets offered one
   every [every] seconds. Returns every observability event, in
   emission order. *)
let lossy_pair ~rate ~delays ~every =
  let sim = Sim.create () in
  let sink = Stripe_obs.Sink.collector () in
  let rng = Rng.create 7 in
  let rates = [| rate; rate |] in
  let b =
    Bundle.create sim
      ~scheduler:
        (Scheduler.of_deficit ~name:"SRR"
           (Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 ()))
      ~channels:(Array.map2 (fun r d -> (r, d)) rates delays)
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~rng ~sink ~deliver:ignore ()
  in
  Link.set_loss (Bundle.links b).(0) (Loss.bernoulli ~p:0.01);
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  ignore (Bundle.pace b ~every ~count:3000 gen);
  Sim.run sim;
  Stripe_obs.Sink.events sink

let test_time_scaling () =
  let base = lossy_pair ~rate:10e6 ~delays:[| 0.002; 0.004 |] ~every:3e-4 in
  let fast =
    lossy_pair ~rate:(2.0 *. 10e6)
      ~delays:[| 0.002 /. 2.0; 0.004 /. 2.0 |]
      ~every:(3e-4 /. 2.0)
  in
  let count kind =
    List.length (List.filter (fun e -> e.Stripe_obs.Event.kind = kind) base)
  in
  Alcotest.(check bool) "the run lost packets" true (count Drop > 0);
  Alcotest.(check bool) "the run skipped on markers" true (count Skip > 0);
  Alcotest.(check int) "same number of events" (List.length base)
    (List.length fast);
  List.iteri
    (fun i ((b : Stripe_obs.Event.t), (f : Stripe_obs.Event.t)) ->
      if b <> { f with time = 2.0 *. f.time } then
        Alcotest.failf "event %d: %s at 1x, %s at 2x (times doubled)" i
          (Stripe_obs.Event.to_json b)
          (Stripe_obs.Event.to_json { f with time = 2.0 *. f.time }))
    (List.combine base fast)

let suites =
  [
    ( "relations",
      [ Alcotest.test_case "time scaling by 2" `Quick test_time_scaling ] );
  ]
