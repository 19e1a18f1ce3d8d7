(* Tests for the CFQ view of [Scheduler] and the load-sharing
   transformation: the Figure 2/3 worked example and the executable
   E <-> E' correspondence at the heart of Theorem 3.1's proof, run on
   the same scheduler constructors the striper runs. *)

open Stripe_core
open Stripe_packet

let srr_cfq quanta = Scheduler.srr ~quanta ()

(* The paper's packets: identifier, size. *)
let a = (550, "a")
let b = (150, "b")
let c = (300, "c")
let d = (200, "d")
let e = (400, "e")
let f = (400, "f")

let test_figure2_fair_queue () =
  let cfq = srr_cfq [| 500; 500 |] in
  let queues = [| [ a; b; c ]; [ d; e; f ] |] in
  match Scheduler.fair_queue cfq queues with
  | None -> Alcotest.fail "execution left the backlogged regime"
  | Some order ->
    Alcotest.(check (list string)) "Figure 2 service order"
      [ "a"; "d"; "e"; "b"; "c"; "f" ]
      (List.map (fun (_, (_, id)) -> id) order)

let test_figure3_load_share () =
  let cfq = srr_cfq [| 500; 500 |] in
  let input = [ a; d; e; b; c; f ] in
  let dispatch = Scheduler.load_share cfq input in
  Alcotest.(check (list (pair int string))) "Figure 3 dispatch"
    [ (0, "a"); (1, "d"); (1, "e"); (0, "b"); (0, "c"); (1, "f") ]
    (List.map (fun (ch, (_, id)) -> (ch, id)) dispatch)

let test_outputs_by_channel () =
  let dispatch = [ (0, "x"); (1, "y"); (0, "z") ] in
  let grouped = Scheduler.outputs_by_channel ~n:2 dispatch in
  Alcotest.(check (list string)) "channel 0" [ "x"; "z" ] grouped.(0);
  Alcotest.(check (list string)) "channel 1" [ "y" ] grouped.(1)

let test_fair_queue_detects_starvation () =
  (* Queue 1 empty while queue 0 still holds packets: RR immediately
     selects the exhausted queue in round 0 -> non-backlogged. *)
  let cfq = Scheduler.rr ~n:2 () in
  let queues = [| [ (100, "p"); (100, "q") ]; [] |] in
  Alcotest.(check bool) "returns None outside backlogged regime" true
    (Scheduler.fair_queue cfq queues = None)

(* Theorem 3.1's correspondence, executable: striping an input and then
   fair-queuing the per-channel outputs reproduces the input exactly. *)
let duality_roundtrip cfq input =
  let dispatch = Scheduler.load_share cfq input in
  let queues =
    Scheduler.outputs_by_channel ~n:(Scheduler.n_channels cfq) dispatch
  in
  match Scheduler.fair_queue cfq queues with
  | None -> false
  | Some order -> List.map snd order = input

let test_duality_paper_example () =
  Alcotest.(check bool) "paper example round-trips" true
    (duality_roundtrip (srr_cfq [| 500; 500 |]) [ a; d; e; b; c; f ])

let sizes_gen = QCheck.(list_of_size (Gen.int_range 0 300) (Arb.int_range 1 1500))

let prop_duality_srr =
  QCheck.Test.make ~name:"duality: SRR load_share inverts via fair_queue"
    ~count:150
    QCheck.(pair (Arb.int_range 1 5) sizes_gen)
    (fun (n, sizes) ->
      let quanta = Array.make n 1500 in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip (srr_cfq quanta) input)

let prop_duality_uneven_quanta =
  QCheck.Test.make ~name:"duality holds for weighted quanta" ~count:150
    sizes_gen
    (fun sizes ->
      let cfq = srr_cfq [| 1500; 3000; 4500 |] in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_rr =
  QCheck.Test.make ~name:"duality holds for RR" ~count:100 sizes_gen
    (fun sizes ->
      let cfq = Scheduler.rr ~n:3 () in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_seeded_random =
  QCheck.Test.make ~name:"duality holds for seeded RFQ" ~count:100 sizes_gen
    (fun sizes ->
      let cfq = Scheduler.seeded_rfq ~n:4 ~seed:31 in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

(* The audit the fixed-interleaving tests above miss: [Srr.for_rates]
   derives quanta by scaling and rounding a rate vector (clamping to
   >= 1, inflating to restore Quantum_i >= Max), so the engine the
   duality runs over is itself a function of arbitrary float inputs.
   Random rate skews x random size sequences probe exactly the
   clamp/rounding corners. *)
let rates_gen = QCheck.(list_of_size (Gen.int_range 1 5) (Arb.int_range 1 40))

let rates_bps_of mbps =
  Array.of_list (List.map (fun m -> 1e6 *. float_of_int m) mbps)

let prop_duality_for_rates =
  QCheck.Test.make
    ~name:"duality: for_rates-derived quanta under random sizes" ~count:200
    QCheck.(pair rates_gen sizes_gen)
    (fun (mbps, sizes) ->
      let rates_bps = rates_bps_of mbps in
      let cfq =
        Scheduler.of_deficit ~name:"SRR/for_rates"
          (Srr.for_rates ~max_packet:1500 ~rates_bps ~quantum_unit:1500 ())
      in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_sprinklers =
  QCheck.Test.make
    ~name:"duality holds for Sprinklers (seeded permuted rounds)" ~count:200
    QCheck.(triple small_nat rates_gen sizes_gen)
    (fun (seed, mbps, sizes) ->
      let rates_bps = rates_bps_of mbps in
      let cfq =
        Scheduler.of_deficit ~name:"Sprinklers"
          (Sprinklers.for_rates ~max_packet:1500 ~seed ~rates_bps
             ~quantum_unit:1500 ())
      in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_load_aware =
  QCheck.Test.make ~name:"duality holds for pure min-load selection"
    ~count:200
    QCheck.(pair rates_gen sizes_gen)
    (fun (w, sizes) ->
      let weights = Array.of_list (List.map float_of_int w) in
      let cfq = Scheduler.min_load ~weights ~n:(Array.length weights) () in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

(* Every discipline [stripe_sim --scheduler] offers, built through the
   one discipline table over a random rate vector: the round trip holds
   for each causal one. The table's two non-causal entries are named
   here, so a discipline that changes side fails the property. *)
let non_causal = [ Scheduler.Load_aware; Scheduler.Random ]

let prop_duality_stripe_sim_disciplines =
  QCheck.Test.make
    ~name:"duality holds for every causal stripe_sim discipline" ~count:100
    QCheck.(triple small_nat rates_gen sizes_gen)
    (fun (seed, mbps, sizes) ->
      let input = List.mapi (fun i size -> (size, i)) sizes in
      List.for_all
        (fun (_, d) ->
          let s =
            Scheduler.of_discipline d ~rates_bps:(rates_bps_of mbps) ~seed
              ~debt:(fun _ -> 0.0)
          in
          if List.mem d non_causal then not (Scheduler.causal s)
          else Scheduler.causal s && duality_roundtrip s input)
        Scheduler.disciplines)

(* Only a causal f(s) can be evaluated before the served packet is
   known: both directions refuse the non-causal baselines. *)
let test_non_causal_refused () =
  let random = Scheduler.random_selection ~n:2 ~seed:1 in
  Alcotest.check_raises "load_share"
    (Invalid_argument "Scheduler.load_share: non-causal scheduler")
    (fun () -> ignore (Scheduler.load_share random [ a ]));
  Alcotest.check_raises "fair_queue"
    (Invalid_argument "Scheduler.fair_queue: non-causal scheduler")
    (fun () -> ignore (Scheduler.fair_queue random [| [ a ]; [] |]))

(* The RFQ checks drive [Scheduler.seeded_rfq] through [choose] and
   [account], as the striper does. *)
let probe = Packet.data ~seq:0 ~size:100 ()

let pick s =
  let c = Scheduler.choose s probe in
  Scheduler.account s probe c;
  c

let picks s k = List.init k (fun _ -> pick s)

let test_seeded_random_is_causal () =
  (* Two instances from the same configuration make identical decisions:
     exactly what lets a seed-sharing receiver simulate the sender. *)
  let rfq = Scheduler.seeded_rfq ~n:5 ~seed:7 in
  Alcotest.(check bool) "marked causal" true (Scheduler.causal rfq);
  Alcotest.(check (list int)) "identical selection streams"
    (picks rfq 200)
    (picks (Scheduler.seeded_rfq ~n:5 ~seed:7) 200)

let test_seeded_random_select_stable () =
  let rfq = Scheduler.seeded_rfq ~n:5 ~seed:7 in
  let first = Scheduler.choose rfq probe in
  Alcotest.(check int) "repeated select stable before update" first
    (Scheduler.choose rfq probe);
  Scheduler.account rfq probe first;
  ignore (Scheduler.choose rfq probe)

(* §5 reset-barrier degenerate cases. The reseed point must discard a
   draw cached by a [choose] whose packet never dispatched (a packet
   selected but still queued when the barrier fired): keeping it would
   leave the sender consuming draw k while the receiver's replay
   consumes draw k+1, permanently offset. *)
let test_seeded_random_reset_discards_cached_draw () =
  let sender = Scheduler.seeded_rfq ~n:5 ~seed:7 in
  ignore (picks sender 17);
  (* A selection that never reaches [account]... *)
  ignore (Scheduler.choose sender probe);
  (* ...then the barrier. *)
  let sender = Scheduler.reset sender in
  (* The receiver joins the barrier by restarting its replay at s0. *)
  let receiver = Scheduler.seeded_rfq ~n:5 ~seed:7 in
  Alcotest.(check (list int)) "post-barrier selection streams aligned"
    (picks receiver 100) (picks sender 100)

let test_seeded_random_single_channel_reset () =
  (* n = 1: every draw maps to channel 0, so a desync would be silent —
     the reset still must not raise, must stay on channel 0, and must
     keep sender and replay draw-aligned (observable once the membership
     grows back, covered by the n > 1 test above). *)
  let rfq = Scheduler.seeded_rfq ~n:1 ~seed:3 in
  ignore (Scheduler.choose rfq probe);
  let rfq = Scheduler.reset rfq in
  for _ = 1 to 50 do
    Alcotest.(check int) "single channel" 0 (pick rfq)
  done;
  let rfq = Scheduler.reset rfq in
  Alcotest.(check int) "still channel 0 after second barrier" 0
    (Scheduler.choose rfq probe)

let test_seeded_random_spread () =
  let rfq = Scheduler.seeded_rfq ~n:4 ~seed:11 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let ch = pick rfq in
    counts.(ch) <- counts.(ch) + 1
  done;
  Alcotest.(check bool) "RFQ spreads across all channels" true
    (Array.for_all (fun c -> c > 800 && c < 1200) counts)

let suites =
  [
    ( "cfq",
      [
        Alcotest.test_case "figure 2 fair queuing" `Quick test_figure2_fair_queue;
        Alcotest.test_case "figure 3 load sharing" `Quick test_figure3_load_share;
        Alcotest.test_case "outputs_by_channel" `Quick test_outputs_by_channel;
        Alcotest.test_case "starvation detected" `Quick
          test_fair_queue_detects_starvation;
        Alcotest.test_case "duality paper example" `Quick test_duality_paper_example;
        Alcotest.test_case "non-causal refused" `Quick test_non_causal_refused;
        Alcotest.test_case "seeded random causal" `Quick test_seeded_random_is_causal;
        Alcotest.test_case "seeded random stable select" `Quick
          test_seeded_random_select_stable;
        Alcotest.test_case "seeded random spread" `Quick test_seeded_random_spread;
        Alcotest.test_case "seeded random reset discards cached draw" `Quick
          test_seeded_random_reset_discards_cached_draw;
        Alcotest.test_case "seeded random n=1 reset" `Quick
          test_seeded_random_single_channel_reset;
        QCheck_alcotest.to_alcotest prop_duality_srr;
        QCheck_alcotest.to_alcotest prop_duality_uneven_quanta;
        QCheck_alcotest.to_alcotest prop_duality_rr;
        QCheck_alcotest.to_alcotest prop_duality_seeded_random;
        QCheck_alcotest.to_alcotest prop_duality_for_rates;
        QCheck_alcotest.to_alcotest prop_duality_sprinklers;
        QCheck_alcotest.to_alcotest prop_duality_load_aware;
        QCheck_alcotest.to_alcotest prop_duality_stripe_sim_disciplines;
      ] );
  ]
