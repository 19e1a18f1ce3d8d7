(* Tests for fairness measurement and the delivery log's reorder
   readings. *)

open Stripe_core

let test_measure_basics () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  (* Drive two full rounds with perfectly balanced traffic. *)
  List.iter
    (fun size ->
      ignore (Deficit.select d);
      Deficit.consume d ~size)
    [ 500; 500; 500; 500 ];
  let report = Fairness.measure ~deficit:d ~bytes:[| 1000; 1000 |] ~max_packet:500 in
  Alcotest.(check int) "rounds" 2 report.Fairness.rounds;
  Alcotest.(check (list int)) "entitlement" [ 1000; 1000 ]
    (Array.to_list report.Fairness.entitlement);
  Alcotest.(check int) "max deviation" 0 report.Fairness.max_deviation;
  Alcotest.(check int) "bound" (500 + 1000) report.Fairness.bound;
  Alcotest.(check bool) "within bound" true report.Fairness.within_bound

let test_measure_violation () =
  let d = Srr.create ~quanta:[| 100; 100 |] () in
  List.iter
    (fun size ->
      ignore (Deficit.select d);
      Deficit.consume d ~size)
    [ 100; 100; 100; 100 ];
  let report = Fairness.measure ~deficit:d ~bytes:[| 2000; 0 |] ~max_packet:100 in
  Alcotest.(check bool) "gross imbalance flagged" false report.Fairness.within_bound

let test_measure_arity () =
  let d = Srr.create ~quanta:[| 100; 100 |] () in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Fairness.measure: arity mismatch") (fun () ->
      ignore (Fairness.measure ~deficit:d ~bytes:[| 1 |] ~max_packet:100))

let test_spread () =
  Alcotest.(check int) "spread" 700 (Fairness.spread [| 300; 1000; 500 |]);
  Alcotest.(check int) "spread singleton" 0 (Fairness.spread [| 5 |]);
  Alcotest.(check int) "spread empty" 0 (Fairness.spread [||])

let test_jain_index () =
  Alcotest.(check (float 1e-9)) "perfect fairness" 1.0
    (Fairness.jain_index [| 100; 100; 100 |]);
  Alcotest.(check (float 1e-9)) "single-channel hog over n=2" 0.5
    (Fairness.jain_index [| 100; 0 |]);
  Alcotest.(check (float 1e-9)) "empty treated as fair" 1.0 (Fairness.jain_index [||])

(* The reorder readings of the one delivery log, fed one delivery per
   time unit. *)
module R = Stripe_metrics.Recovery

let log_of seqs =
  let r = R.create () in
  List.iteri (fun i seq -> R.observe r ~now:(float_of_int i) ~seq) seqs;
  r

let test_reorder_in_order_stream () =
  let r = log_of [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check int) "observed" 5 (R.deliveries r);
  Alcotest.(check int) "no late packets" 0 (R.out_of_order r);
  Alcotest.(check int) "no displacement" 0 (R.max_displacement r);
  Alcotest.(check bool) "in order throughout" true
    (R.in_order_after r ~time:neg_infinity)

let test_reorder_late_packet () =
  let r = log_of [ 0; 1; 4; 2; 3; 5 ] in
  Alcotest.(check int) "two late deliveries" 2 (R.out_of_order r);
  Alcotest.(check int) "displacement of 2 after 4" 2 (R.max_displacement r);
  (* Displacements 0 0 0 2 1 0: nearest rank over all six deliveries. *)
  Alcotest.(check int) "median" 0 (R.displacement_percentile r ~p:0.5);
  Alcotest.(check int) "p75 is rank 5" 1 (R.displacement_percentile r ~p:0.75);
  Alcotest.(check int) "p100 is the max" 2 (R.displacement_percentile r ~p:1.0);
  Alcotest.(check (option (float 0.0))) "in order from index 3 on" (Some 3.0)
    (R.resync_time r ~errors_stop:0.0)

let test_reorder_missing () =
  let r = log_of [ 0; 1; 3; 5 ] in
  Alcotest.(check int) "holes are not late" 0 (R.out_of_order r);
  Alcotest.(check int) "holes are not displaced" 0 (R.max_displacement r)

let test_reorder_duplicates_simple () =
  let r = log_of [ 0; 1; 1; 2 ] in
  Alcotest.(check int) "a repeat does not trail the max" 0 (R.out_of_order r);
  Alcotest.(check bool) "but breaks strict order" false
    (R.in_order_after r ~time:neg_infinity)

let prop_reorder_sorted_never_flags =
  QCheck.Test.make ~name:"reorder: strictly increasing stream is clean"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) small_nat)
    (fun xs ->
      let r = log_of (List.sort_uniq compare xs) in
      R.out_of_order r = 0
      && R.displacement_percentile r ~p:1.0 = 0
      && R.in_order_after r ~time:neg_infinity)

let prop_reorder_counts_inversions_vs_max =
  QCheck.Test.make
    ~name:"reorder: late count equals packets below running max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 1000))
    (fun xs ->
      let r = log_of xs in
      let expected_late, expected_max =
        let max_seen = ref min_int and late = ref 0 and disp = ref 0 in
        List.iter
          (fun x ->
            if x < !max_seen then begin
              incr late;
              disp := max !disp (!max_seen - x)
            end;
            if x > !max_seen then max_seen := x)
          xs;
        (!late, !disp)
      in
      R.out_of_order r = expected_late
      && R.max_displacement r = expected_max
      && R.displacement_percentile r ~p:1.0 = expected_max)

let suites =
  [
    ( "fairness+reorder",
      [
        Alcotest.test_case "measure basics" `Quick test_measure_basics;
        Alcotest.test_case "measure violation" `Quick test_measure_violation;
        Alcotest.test_case "measure arity" `Quick test_measure_arity;
        Alcotest.test_case "spread" `Quick test_spread;
        Alcotest.test_case "jain index" `Quick test_jain_index;
        Alcotest.test_case "reorder clean stream" `Quick test_reorder_in_order_stream;
        Alcotest.test_case "reorder late packet" `Quick test_reorder_late_packet;
        Alcotest.test_case "reorder missing" `Quick test_reorder_missing;
        Alcotest.test_case "reorder duplicates" `Quick test_reorder_duplicates_simple;
        QCheck_alcotest.to_alcotest prop_reorder_sorted_never_flags;
        QCheck_alcotest.to_alcotest prop_reorder_counts_inversions_vs_max;
      ] );
  ]
