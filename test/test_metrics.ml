(* Tests for summary statistics, throughput meters, recovery measurement,
   and table rendering. *)

open Stripe_metrics

let test_summary_moments () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Summary.mean s);
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13809 (Summary.stddev s);
  Alcotest.(check (float 0.0)) "min" 2.0 (Summary.min_value s);
  Alcotest.(check (float 0.0)) "max" 9.0 (Summary.max_value s);
  Alcotest.(check (float 0.0)) "total" 40.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Summary.mean s);
  Alcotest.(check (float 0.0)) "stddev of empty" 0.0 (Summary.stddev s);
  Alcotest.check_raises "min of empty raises"
    (Invalid_argument "Summary.min_value: empty") (fun () ->
      ignore (Summary.min_value s))

let test_summary_percentile () =
  let s = Summary.create ~keep_samples:true () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Summary.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Summary.percentile s 99.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Summary.percentile s 100.0)

let test_summary_percentile_requires_samples () =
  let s = Summary.create () in
  Summary.add s 1.0;
  Alcotest.check_raises "percentile without retention"
    (Invalid_argument "Summary.percentile: samples not kept") (fun () ->
      ignore (Summary.percentile s 50.0))

let test_throughput () =
  let t = Throughput.create () in
  Throughput.account t ~now:1.0 ~bytes:1000;
  Throughput.account t ~now:2.0 ~bytes:1000;
  Throughput.account t ~now:3.0 ~bytes:1000;
  Alcotest.(check int) "bytes" 3000 (Throughput.bytes t);
  Alcotest.(check int) "packets" 3 (Throughput.packets t);
  Alcotest.(check (float 1e-9)) "duration from first account" 2.0
    (Throughput.duration t);
  (* 2000 payload bytes over the 2 s window after the epoch packet. *)
  Alcotest.(check (float 1e-6)) "bps" 12000.0 (Throughput.bps t);
  Alcotest.(check (float 1e-9)) "mbps" 0.012 (Throughput.mbps t)

let test_throughput_epoch () =
  let t = Throughput.create () in
  Throughput.start_at t 0.0;
  Throughput.account t ~now:2.0 ~bytes:1000;
  Alcotest.(check (float 1e-9)) "explicit epoch" 2.0 (Throughput.duration t);
  Alcotest.(check (float 1e-6)) "rate over epoch window" 4000.0 (Throughput.bps t)

let test_throughput_window () =
  let t = Throughput.create ~capacity_bps:8000.0 () in
  Throughput.start_at t 0.0;
  Throughput.stop_at t 2.0;
  Throughput.account t ~now:1.0 ~bytes:1000;
  Throughput.account t ~now:2.0 ~bytes:1000;
  (* Drained after the window: neither counted nor stretching it. *)
  Throughput.account t ~now:3.0 ~bytes:1000;
  Alcotest.(check int) "bytes within window" 2000 (Throughput.bytes t);
  Alcotest.(check int) "packets within window" 2 (Throughput.packets t);
  Alcotest.(check (float 1e-9)) "duration is the window" 2.0
    (Throughput.duration t);
  Alcotest.(check (float 1e-6)) "rate over the window" 8000.0
    (Throughput.bps t);
  let over = Throughput.create ~capacity_bps:7999.0 () in
  Throughput.start_at over 0.0;
  Throughput.stop_at over 1.0;
  Throughput.account over ~now:1.0 ~bytes:1000;
  Alcotest.check_raises "rate above capacity"
    (Failure "goodput 0.01 Mbps exceeds the links' 0.01 Mbps") (fun () ->
      ignore (Throughput.mbps over))

let test_recovery_immediate () =
  let r = Recovery.create () in
  List.iteri (fun i seq -> Recovery.observe r ~now:(float_of_int i) ~seq)
    [ 0; 1; 2; 3 ];
  Alcotest.(check (option (float 0.0))) "already in order" (Some 0.0)
    (Recovery.resync_time r ~errors_stop:1.0)

let test_recovery_after_disorder () =
  let r = Recovery.create () in
  (* Disordered until t=3, in order from t=4 on. *)
  List.iter (fun (now, seq) -> Recovery.observe r ~now ~seq)
    [ (0.0, 0); (1.0, 5); (2.0, 2); (3.0, 8); (4.0, 7); (5.0, 9); (6.0, 10) ];
  (match Recovery.resync_time r ~errors_stop:3.5 with
  | Some dt -> Alcotest.(check (float 1e-9)) "resync at t=4" 0.5 dt
  | None -> Alcotest.fail "expected recovery");
  Alcotest.(check bool) "in order after 3.5" true
    (Recovery.in_order_after r ~time:3.5);
  Alcotest.(check bool) "not in order after 0.5" false
    (Recovery.in_order_after r ~time:0.5)

let test_recovery_never () =
  let r = Recovery.create () in
  List.iter (fun (now, seq) -> Recovery.observe r ~now ~seq)
    [ (0.0, 0); (1.0, 2); (2.0, 1) ];
  Alcotest.(check (option (float 0.0))) "no post-stop deliveries in suffix" None
    (Recovery.resync_time r ~errors_stop:5.0)

let test_recovery_out_of_order_count () =
  let r = Recovery.create () in
  List.iter (fun (now, seq) -> Recovery.observe r ~now ~seq)
    [ (0.0, 0); (1.0, 3); (2.0, 1); (3.0, 2); (4.0, 4) ];
  Alcotest.(check int) "late in tail" 2 (Recovery.out_of_order_after r ~time:0.5);
  Alcotest.(check (list (float 0.0))) "times of the late deliveries"
    [ 2.0; 3.0 ] (Recovery.late_times r);
  (* A repeat of the running maximum trails nothing: it is not late. *)
  Recovery.observe r ~now:5.0 ~seq:4;
  Alcotest.(check int) "repeat is in order" 2 (Recovery.out_of_order r)

let test_recovery_displacement_edges () =
  let r = Recovery.create () in
  Alcotest.(check int) "empty: no late deliveries" 0 (Recovery.out_of_order r);
  Alcotest.(check (list (float 0.0))) "empty: no late times" []
    (Recovery.late_times r);
  Alcotest.(check int) "empty: no displacement" 0 (Recovery.max_displacement r);
  Alcotest.(check int) "empty: p99 is 0" 0
    (Recovery.displacement_percentile r ~p:0.99);
  Alcotest.check_raises "p above 1"
    (Invalid_argument "Recovery.displacement_percentile: p must be in [0, 1]")
    (fun () -> ignore (Recovery.displacement_percentile r ~p:1.5));
  List.iter (fun (now, seq) -> Recovery.observe r ~now ~seq)
    [ (0.0, 9); (1.0, 0); (2.0, 3); (3.0, 1); (4.0, 2) ];
  (* The whole log trails 9; the tail after t=0.5 keeps its own maximum. *)
  Alcotest.(check int) "late over the log" 4 (Recovery.out_of_order r);
  Alcotest.(check (list (float 0.0))) "late times over the log"
    [ 1.0; 2.0; 3.0; 4.0 ] (Recovery.late_times r);
  Alcotest.(check int) "late in the tail" 2
    (Recovery.out_of_order_after r ~time:0.5);
  Alcotest.(check int) "max displacement" 9 (Recovery.max_displacement r);
  Alcotest.(check int) "p0 is the smallest" 0
    (Recovery.displacement_percentile r ~p:0.0)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let expected = "T\na    bb\n---  --\n1    2 \n333  4 \n" in
  Alcotest.(check string) "aligned" expected (Table.render t)

let test_table_arity () =
  let t = Table.create ~title:"T" ~columns:[ "a" ] in
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_rowf () =
  let t = Table.create ~title:"T" ~columns:[ "x"; "y" ] in
  Table.add_rowf t "%d|%s" 5 "hi";
  Alcotest.(check bool) "formatted row present" true
    (String.length (Table.render t) > 0)

let test_series () =
  let s =
    Table.series ~title:"fig" ~x_label:"x" ~x:[ 1.0; 2.0 ]
      [ ("a", [ 10.0; 20.0 ]); ("b", [ 1.5; 2.5 ]) ]
  in
  Alcotest.(check bool) "contains series name" true
    (String.length s > 0 && String.index_opt s 'a' <> None)

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "summary moments" `Quick test_summary_moments;
        Alcotest.test_case "summary empty" `Quick test_summary_empty;
        Alcotest.test_case "summary percentile" `Quick test_summary_percentile;
        Alcotest.test_case "percentile retention" `Quick
          test_summary_percentile_requires_samples;
        Alcotest.test_case "throughput" `Quick test_throughput;
        Alcotest.test_case "throughput epoch" `Quick test_throughput_epoch;
        Alcotest.test_case "throughput window" `Quick test_throughput_window;
        Alcotest.test_case "recovery immediate" `Quick test_recovery_immediate;
        Alcotest.test_case "recovery after disorder" `Quick
          test_recovery_after_disorder;
        Alcotest.test_case "recovery never" `Quick test_recovery_never;
        Alcotest.test_case "recovery ooo count" `Quick
          test_recovery_out_of_order_count;
        Alcotest.test_case "recovery displacement edges" `Quick
          test_recovery_displacement_edges;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_arity;
        Alcotest.test_case "table rowf" `Quick test_table_rowf;
        Alcotest.test_case "series" `Quick test_series;
      ] );
  ]
