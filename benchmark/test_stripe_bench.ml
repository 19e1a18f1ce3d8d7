(* Every workload at 1/100 size, traced and untraced, on the default seed
   and on the held-out seed 7: all correctness checks pass, and the
   per-layer self times of the traced run add up to its total. *)

module W = Stripe_benchmark.Workloads
module R = Stripe_benchmark.Runner
module Span = Stripe_benchmark.Span

let check_workload (w : W.t) ~seed ~trace () =
  let r = R.run w ~seed ~seconds:0.0 ~trace ~scale:0.01 in
  Alcotest.(check (list string)) "no failed checks" [] r.failures;
  Alcotest.(check bool) "packets attempted" true (r.attempted > 0);
  Alcotest.(check int) "no packets failed" 0 r.failed;
  let names = List.map (fun (m : R.metric) -> m.name) in
  Alcotest.(check (list string))
    "end-to-end metrics"
    [
      "cpu_ns_per_pkt";
      "setup_s";
      "minor_words_per_pkt";
      "promoted_words_per_pkt";
      "peak_heap_mb";
      "delivered_frac";
      "goodput_mbps";
    ]
    (names r.e2e);
  match r.recorder with
  | None -> Alcotest.(check int) "no per-layer metrics untraced" 0 (List.length r.layers)
  | Some t ->
    Alcotest.(check int) "self times sum to the traced total"
      (Span.total_ns t W.l_sim) (R.accounted_ns t);
    Alcotest.(check bool) "traced run took time" true (R.accounted_ns t > 0)

let () =
  Alcotest.run "stripe_bench"
    (List.map
       (fun (w : W.t) ->
         ( w.name,
           List.concat_map
             (fun seed ->
               List.map
                 (fun trace ->
                   Alcotest.test_case
                     (Printf.sprintf "seed %d %s" seed
                        (if trace then "traced" else "untraced"))
                     `Quick
                     (check_workload w ~seed ~trace))
                 [ false; true ])
             [ 42; 7 ] ))
       W.all)
