(* Striping benchmark: one driver for the whole stack.

   Usage, from the repository root:
     dune exec --profile release benchmark/stripe_bench.exe -- \
       [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] \
       [--spans FILE]
   (benchmark/run.sh builds it and passes its arguments through.)

   Each workload repeats for about T seconds (default 20). Every metric
   is printed as "workload metric value unit", with the repeat count and
   quartiles, then one JSON line
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   holds the end-to-end metrics, or with --trace 1 the per-layer ones.
   --spans FILE writes the last traced run's per-layer totals and raw
   spans as JSON lines. The exit code is 1 when a correctness check
   fails, 2 on a usage error. *)

module W = Stripe_benchmark.Workloads
module R = Stripe_benchmark.Runner
module Span = Stripe_benchmark.Span

let usage msg =
  Printf.eprintf
    "stripe_bench: %s\n\
     usage: stripe_bench [--workload NAME|all] [--seed S] [--seconds T] \
     [--trace 0|1] [--spans FILE]\n\
     workloads: %s\n"
    msg
    (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

let print_result (r : R.result) ~trace =
  let line (m : R.metric) =
    let v = R.value m in
    let n = Array.length m.samples in
    if n > 1 then
      Printf.printf "%s %s %.6g %s  # n=%d q1=%.6g q3=%.6g\n" r.workload m.name v
        m.unit_ n (R.quantile m.samples 0.25) (R.quantile m.samples 0.75)
    else Printf.printf "%s %s %.6g %s\n" r.workload m.name v m.unit_
  in
  List.iter line r.e2e;
  List.iter line r.layers;
  let reported = if trace then r.layers else r.e2e in
  let failures =
    r.failures
    @ List.filter_map
        (fun (m : R.metric) ->
          if Float.is_finite (R.value m) then None
          else Some (Printf.sprintf "metric %s is not finite" m.name))
        reported
  in
  List.iter (fun f -> Printf.eprintf "%s: FAIL: %s\n" r.workload f) failures;
  let correct = failures = [] in
  let metrics =
    List.filter_map
      (fun (m : R.metric) ->
        let v = R.value m in
        if Float.is_finite v then
          Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name v m.unit_)
        else None)
      reported
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " metrics);
  correct

let () =
  let workload = ref "all" in
  let seed = ref 42 in
  let seconds = ref 20.0 in
  let trace = ref false in
  let spans = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> seconds := s
      | _ -> usage (Printf.sprintf "--seconds expects a duration, got %S" v));
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> usage (Printf.sprintf "--trace expects 0 or 1, got %S" v));
      parse rest
    | "--spans" :: file :: rest ->
      spans := Some file;
      parse rest
    | arg :: _ -> usage (Printf.sprintf "unexpected argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None -> usage (Printf.sprintf "unknown workload %S" !workload)
  in
  let ok =
    List.fold_left
      (fun ok (w : W.t) ->
        let r =
          R.run w ~seed:!seed ~seconds:!seconds ~trace:!trace ~scale:1.0
        in
        (match (!spans, r.recorder) with
        | Some path, Some t ->
          Span.write t
            (if List.length workloads = 1 then path else path ^ "." ^ w.name)
        | _ -> ());
        print_result r ~trace:!trace && ok)
      true workloads
  in
  exit (if ok then 0 else 1)
