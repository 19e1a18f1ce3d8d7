(* Runs one workload for a time budget, checks its outputs, and turns its
   runs into the benchmark's metrics.

   Every repeat sets the workload up afresh and runs its end-to-end path
   once; the end-to-end metrics are medians over repeats. A traced
   repeat also drives the same work untraced and then traced through the
   benchmark's step loop; the per-layer metrics come from the traced
   drive, and the difference between the two drives is the tracing
   overhead. *)

module W = Workloads

type metric = {
  name : string;
  unit_ : string;
  samples : float array;  (** One per repeat; the value is their median. *)
}

type result = {
  workload : string;
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  recorder : Span.t option;  (** The last traced run's spans. *)
}

(* Linear interpolation between order statistics. *)
let quantile samples q =
  let s = Array.copy samples in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let value m = quantile m.samples 0.5

let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* The layers' self times plus the cost of recording them: by
   construction, the traced run's whole duration. *)
let accounted_ns t =
  Array.fold_left ( + ) (Span.overhead_ns t)
    (Array.mapi (fun l _ -> Span.self_ns t l) W.layer_names)

(* Per-layer values of one traced drive. *)
let layer_values t (d : W.section) =
  let pkts = d.exact.delivered in
  let per_pkt l = per (Span.self_ns t l) pkts in
  let per_call l = per (Span.self_ns t l) (Span.count t l) in
  let words_per_call l = per (Span.self_words t l) (Span.count t l) in
  [
    ("sim.ns_per_pkt", "ns/pkt", per_pkt W.l_sim);
    ("sim.words_per_pkt", "words/pkt", per (Span.self_words t W.l_sim) pkts);
    ("sim.events_per_pkt", "events/pkt", per d.events pkts);
    ("workload.ns_per_pkt", "ns/pkt", per_pkt W.l_workload);
    ("striper.push.ns_per_pkt", "ns/pkt", per_pkt W.l_striper);
    ( "striper.push.words_per_pkt",
      "words/pkt",
      per (Span.self_words t W.l_striper) pkts );
    ("markers_per_pkt", "markers/pkt", per d.exact.markers pkts);
    ("link.send.ns_per_call", "ns/call", per_call W.l_link);
    ("link.send.calls_per_pkt", "calls/pkt", per (Span.count t W.l_link) pkts);
    ("resequencer.receive.ns_per_call", "ns/call", per_call W.l_reseq);
    ( "resequencer.receive.words_per_call",
      "words/call",
      words_per_call W.l_reseq );
    ("resequencer.skips", "count", float_of_int d.skips);
    ("resequencer.buffer_high_water_pkts", "pkt", float_of_int d.high_water);
    ("resequencer.reorder_depth_max", "pkt", float_of_int d.reorder_depth_max);
    ("deliver.ns_per_pkt", "ns/pkt", per_pkt W.l_deliver);
    ("pool.push.ns_per_call", "ns/call", per_call W.l_pool_push);
    ("pool.push.words_per_call", "words/call", words_per_call W.l_pool_push);
    ("pool.acquire.ns_per_call", "ns/call", per_call W.l_pool_acquire);
    ("pool.release.ns_per_call", "ns/call", per_call W.l_pool_release);
    ("pool.slots", "count", float_of_int d.slots);
    ("trace.ns_per_pkt", "ns/pkt", per (Span.overhead_ns t) pkts);
    ("traced.ns_per_pkt", "ns/pkt", per (Span.total_ns t W.l_sim) pkts);
    ("latency_p50_ms", "ms", d.exact.latency_p50_ms);
    ("latency_p99_ms", "ms", d.exact.latency_p99_ms);
    ("latency_p999_ms", "ms", d.exact.latency_p999_ms);
    ("seq_inversions", "count", float_of_int d.exact.seq_inversions);
    ("share_err_p50", "ratio", d.exact.share_err_p50);
    ("share_err_p99", "ratio", d.exact.share_err_p99);
  ]

(* Per-layer values taken from a repeat's end-to-end run. *)
let run_layer_values ~inputs_s (s : W.section) =
  let sh f = match s.sharded with Some x -> f x | None -> 0.0 in
  [
    ("pps", "pkt/s", float_of_int s.exact.delivered /. s.gc.wall_s);
    ("workload.inputs_s", "s", inputs_s);
    ("sharded.shard_wall_max_s", "s", sh (fun x -> x.W.shard_wall_max_s));
    ("sharded.shard_wall_min_s", "s", sh (fun x -> x.W.shard_wall_min_s));
    ("sharded.efficiency", "ratio", sh (fun x -> x.W.efficiency));
    ("sharded.merge_s", "s", sh (fun x -> x.W.merge_s));
    ("gc.minor_collections", "count", float_of_int s.gc.minor_collections);
    ("gc.major_collections", "count", float_of_int s.gc.major_collections);
  ]

(* The process's peak major heap so far, in MB. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let e2e_values ~setup_s ~heap_mb (s : W.section) =
  let e = s.exact in
  [
    ("cpu_ns_per_pkt", "ns/pkt", s.gc.cpu_s *. 1e9 /. float_of_int e.delivered);
    ("setup_s", "s", setup_s);
    ("minor_words_per_pkt", "words/pkt", s.gc.minor_words /. float_of_int e.delivered);
    ( "promoted_words_per_pkt",
      "words/pkt",
      s.gc.promoted_words /. float_of_int e.delivered );
    ("peak_heap_mb", "MB", heap_mb);
    ("delivered_frac", "ratio", per e.delivered e.pushed);
    ( "goodput_mbps",
      "Mbps",
      float_of_int e.delivered_bytes *. 8.0 /. e.offered_s /. 1e6 );
  ]

(* Collects rows of (name, unit, value) lists, one list per repeat, into
   metrics. *)
let collect rows =
  match rows with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i (name, unit_, _) ->
        let samples =
          Array.of_list
            (List.map
               (fun row ->
                 let _, _, v = List.nth row i in
                 v)
               rows)
        in
        { name; unit_; samples })
      first

let run (w : W.t) ~seed ~seconds ~trace ~scale =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let attempted = ref 0 in
  let failed = ref 0 in
  let first = ref None in
  let account what (s : W.section) =
    let e = s.exact in
    attempted := !attempted + e.pushed;
    failed := !failed + e.failed;
    if e.failed <> 0 then
      fail "%s: the protocol lost or refused %d of %d packets" what e.failed
        e.pushed;
    if w.lossless && (e.delivered <> e.pushed || e.seq_inversions <> 0) then
      fail "%s: lossless bundle delivered %d of %d with %d inversions (Thm 4.1)"
        what e.delivered e.pushed e.seq_inversions;
    match !first with
    | None -> first := Some e
    | Some e0 ->
      if e <> e0 then fail "%s: simulated results differ from the first run's" what
  in
  let recorder =
    if trace then Some (Span.create W.layer_names) else None
  in
  let first_heap_mb = ref 0.0 in
  let e2e_rows = ref [] in
  let layer_rows = ref [] in
  let repeat k =
    (* Each set-up starts from a compacted heap, free of the previous
       repeat's garbage. *)
    Gc.compact ();
    let t0 = W.cpu_s () in
    let inst = w.setup ~seed ~scale in
    let setup_s = W.cpu_s () -. t0 in
    let s = inst.e2e () in
    account "end-to-end run" s;
    (* Later repeats inherit the first one's heap, so only the first
       repeat's peak is the workload's own. The first repeat warms the
       caches and the process's pages; its times are not counted. *)
    if k = 1 then first_heap_mb := heap_mb ()
    else e2e_rows := e2e_values ~setup_s ~heap_mb:!first_heap_mb s :: !e2e_rows;
    match recorder with
    | None -> if w.sharded && k = 1 then account "direct drive" (inst.drive None)
    | Some t ->
      let u = inst.drive None in
      account "untraced drive" u;
      Span.reset t;
      let d = inst.drive (Some t) in
      account "traced drive" d;
      let pkts = float_of_int d.exact.delivered in
      let untraced_words = u.gc.minor_words /. pkts in
      let traced_words = d.gc.minor_words /. pkts in
      if Float.abs (traced_words -. untraced_words) > 0.01 then
        fail "tracing allocated: %.4f words/pkt traced vs %.4f untraced"
          traced_words untraced_words;
      if accounted_ns t <> Span.total_ns t W.l_sim then
        fail "per-layer self times sum to %d ns, the traced run took %d ns"
          (accounted_ns t) (Span.total_ns t W.l_sim);
      let overhead =
        (float_of_int (Span.total_ns t W.l_sim) -. (u.gc.wall_s *. 1e9)) /. pkts
      in
      layer_rows :=
        (layer_values t d
        @ run_layer_values ~inputs_s:inst.inputs_s s
        @ [ ("trace.overhead_ns_per_pkt", "ns/pkt", overhead) ])
        :: !layer_rows
  in
  let start = W.clock_s () in
  (try
     (* At least one counted repeat after the warm-up; then repeat while
        one more repeat of average length still fits. *)
     let rec loop k =
       repeat k;
       let elapsed = W.clock_s () -. start in
       if k < 2 || elapsed *. float_of_int (k + 1) /. float_of_int k <= seconds
       then loop (k + 1)
     in
     loop 1
   with e -> fail "%s: %s" w.name (Printexc.to_string e));
  {
    workload = w.name;
    e2e = collect (List.rev !e2e_rows);
    layers = collect (List.rev !layer_rows);
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    recorder;
  }
