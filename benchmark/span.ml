(* Allocation-free span recorder.

   The benchmark driver brackets each call it makes into a layer's public
   function with [enter]/[exit]. Every counter lives in an [int] array
   allocated at [create], the clock is read as unboxed [int] nanoseconds
   and the allocation counter as an [int] word count, so recording a span
   allocates nothing: a traced run allocates exactly what the untraced run
   does, and the per-layer word counts are the layers' own. (Boxed [Int64]
   or mixed float records would allocate on every span.)

   A span's self time is its duration minus the time its child spans
   took, including what recording each child cost. That recording cost
   (two extra clock reads per span bracket the bookkeeping) is kept apart,
   in [overhead_ns], so it does not inflate the parents' self times. The
   layers' self times plus [overhead_ns] add up exactly to the root
   span's duration. *)

(* Bechamel's monotonic clock stub, declared here so the [int64] result
   stays unboxed whether or not the library's wrapper gets inlined. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())
let[@inline] words () = int_of_float (Gc.minor_words ())

let max_depth = 32
let hist_buckets = 64
let max_sampled = 65536

type t = {
  names : string array;
  count : int array;
  total_ns : int array;
  self_ns : int array;
  self_words : int array;
  hist : int array;  (* [layer * hist_buckets + log2 duration] *)
  (* The stack of open spans. *)
  st_layer : int array;
  st_outer : int array;  (* clock when [enter] was called *)
  st_start : int array;
  st_words : int array;
  st_child_ns : int array;
  st_child_words : int array;
  st_sample : int array;
  mutable depth : int;
  mutable overhead : int;
  (* The first [max_sampled] spans, kept raw. *)
  s_layer : int array;
  s_parent : int array;
  s_start : int array;
  s_end : int array;
  mutable sampled : int;
}

let create names =
  let n = Array.length names in
  let z k = Array.make k 0 in
  {
    names;
    count = z n;
    total_ns = z n;
    self_ns = z n;
    self_words = z n;
    hist = z (n * hist_buckets);
    st_layer = z max_depth;
    st_outer = z max_depth;
    st_start = z max_depth;
    st_words = z max_depth;
    st_child_ns = z max_depth;
    st_child_words = z max_depth;
    st_sample = z max_depth;
    depth = 0;
    overhead = 0;
    s_layer = z max_sampled;
    s_parent = z max_sampled;
    s_start = z max_sampled;
    s_end = z max_sampled;
    sampled = 0;
  }

let reset t =
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) 0)
    [ t.count; t.total_ns; t.self_ns; t.self_words; t.hist ];
  t.depth <- 0;
  t.overhead <- 0;
  t.sampled <- 0

let enter t layer =
  let outer = now_ns () in
  let d = t.depth in
  t.st_layer.(d) <- layer;
  t.st_outer.(d) <- outer;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0;
  let s = t.sampled in
  if s < max_sampled then begin
    t.s_layer.(s) <- layer;
    t.s_parent.(s) <- (if d = 0 then -1 else t.st_sample.(d - 1));
    t.st_sample.(d) <- s;
    t.sampled <- s + 1
  end
  else t.st_sample.(d) <- -1;
  t.depth <- d + 1;
  t.st_words.(d) <- words ();
  t.st_start.(d) <- now_ns ()

let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1)

let exit t =
  let stop = now_ns () in
  let w = words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let layer = t.st_layer.(d) in
  let start = t.st_start.(d) in
  let dur = stop - start in
  let dw = w - t.st_words.(d) in
  t.count.(layer) <- t.count.(layer) + 1;
  t.total_ns.(layer) <- t.total_ns.(layer) + dur;
  t.self_ns.(layer) <- t.self_ns.(layer) + dur - t.st_child_ns.(d);
  t.self_words.(layer) <- t.self_words.(layer) + dw - t.st_child_words.(d);
  let b = min (hist_buckets - 1) (log2 dur 0) in
  t.hist.((layer * hist_buckets) + b) <- t.hist.((layer * hist_buckets) + b) + 1;
  let s = t.st_sample.(d) in
  if s >= 0 then begin
    t.s_start.(s) <- start;
    t.s_end.(s) <- stop
  end;
  if d > 0 then begin
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) + dw;
    let outer = now_ns () - t.st_outer.(d) in
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + outer;
    t.overhead <- t.overhead + outer - dur
  end

let count t layer = t.count.(layer)
let total_ns t layer = t.total_ns.(layer)
let self_ns t layer = t.self_ns.(layer)
let self_words t layer = t.self_words.(layer)

(* Time spent recording the spans below the root. *)
let overhead_ns t = t.overhead

let hist t layer =
  Array.sub t.hist (layer * hist_buckets) hist_buckets

(* One JSON object per line: the per-layer totals, then the raw spans with
   times relative to the first one. *)
let write t path =
  let oc = open_out path in
  Array.iteri
    (fun l name ->
      let h = hist t l in
      let last = ref (-1) in
      Array.iteri (fun i c -> if c > 0 then last := i) h;
      Printf.fprintf oc
        "{\"layer\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"self_words\":%d,\"log2_ns_hist\":[%s]}\n"
        name t.count.(l) t.total_ns.(l) t.self_ns.(l) t.self_words.(l)
        (String.concat ","
           (List.map string_of_int (Array.to_list (Array.sub h 0 (!last + 1))))))
    t.names;
  Printf.fprintf oc "{\"layer\":\"trace\",\"self_ns\":%d}\n" t.overhead;
  let base = if t.sampled > 0 then t.s_start.(0) else 0 in
  for s = 0 to t.sampled - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n" s
      t.names.(t.s_layer.(s)) t.s_parent.(s) (t.s_start.(s) - base)
      (t.s_end.(s) - base)
  done;
  close_out oc
