type t = { mutable rev_log : (float * int) list; mutable n : int }

let create () = { rev_log = []; n = 0 }

let observe t ~now ~seq =
  t.rev_log <- (now, seq) :: t.rev_log;
  t.n <- t.n + 1

let deliveries t = t.n

let log t = List.rev t.rev_log

(* Walk the delivery log backwards, maintaining the start of the longest
   strictly-increasing suffix. *)
let suffix_start t =
  match t.rev_log with
  | [] -> None
  | (tm, seq) :: rest ->
    let rec walk acc_time acc_seq = function
      | [] -> Some acc_time
      | (tm', seq') :: rest ->
        if seq' < acc_seq then walk tm' seq' rest else Some acc_time
    in
    walk tm seq rest

let resync_time t ~errors_stop =
  match suffix_start t with
  | None -> None
  | Some start ->
    (* The suffix must contain at least one delivery after errors stop;
       otherwise nothing was ever delivered post-recovery to witness it. *)
    let witnessed =
      List.exists (fun (tm, _) -> tm >= start && tm >= errors_stop) t.rev_log
    in
    if not witnessed then None
    else Some (max 0.0 (start -. errors_stop))

let in_order_after t ~time =
  let tail = List.filter (fun (tm, _) -> tm > time) (log t) in
  let rec check last = function
    | [] -> true
    | (_, seq) :: rest -> if seq > last then check seq rest else false
  in
  check min_int tail

let first_after t ~time =
  let rec find = function
    | [] -> None
    | (tm, _) :: rest -> if tm >= time then Some tm else find rest
  in
  find (log t)

let max_gap t ~from_ ~until_ =
  if until_ <= from_ then 0.0
  else begin
    let rec walk last acc = function
      | [] -> Stdlib.max acc (until_ -. last)
      | (tm, _) :: rest ->
        if tm < from_ then walk last acc rest
        else if tm > until_ then Stdlib.max acc (until_ -. last)
        else walk tm (Stdlib.max acc (tm -. last)) rest
    in
    walk from_ 0.0 (log t)
  end

let availability t ~from_ ~until_ ~bucket =
  if bucket <= 0.0 then
    invalid_arg "Recovery.availability: bucket must be positive";
  if until_ <= from_ then 1.0
  else begin
    let n = int_of_float (ceil ((until_ -. from_) /. bucket)) in
    let hit = Array.make n false in
    List.iter
      (fun (tm, _) ->
        if tm >= from_ && tm < until_ then begin
          let i = int_of_float ((tm -. from_) /. bucket) in
          if i >= 0 && i < n then hit.(i) <- true
        end)
      t.rev_log;
    let k = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 hit in
    float_of_int k /. float_of_int n
  end

(* Outage-interval arithmetic. Chaos runs produce overlapping down
   intervals — a storm over several channels, a crash inside a storm —
   and summing per-event durations double-counts the overlap, inflating
   downtime and deflating availability. Everything below therefore works
   on the union: merged, disjoint, sorted intervals. *)

let merge_intervals ivs =
  let ivs =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter (fun (a, b) -> b > a) ivs)
  in
  match ivs with
  | [] -> []
  | (a0, b0) :: rest ->
    let rec go a b acc = function
      | [] -> List.rev ((a, b) :: acc)
      | (a', b') :: rest ->
        if a' <= b then go a (Float.max b b') acc rest
        else go a' b' ((a, b) :: acc) rest
    in
    go a0 b0 [] rest

let merge_parts parts = merge_intervals (List.concat parts)

let total_down ivs =
  List.fold_left (fun s (a, b) -> s +. (b -. a)) 0.0 ivs

let downtime ivs = total_down (merge_intervals ivs)

let interval_availability ~outages ~from_ ~until_ =
  if until_ <= from_ then 1.0
  else begin
    let clipped =
      List.filter_map
        (fun (a, b) ->
          let a = Float.max a from_ and b = Float.min b until_ in
          if b > a then Some (a, b) else None)
        (merge_intervals outages)
    in
    1.0 -. (total_down clipped /. (until_ -. from_))
  end

let longest_outage outages =
  List.fold_left (fun m (a, b) -> Float.max m (b -. a)) 0.0
    (merge_intervals outages)

let mttr outages =
  match merge_intervals outages with
  | [] -> None
  | merged -> Some (total_down merged /. float_of_int (List.length merged))

(* Each delivery's displacement: how far its [seq] trails the highest
   [seq] delivered before it, 0 when it does not trail. Folded in
   delivery order over the deliveries strictly after [time], with each
   delivery's time; a delivery is late exactly when its displacement is
   positive. *)
let fold_displacements t ~time f acc =
  let max_seen = ref min_int in
  List.fold_left
    (fun acc (tm, seq) ->
      if tm <= time then acc
      else begin
        let d = if seq < !max_seen then !max_seen - seq else 0 in
        if seq > !max_seen then max_seen := seq;
        f acc tm d
      end)
    acc (log t)

let out_of_order_after t ~time =
  fold_displacements t ~time
    (fun late _ d -> if d > 0 then late + 1 else late)
    0

let out_of_order t = out_of_order_after t ~time:neg_infinity

let late_times t =
  List.rev
    (fold_displacements t ~time:neg_infinity
       (fun acc tm d -> if d > 0 then tm :: acc else acc)
       [])

let max_displacement t =
  fold_displacements t ~time:neg_infinity (fun m _ d -> max m d) 0

let displacement_percentile t ~p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Recovery.displacement_percentile: p must be in [0, 1]";
  if t.n = 0 then 0
  else begin
    let ds = Array.make t.n 0 in
    ignore
      (fold_displacements t ~time:neg_infinity
         (fun i _ d ->
           ds.(i) <- d;
           i + 1)
         0);
    Array.sort Int.compare ds;
    let rank = max 1 (int_of_float (ceil (p *. float_of_int t.n))) in
    ds.(rank - 1)
  end
