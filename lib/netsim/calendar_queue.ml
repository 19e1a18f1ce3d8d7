(* Calendar queue (R. Brown, CACM 1988): a hashed ring of time-sorted
   buckets, O(1) amortized add/pop for the event populations simulations
   generate — many events clustered a bounded distance into the future
   (link serializations, propagation delays, pacing timers).

   An event at time [t] lives in bucket [floor (t / width) mod nbuckets]
   (computed as a product with [1 / width], see [vbucket]).
   Popping scans the ring from the current virtual bucket [gidx]
   (= floor (scan time / width)): a bucket's minimum fires only if its
   own virtual bucket index is at or before the scan's
   ([vbucket t <= gidx], the float-exact form of "inside the current
   year slice"); otherwise the event belongs to a later lap around the
   ring and the scan moves on. A full fruitless rotation
   (all events far in the future) falls back to a direct minimum search
   that repositions the scan — correctness never depends on the width
   heuristics.

   Buckets are struct-of-arrays (unboxed float times, values) holding
   one run in [head, len), ascending by time and, among equal times, by
   insertion: the earliest entry pops off [head] by advancing it, and
   the usual insert — the latest event of its bucket — appends at
   [len]. Neither moves an entry. An insert that lands inside the run
   shifts the shorter side by one slot. A bucket grows only when it is
   full from index 0; a full bucket with popped slots below [head] is
   compacted in place instead, and an emptied bucket restarts at index
   0.

   The calendar doubles when occupancy exceeds two entries per bucket,
   re-deriving the bucket width from the live event population. It
   halves when occupancy stays below one per two buckets long enough to
   pay for the rehash (see [note_pop]): a burst pattern that swings the
   population across a power of two every few hundred events keeps its
   ring, while a lasting drop still shrinks it before the pop scans get
   slow.

   Determinism contract (checked against {!Eventq} and a sorted-list
   oracle by property tests): same-time events pop in insertion order.
   Equal times always hash to the same bucket, and an insert goes after
   every equal time already there, so no sequence number is stored: a
   rehash walks each old bucket in order, which keeps equal times in
   insertion order too. *)

type 'a t = {
  mutable nbuckets : int;  (* power of two *)
  mutable mask : int;
  mutable width : float;
  mutable inv_width : float;
      (* [1 / width]: [vbucket] multiplies, since a division costs
         several times as much on the per-event path. *)
  mutable btimes : float array array;
  mutable bvals : 'a array array;
  mutable bheads : int array;
      (* Index of each bucket's earliest live entry; slots below it are
         popped and hold the dummy value. *)
  mutable blens : int array;  (* One past each bucket's latest entry. *)
  mutable size : int;
  mutable overload_stamp : int;
      (* Population size at the last overload-triggered re-derivation
         (see [add]); gates the next one behind a population doubling so
         degenerate populations (all events simultaneous) cannot thrash
         O(n) rehashes on every insert. *)
  mutable low_work : int;
      (* Scan work (one per pop plus every bucket step and
         repositioning sweep) spent since the population was last at or
         above the halving threshold; see [note_pop]. *)
  mutable gidx : int;
      (* Virtual bucket index of the pop scan: bucket [gidx land mask],
         year bound [(gidx + 1) * width]. Meaningful only when
         [positioned]. *)
  mutable positioned : bool;
      (* False when the scan must re-find the global minimum before the
         next pop: after a clear/resize, when the queue was empty, or
         when an insertion landed before the scan's current year. *)
  tmp_time : float array;
      (* Staging cell for [bucket_insert]'s time argument: a float passed
         to a non-inlined function boxes at the call boundary, a float
         array store does not. *)
}

let dummy : unit -> 'a = fun () -> Obj.magic ()

let initial_buckets = 16

(* A shrink must be paid for by this many units of low-population scan
   work per bucket of the ring (see [note_pop]). *)
let shrink_work_per_bucket = 16

let make_buckets n =
  (Array.make n [||], Array.make n [||], Array.make n 0, Array.make n 0)

let create () =
  let btimes, bvals, bheads, blens = make_buckets initial_buckets in
  {
    nbuckets = initial_buckets;
    mask = initial_buckets - 1;
    width = 1.0;
    inv_width = 1.0;
    btimes;
    bvals;
    bheads;
    blens;
    size = 0;
    overload_stamp = 0;
    low_work = 0;
    gidx = 0;
    positioned = false;
    tmp_time = [| 0.0 |];
  }

let is_empty q = q.size = 0

let length q = q.size

let buckets q = q.nbuckets

(* Virtual (unwrapped) bucket index of time [t]. Placement and firing
   both decide with this one function, so all the pop scan needs from it
   is that it be monotone in [t]: a rounded product is. The width floor
   chosen at resize keeps [t *. inv_width] well below 2^52 for every
   finite queued time. A time out of [int] range (infinite, or huge
   before the first resize) maps to [max_int] or [min_int] instead of
   the undefined float-to-int conversion, which would break
   monotonicity. *)
let[@inline] vbucket q t =
  let x = t *. q.inv_width in
  if x < 4e18 then if x > -4e18 then int_of_float x else min_int
  else max_int

(* --- bucket primitives ------------------------------------------------ *)

(* Everything off the per-event fast path is [@inline never]: [add] and
   [take] are inlined into [Sim], and from there into every scheduling
   call site, so an inlined slow path would be copied into each. *)

(* Make room at the end of full bucket [b]: compact its live run down to
   index 0 when slots below [head] are free, otherwise double it. *)
let[@inline never] bucket_make_room q b =
  let times = q.btimes.(b) and vals = q.bvals.(b) in
  let head = q.bheads.(b) and len = q.blens.(b) in
  let live = len - head in
  if head > 0 then begin
    Array.blit times head times 0 live;
    Array.blit vals head vals 0 live;
    Array.fill vals live head (dummy ());
    q.bheads.(b) <- 0;
    q.blens.(b) <- live
  end
  else begin
    let ncap = if len = 0 then 4 else 2 * len in
    let times' = Array.make ncap 0.0 in
    let vals' = Array.make ncap (dummy ()) in
    Array.blit times 0 times' 0 len;
    Array.blit vals 0 vals' 0 len;
    q.btimes.(b) <- times';
    q.bvals.(b) <- vals'
  end

(* Insert into bucket [b] after every entry at or before its time. The
   time is taken from [q.tmp_time.(0)] (see its comment). *)
let[@inline never] bucket_insert q b v =
  let time = q.tmp_time.(0) in
  let times = q.btimes.(b) in
  let head = q.bheads.(b) and len = q.blens.(b) in
  (* [j]: the first entry strictly after [time]. *)
  let j = ref len in
  while !j > head && times.(!j - 1) > time do
    decr j
  done;
  let j = !j in
  if j = len then begin
    if len = Array.length times then bucket_make_room q b;
    let len = q.blens.(b) in
    q.btimes.(b).(len) <- time;
    q.bvals.(b).(len) <- v;
    q.blens.(b) <- len + 1
  end
  else if head > 0 && (len = Array.length times || j - head < len - j) then begin
    (* Shift the entries before [j] down into the free slot below the
       head. *)
    let vals = q.bvals.(b) in
    for k = head to j - 1 do
      times.(k - 1) <- times.(k);
      vals.(k - 1) <- vals.(k)
    done;
    times.(j - 1) <- time;
    vals.(j - 1) <- v;
    q.bheads.(b) <- head - 1
  end
  else begin
    (* Shift the entries from [j] up; [head = 0] if the bucket is full. *)
    if len = Array.length times then bucket_make_room q b;
    let times = q.btimes.(b) and vals = q.bvals.(b) in
    for k = len downto j + 1 do
      times.(k) <- times.(k - 1);
      vals.(k) <- vals.(k - 1)
    done;
    times.(j) <- time;
    vals.(j) <- v;
    q.blens.(b) <- len + 1
  end

(* --- sizing ----------------------------------------------------------- *)

(* Re-derive the bucket width from the live population: ~3 mean
   inter-event gaps per bucket, where the mean gap is measured over the
   densest leading quantile of a sorted time sample rather than the full
   [tmin, tmax] span. The classic span rule (3 * span / size, Brown
   1988) assumes a roughly unimodal population; a churned fleet instead
   holds a dense cluster of imminent wire events plus a long sparse tail
   of lifetime timers spread over seconds, and a span-derived width
   lumps the whole cluster into one or two buckets — every insert then
   pays an O(cluster) scan, which is the 2x calendar-vs-heap churn
   regression. The first quantile probe (q25, then q50/q75/q100 for
   degenerate prefixes) measures the gap scale where the pop scan
   actually works; for unimodal populations the q100 fallback reduces
   exactly to the classic rule. Clamped so [t / width] stays exactly
   representable (<= 2^40) for every finite queued time. Fully
   degenerate populations (all events simultaneous) keep the previous
   width — bucketing quality is then irrelevant anyway. *)
let derive_width q ~tmin ~tmax ~sample ~n =
  let w =
    if tmax > tmin && q.size > 1 && n > 1 then begin
      let rec probe k =
        let extent = sample.((n - 1) * k / 4) -. tmin in
        if extent > 0.0 then
          (* ~k/4 of the population lies within [extent] of the head, so
             the head-region mean gap is extent / (k/4 * size). *)
          3.0 *. extent /. (float_of_int k /. 4.0 *. float_of_int q.size)
        else if k < 4 then probe (k + 1)
        else q.width
      in
      probe 1
    end
    else q.width
  in
  let floor_w = Float.max 1e-12 (Float.max tmax (-.tmin) /. 1.099511627776e12)
  (* 2^40 *) in
  Float.max w floor_w

let[@inline never] resize q nbuckets' =
  let old_btimes = q.btimes
  and old_bvals = q.bvals
  and old_bheads = q.bheads
  and old_blens = q.blens
  and old_n = q.nbuckets in
  (* Bounds of the finite population plus a deterministic stride sample
     (~256 times) for the quantile width derivation. *)
  let tmin = ref infinity and tmax = ref neg_infinity in
  let stride = 1 + (q.size / 256) in
  let sample = Array.make (if q.size = 0 then 1 else 1 + ((q.size - 1) / stride)) 0.0 in
  let si = ref 0 and seen = ref 0 in
  for b = 0 to old_n - 1 do
    for i = old_bheads.(b) to old_blens.(b) - 1 do
      let t = old_btimes.(b).(i) in
      if Float.is_finite t then begin
        if t < !tmin then tmin := t;
        if t > !tmax then tmax := t;
        if !seen mod stride = 0 && !si < Array.length sample then begin
          sample.(!si) <- t;
          incr si
        end;
        incr seen
      end
    done
  done;
  let sample = Array.sub sample 0 !si in
  Array.sort Float.compare sample;
  let btimes, bvals, bheads, blens = make_buckets nbuckets' in
  q.nbuckets <- nbuckets';
  q.mask <- nbuckets' - 1;
  q.width <- derive_width q ~tmin:!tmin ~tmax:!tmax ~sample ~n:!si;
  q.inv_width <- 1.0 /. q.width;
  q.btimes <- btimes;
  q.bvals <- bvals;
  q.bheads <- bheads;
  q.blens <- blens;
  for b = 0 to old_n - 1 do
    for i = old_bheads.(b) to old_blens.(b) - 1 do
      let dst = vbucket q old_btimes.(b).(i) land q.mask in
      q.tmp_time.(0) <- old_btimes.(b).(i);
      bucket_insert q dst old_bvals.(b).(i)
    done
  done;
  q.low_work <- 0;
  q.positioned <- false

(* --- main operations -------------------------------------------------- *)

let[@inline] add q ~time value =
  let vb = vbucket q time in
  let b = vb land q.mask in
  let len = q.blens.(b) and times = q.btimes.(b) in
  if
    len < Array.length times
    && (len = q.bheads.(b) || times.(len - 1) <= time)
  then begin
    (* The usual insert: the latest event of its bucket, ties included,
       appends. The time stays in a register. *)
    times.(len) <- time;
    q.bvals.(b).(len) <- value;
    q.blens.(b) <- len + 1
  end
  else begin
    q.tmp_time.(0) <- time;
    bucket_insert q b value
  end;
  q.size <- q.size + 1;
  (* An event landing before the scan's current year start would be
     passed over by the year check: force a re-position. *)
  if q.positioned && vb < q.gidx then q.positioned <- false;
  if q.size > 2 * q.nbuckets then resize q (2 * q.nbuckets)
  else if q.blens.(b) - q.bheads.(b) >= 48 && q.size >= 2 * q.overload_stamp
  then begin
    (* Overload guard: a single bucket 24x over the two-per-bucket
       occupancy target means the event-time distribution drifted since
       the width was last derived (resizes only fire on population
       growth, not distribution change). Rehash at the same bucket count
       to re-derive; the [overload_stamp] doubling gate bounds the cost
       to O(n) amortized even when re-deriving cannot help. *)
    q.overload_stamp <- q.size;
    resize q q.nbuckets
  end

(* Point the scan at the bucket holding the global minimum. The queue
   must be non-empty. Equal minimum times share a bucket, so comparing
   times across buckets suffices; the intra-bucket order settles
   ties. *)
let[@inline never] reposition q =
  let best_b = ref (-1) and best_t = ref infinity in
  for b = 0 to q.nbuckets - 1 do
    let h = q.bheads.(b) in
    if h < q.blens.(b) && (!best_b < 0 || q.btimes.(b).(h) < !best_t) then begin
      best_t := q.btimes.(b).(h);
      best_b := b
    end
  done;
  (* Rebase the virtual index on the minimum's own year so the year
     bounds line up with bucket contents again. *)
  q.gidx <- vbucket q !best_t;
  q.low_work <- q.low_work + q.nbuckets;
  q.positioned <- true

(* Find the bucket whose head fires next; returns the bucket index and
   leaves the scan positioned on it. The queue must be non-empty. *)
let peek_loop q =
  if not q.positioned then reposition q;
  let result = ref (-1) in
  let steps = ref 0 in
  while !result < 0 do
    let b = q.gidx land q.mask in
    let h = q.bheads.(b) in
    (* The head fires iff its own virtual bucket is the scan's (or an
       earlier one). Deciding with [vbucket] — the same rounded,
       truncated product that placed the event — keeps placement and
       firing exactly consistent; the once-obvious bound
       [t < (gidx + 1) * width] is NOT equivalent in floats: it can
       round below [t] for an event that [vbucket] put in [gidx], making
       the scan reject the true minimum as next-lap and fire a slightly
       later event from the next virtual bucket instead. *)
    if h < q.blens.(b) && vbucket q q.btimes.(b).(h) <= q.gidx then result := b
    else if !steps >= q.nbuckets then begin
      (* Full fruitless rotation: everything lives in later years. Jump
         straight to the global minimum. *)
      reposition q;
      result := q.gidx land q.mask
    end
    else begin
      q.gidx <- q.gidx + 1;
      incr steps
    end
  done;
  q.low_work <- q.low_work + 1 + !steps;
  !result

let peek_time q =
  if q.size = 0 then None
  else
    let b = peek_loop q in
    Some q.btimes.(b).(q.bheads.(b))

let[@inline] peek_time_unsafe q =
  let b = peek_loop q in
  q.btimes.(b).(q.bheads.(b))

(* After a pop: halve the ring once the population has stayed below one
   entry per two buckets for [shrink_work_per_bucket] units of scan work
   per bucket, counting each pop, each bucket step and each
   repositioning sweep. Any pop that leaves the population at or above
   the threshold resets the account. A population that swings across
   the threshold in bursts therefore keeps its ring — the low half of
   each swing costs a few units per bucket — while a lasting drop,
   whose sparse pops sweep the oversized ring, shrinks it after a
   handful of them. *)
let note_pop q =
  if q.size = 0 then q.positioned <- false;
  if 2 * q.size >= q.nbuckets then q.low_work <- 0
  else if
    q.nbuckets > initial_buckets
    && q.low_work >= shrink_work_per_bucket * q.nbuckets
  then resize q (q.nbuckets / 2)

let take q clock =
  if q.size = 0 then invalid_arg "Calendar_queue.take: empty queue";
  let b = peek_loop q in
  let h = q.bheads.(b) in
  clock.(0) <- q.btimes.(b).(h);
  let vals = q.bvals.(b) in
  let v = vals.(h) in
  vals.(h) <- dummy ();
  if h + 1 = q.blens.(b) then begin
    q.bheads.(b) <- 0;
    q.blens.(b) <- 0
  end
  else q.bheads.(b) <- h + 1;
  q.size <- q.size - 1;
  note_pop q;
  v

let pop q =
  if q.size = 0 then None
  else begin
    let cell = [| 0.0 |] in
    let v = take q cell in
    Some (cell.(0), v)
  end

let clear q =
  let btimes, bvals, bheads, blens = make_buckets initial_buckets in
  q.nbuckets <- initial_buckets;
  q.mask <- initial_buckets - 1;
  q.width <- 1.0;
  q.inv_width <- 1.0;
  q.btimes <- btimes;
  q.bvals <- bvals;
  q.bheads <- bheads;
  q.blens <- blens;
  q.size <- 0;
  q.low_work <- 0;
  q.gidx <- 0;
  q.positioned <- false
