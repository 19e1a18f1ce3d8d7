(* Online per-channel goodput estimation for adaptive striping.

   The probe is fed delivered-byte counts between samples (from link
   feedback, [Transmit] events, or receiver-side accounting — the caller
   chooses the vantage point) and maintains an EWMA of the instantaneous
   rate per channel. [plan] turns fresh estimates into a retune decision:
   the proportional quantum vector for the estimated rates, or [None]
   while every channel is within the hysteresis band of its current
   quantum.

   Measured goodput is a one-sided oracle: a saturated channel reveals
   its true capacity (its queue is backlogged, egress = capacity) while
   an underloaded channel only reveals its offered share. The closed
   loop still converges — an oversubscribed channel keeps measuring
   below its assigned share, so successive retunes shrink its quantum
   until assignment fits capacity, at which point every measurement
   equals the assignment and the hysteresis band holds the vector
   still. *)

type t = {
  n : int;
  alpha : float;
  window_bytes : int array;  (* bytes accounted since last sample *)
  est_bps : float array;  (* EWMA rate estimate; 0 until seeded *)
  mutable last_sample : float;  (* time of the last [sample]; nan before *)
  mutable samples : int;
}

let create ?(alpha = 0.3) ~n () =
  if n <= 0 then invalid_arg "Rate_probe.create: n must be positive";
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Rate_probe.create: alpha must be in (0, 1]";
  {
    n;
    alpha;
    window_bytes = Array.make n 0;
    est_bps = Array.make n 0.0;
    last_sample = Float.nan;
    samples = 0;
  }

let samples t = t.samples

let observe t ~channel ~bytes =
  if channel < 0 || channel >= t.n then
    invalid_arg "Rate_probe.observe: bad channel";
  if bytes > 0 then
    t.window_bytes.(channel) <- t.window_bytes.(channel) + bytes

let sample t ~now =
  let dt = now -. t.last_sample in
  (if Float.is_nan t.last_sample || dt <= 0.0 then
     (* First call just anchors the window; no rate can be formed yet. *)
     ()
   else begin
     for c = 0 to t.n - 1 do
       let inst = float_of_int (t.window_bytes.(c) * 8) /. dt in
       (* Seed the EWMA from the first real measurement instead of
          averaging against the 0 start value, which would bias the
          estimate low for 1/alpha windows. *)
       t.est_bps.(c) <-
         (if t.est_bps.(c) <= 0.0 then inst
          else ((1.0 -. t.alpha) *. t.est_bps.(c)) +. (t.alpha *. inst))
     done;
     t.samples <- t.samples + 1
   end);
  Array.fill t.window_bytes 0 t.n 0;
  t.last_sample <- now

let rate_bps t c =
  if c < 0 || c >= t.n then invalid_arg "Rate_probe.rate_bps: bad channel";
  t.est_bps.(c)

let rates t = Array.copy t.est_bps

let reset_channel t c =
  if c < 0 || c >= t.n then
    invalid_arg "Rate_probe.reset_channel: bad channel";
  (* Forget the channel's history entirely: estimate back to the unseeded
     state and the current window emptied. The zero-rate windows observed
     while a channel was suspended decay the EWMA geometrically but never
     clear it, so without this a channel resumed after an outage would
     blend its pre-outage capacity into the first post-resume estimate —
     and a long-dead channel would re-enter with a stale, near-zero
     estimate that [plan] then treats as measured capacity. After the
     reset the next sample seeds the EWMA directly from the first fresh
     measurement (and [plan] withholds retunes until it exists). *)
  t.window_bytes.(c) <- 0;
  t.est_bps.(c) <- 0.0

let plan ?max_packet ?(band = 0.25) ?max_quantum ~rates_bps
    ~quanta ~quantum_unit () =
  let n = Array.length quanta in
  if Array.length rates_bps <> n then
    invalid_arg "Rate_probe.plan: rates/quanta width mismatch";
  if band < 0.0 then invalid_arg "Rate_probe.plan: band must be >= 0";
  (* No decision without a full set of estimates: a channel that has not
     delivered anything yet would plan to a degenerate vector. Dead
     channels are the suspension/watchdog machinery's job, not ours. *)
  if Array.exists (fun r -> (not (Float.is_finite r)) || r <= 0.0) rates_bps
  then None
  else begin
    let target =
      Srr.quanta_for_rates ?max_packet ~rates_bps ~quantum_unit ()
    in
    let lo = match max_packet with Some m -> max 1 m | None -> 1 in
    let target =
      Array.map
        (fun q ->
          let q = max lo q in
          match max_quantum with Some m -> min q m | None -> q)
        target
    in
    let differs = ref false in
    for c = 0 to n - 1 do
      let cur = float_of_int quanta.(c) and tgt = float_of_int target.(c) in
      if Float.abs (tgt -. cur) > band *. cur then differs := true
    done;
    if !differs then Some target else None
  end
