(* Gray-failure detection: per-channel evidence fusion and the
   Healthy -> Suspect -> Probation -> Quarantined state machine
   (PROTOCOL.md §13).

   The §5/§8 failure machinery handles channels that die — carrier
   loss, marker silence, crashes. This engine handles channels that
   merely get worse: bursty loss and goodput collapse. The evidence the
   drivers measure (wire loss, rate-probe goodput) is fed in between
   ticks, fused into one score per channel, EWMA-smoothed, and
   pushed through a hysteresis state machine whose two operational
   states degrade gracefully: probation cuts the member's quantum (the
   caller rides [Deficit.retune] at a round boundary) but keeps probe
   traffic flowing, quarantine suspends the member outright (through
   the §5 reset barrier) and returns it to probation on a timer with
   exponential backoff per flap.

   The engine decides; the caller applies. [sample] returns the
   transitions of one evidence window and the caller maps them onto its
   striper/pool. The one decision the engine refuses to make is the
   fatal one: a quarantine that would leave no live, unquarantined
   channel is deferred (counted in [deferred_quarantines]) — the
   last-live-channel guard. *)

type state = Healthy | Suspect | Probation | Quarantined

type config = {
  alpha : float;
  w_loss : float;
  w_goodput : float;
  enter_suspect : float;
  enter_quarantine : float;
  exit_healthy : float;
  escalate_windows : int;
  recover_windows : int;
  probation_frac : float;
  base_backoff : float;
  backoff_factor : float;
  max_backoff : float;
}

let default_config =
  {
    alpha = 0.4;
    w_loss = 1.0;
    w_goodput = 0.8;
    enter_suspect = 0.25;
    enter_quarantine = 0.55;
    exit_healthy = 0.12;
    escalate_windows = 2;
    recover_windows = 3;
    probation_frac = 0.25;
    base_backoff = 0.25;
    backoff_factor = 2.0;
    max_backoff = 4.0;
  }

let check_config c =
  if not (c.alpha > 0.0 && c.alpha <= 1.0) then
    invalid_arg "Health: alpha must be in (0,1]";
  if c.exit_healthy < 0.0 || c.exit_healthy >= c.enter_suspect then
    invalid_arg "Health: need 0 <= exit_healthy < enter_suspect";
  if c.enter_suspect > c.enter_quarantine then
    invalid_arg "Health: need enter_suspect <= enter_quarantine";
  if c.escalate_windows < 1 || c.recover_windows < 1 then
    invalid_arg "Health: escalate/recover windows must be >= 1";
  if not (c.probation_frac > 0.0 && c.probation_frac <= 1.0) then
    invalid_arg "Health: probation_frac must be in (0,1]";
  if c.base_backoff <= 0.0 || c.max_backoff < c.base_backoff then
    invalid_arg "Health: need 0 < base_backoff <= max_backoff";
  if c.backoff_factor < 1.0 then
    invalid_arg "Health: backoff_factor must be >= 1"

type transition =
  | To_suspect of { channel : int }
  | To_probation of { channel : int; from_quarantine : bool }
  | To_quarantine of { channel : int; backoff : float }
  | To_healthy of { channel : int; from : state }

(* Per-channel record. Window accumulators are cleared by [sample];
   everything else persists across windows. *)
type chan = {
  mutable state : state;
  mutable score : float;  (* EWMA of the fused window scores *)
  mutable bad_streak : int;  (* consecutive windows above the enter line *)
  mutable good_streak : int;  (* consecutive windows below the exit line *)
  mutable flaps : int;  (* quarantines since the last full recovery *)
  mutable until : float;  (* quarantine expiry (absolute time) *)
  (* Current window's evidence. *)
  mutable sent : int;
  mutable lost : int;
  mutable goodput_ratio : float;  (* nan = no observation *)
}

let fresh_chan () =
  {
    state = Healthy;
    score = 0.0;
    bad_streak = 0;
    good_streak = 0;
    flaps = 0;
    until = 0.0;
    sent = 0;
    lost = 0;
    goodput_ratio = Float.nan;
  }

type t = {
  config : config;
  live : int -> bool;
  sink : Stripe_obs.Sink.t;
  chans : chan array;
  mutable deferred : int;
}

let create ?(config = default_config) ?(live = fun _ -> true)
    ?(sink = Stripe_obs.Sink.null) ~n () =
  if n <= 0 then invalid_arg "Health.create: n must be positive";
  check_config config;
  { config; live; sink; chans = Array.init n (fun _ -> fresh_chan ()); deferred = 0 }

let n_channels t = Array.length t.chans

let chan t c what =
  if c < 0 || c >= Array.length t.chans then
    invalid_arg (Printf.sprintf "Health.%s: bad channel %d" what c);
  t.chans.(c)

let state t c = (chan t c "state").state
let score t c = (chan t c "score").score
let flaps t c = (chan t c "flaps").flaps
let deferred_quarantines t = t.deferred

let quantum_scale t c =
  match (chan t c "quantum_scale").state with
  | Healthy | Suspect -> 1.0
  | Probation -> t.config.probation_frac
  | Quarantined -> 0.0

let target_quanta t ~nominal ~floor =
  Array.mapi
    (fun c q ->
      let s = quantum_scale t c in
      if s <= 0.0 || s >= 1.0 then q
      else max floor (int_of_float (float_of_int q *. s)))
    nominal

let quarantine_until t c =
  let ch = chan t c "quarantine_until" in
  match ch.state with Quarantined -> Some ch.until | _ -> None

let reset_channel t c =
  let ch = chan t c "reset_channel" in
  ch.state <- Healthy;
  ch.score <- 0.0;
  ch.bad_streak <- 0;
  ch.good_streak <- 0;
  ch.flaps <- 0;
  ch.until <- 0.0;
  ch.sent <- 0;
  ch.lost <- 0;
  ch.goodput_ratio <- Float.nan

let observe t ~channel ?(sent = 0) ?(lost = 0) ?goodput_ratio () =
  let ch = chan t channel "observe" in
  if sent < 0 || lost < 0 then invalid_arg "Health.observe: negative count";
  ch.sent <- ch.sent + sent;
  ch.lost <- ch.lost + lost;
  match goodput_ratio with
  | Some r when r >= 0.0 ->
    (* Keep the worst (lowest) goodput observation of the window. *)
    if Float.is_nan ch.goodput_ratio || r < ch.goodput_ratio then
      ch.goodput_ratio <- r
  | Some r -> invalid_arg (Printf.sprintf "Health.observe: goodput_ratio %g" r)
  | None -> ()

(* The goodput ratio is the window's delivered over sent bytes, so it
   carries the window's wire loss too. *)
let observe_window t ~channel ~sent ~lost ~sent_bytes ~delivered_bytes =
  if sent > 0 || lost > 0 then
    observe t ~channel ~sent ~lost
      ~goodput_ratio:
        (if sent_bytes > 0 then
           Float.min 1.0
             (float_of_int delivered_bytes /. float_of_int sent_bytes)
         else 1.0)
      ()

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* Fuse one window's raw evidence into a [0,1] badness score. The loss
   rate is taken against the window's sent count (a loss report with
   nothing sent is still fully bad); the goodput penalty is the
   shortfall against expectation. *)
let window_score cfg ch =
  let denom = float_of_int (max 1 (max ch.sent ch.lost)) in
  let loss = clamp01 (float_of_int ch.lost /. denom) in
  let goodput =
    if Float.is_nan ch.goodput_ratio then 0.0
    else clamp01 (1.0 -. ch.goodput_ratio)
  in
  clamp01 ((cfg.w_loss *. loss) +. (cfg.w_goodput *. goodput))

let had_evidence ch =
  ch.sent > 0 || ch.lost > 0 || not (Float.is_nan ch.goodput_ratio)

let clear_window ch =
  ch.sent <- 0;
  ch.lost <- 0;
  ch.goodput_ratio <- Float.nan

let emit t ~time kind ~channel ~size ~seq =
  if Stripe_obs.Sink.active t.sink then
    Stripe_obs.Sink.emit t.sink
      (Stripe_obs.Event.v ~channel ~size ~seq ~time kind)

(* Would quarantining [c] zero the live membership? Another channel
   must remain that is not quarantined and whose link the caller still
   vouches for. *)
let another_live t c =
  let n = Array.length t.chans in
  let rec go i =
    if i >= n then false
    else if i <> c && t.chans.(i).state <> Quarantined && t.live i then true
    else go (i + 1)
  in
  go 0

let sample t ~now =
  let cfg = t.config in
  let out = ref [] in
  let push tr = out := tr :: !out in
  Array.iteri
    (fun c ch ->
      match ch.state with
      | Quarantined ->
        (* No traffic, no evidence: quarantine exit is purely timed.
           Whatever dribbled in (e.g. stale guard counts) is dropped. *)
        clear_window ch;
        if now >= ch.until then begin
          ch.state <- Probation;
          ch.bad_streak <- 0;
          ch.good_streak <- 0;
          (* The reinstated channel starts its probation from a clean
             sheet of evidence but keeps its smoothed score above the
             exit line, so it must earn its way back to healthy. *)
          ch.score <- Float.max ch.score cfg.enter_suspect;
          emit t ~time:now Stripe_obs.Event.Reinstate ~channel:c ~size:(-1)
            ~seq:ch.flaps;
          push (To_probation { channel = c; from_quarantine = true })
        end
      | (Healthy | Suspect | Probation) as st ->
        let raw = if had_evidence ch then window_score cfg ch else 0.0 in
        clear_window ch;
        ch.score <- (cfg.alpha *. raw) +. ((1.0 -. cfg.alpha) *. ch.score);
        let enter =
          match st with
          | Probation -> cfg.enter_quarantine
          | _ -> cfg.enter_suspect
        in
        if ch.score >= enter then begin
          ch.good_streak <- 0;
          ch.bad_streak <- ch.bad_streak + 1;
          (* A reinstated probe carries the score it was quarantined
             with: a one-window streak needs that window's own evidence. *)
          let memory_only =
            st = Probation && ch.flaps > 0 && ch.bad_streak = 1 && raw < enter
          in
          if ch.bad_streak >= cfg.escalate_windows && not memory_only then
            match st with
            | Healthy ->
              ch.state <- Suspect;
              ch.bad_streak <- 0;
              emit t ~time:now Stripe_obs.Event.Health_suspect ~channel:c
                ~size:(-1) ~seq:(-1);
              push (To_suspect { channel = c })
            | Suspect ->
              ch.state <- Probation;
              ch.bad_streak <- 0;
              emit t ~time:now Stripe_obs.Event.Probation ~channel:c
                ~size:(int_of_float (cfg.probation_frac *. 1000.0))
                ~seq:(-1);
              push (To_probation { channel = c; from_quarantine = false })
            | Probation ->
              if another_live t c then begin
                let backoff =
                  Float.min cfg.max_backoff
                    (cfg.base_backoff
                    *. (cfg.backoff_factor ** float_of_int ch.flaps))
                in
                ch.state <- Quarantined;
                ch.flaps <- ch.flaps + 1;
                ch.until <- now +. backoff;
                ch.bad_streak <- 0;
                emit t ~time:now Stripe_obs.Event.Quarantine ~channel:c
                  ~size:(int_of_float (backoff *. 1000.0))
                  ~seq:(-1);
                push (To_quarantine { channel = c; backoff })
              end
              else begin
                (* Last-live-channel guard: keep probing at reduced
                   quantum rather than zeroing the membership. Hold the
                   streak at the threshold so the escalation retries
                   the moment another channel comes back. *)
                t.deferred <- t.deferred + 1;
                ch.bad_streak <- cfg.escalate_windows
              end
            | Quarantined -> assert false
        end
        else if ch.score <= cfg.exit_healthy then begin
          ch.bad_streak <- 0;
          ch.good_streak <- ch.good_streak + 1;
          if ch.good_streak >= cfg.recover_windows && st <> Healthy then begin
            ch.state <- Healthy;
            ch.good_streak <- 0;
            (* A full recovery forgives past flaps: the next failure
               starts the backoff schedule over. *)
            let seq = ch.flaps in
            ch.flaps <- 0;
            (if st = Probation then
               emit t ~time:now Stripe_obs.Event.Reinstate ~channel:c
                 ~size:1000 ~seq);
            push (To_healthy { channel = c; from = st })
          end
        end
        else begin
          (* Hysteresis band: progress in neither direction. *)
          ch.bad_streak <- 0;
          ch.good_streak <- 0
        end)
    t.chans;
  List.rev !out

let state_name = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Probation -> "probation"
  | Quarantined -> "quarantined"

(* Spec grammar (for --health command-line flags):

     KEY=VALUE[,KEY=VALUE...]

   every=S        evidence-window tick interval (returned separately —
                  driver policy, not engine state)
   alpha=A        EWMA weight of the newest window
   suspect=X      healthy->suspect score threshold
   quarantine=X   probation->quarantine score threshold
   exit=X         recovery threshold (hysteresis low line)
   escalate=N     consecutive bad windows per escalation
   recover=N      consecutive clean windows per de-escalation
   frac=F         probation quantum fraction
   backoff=S      first quarantine duration
   factor=F       backoff growth per flap
   maxbackoff=S   backoff ceiling *)
let parse_spec s =
  let open Stripe_netsim.Spec in
  let c = ctx ~kind:"health" s in
  let rec collect (cfg, every) = function
    | [] -> Ok (cfg, every)
    | (c, tok) :: rest ->
      let* acc =
        match kv tok with
        | _, None -> errf c "health item %S lacks a =VALUE" tok
        | "every", Some v ->
          let* e = positive c ~what:"tick interval" v in
          Ok (cfg, Some e)
        | "alpha", Some v ->
          let* a = prob c ~what:"alpha" v in
          Ok ({ cfg with alpha = a }, every)
        | "suspect", Some v ->
          let* x = prob c ~what:"suspect threshold" v in
          Ok ({ cfg with enter_suspect = x }, every)
        | "quarantine", Some v ->
          let* x = prob c ~what:"quarantine threshold" v in
          Ok ({ cfg with enter_quarantine = x }, every)
        | "exit", Some v ->
          let* x = prob c ~what:"exit threshold" v in
          Ok ({ cfg with exit_healthy = x }, every)
        | "escalate", Some v ->
          let* n = int_ c ~what:"escalate windows" v in
          Ok ({ cfg with escalate_windows = n }, every)
        | "recover", Some v ->
          let* n = int_ c ~what:"recover windows" v in
          Ok ({ cfg with recover_windows = n }, every)
        | "frac", Some v ->
          let* f = prob c ~what:"probation fraction" v in
          Ok ({ cfg with probation_frac = f }, every)
        | "backoff", Some v ->
          let* b = positive c ~what:"backoff" v in
          Ok ({ cfg with base_backoff = b }, every)
        | "factor", Some v ->
          let* f = positive c ~what:"backoff factor" v in
          Ok ({ cfg with backoff_factor = f }, every)
        | "maxbackoff", Some v ->
          let* b = positive c ~what:"max backoff" v in
          Ok ({ cfg with max_backoff = b }, every)
        | name, Some _ ->
          errf c
            "unknown health item %S (want every=, alpha=, suspect=, \
             quarantine=, exit=, escalate=, recover=, frac=, backoff=, \
             factor=, maxbackoff=)"
            name
      in
      collect acc rest
  in
  let* cfg, every = collect (default_config, None) (located c s) in
  match check_config cfg with
  | () -> Ok (cfg, every)
  | exception Invalid_argument m ->
    errf c "%s" (match String.index_opt m ':' with
      | Some i -> String.sub m (i + 2) (String.length m - i - 2)
      | None -> m)
