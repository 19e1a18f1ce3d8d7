(* Always-on invariant monitors over the event stream.

   The monitor is a sink: tee it into any component's sink and it
   shadows the protocol's externally visible state — delivered sequence
   numbers, resequencer buffer occupancy, marker-interval progress —
   asserting the invariants every chaos soak must preserve. It never
   inspects component internals, so a violation is a real contract
   breach at the observable boundary, not an implementation detail.

   Monitors fail loudly but non-fatally: each violation is counted and
   the first is kept with its time and a one-line diagnosis; the driver
   decides whether to abort. The FIFO monitor honors a "quiet line": chaos
   legally degrades delivery to quasi-FIFO while its effects drain
   (Thm 5.1), so sequence inversions are always counted but only become
   violations at/after the line. *)

(* The progress monitor's K: marker intervals data may sit buffered
   with no delivery before the receiver counts as wedged. *)
let wedge_intervals = 8

type t = {
  mutable quiet_after : float;
  budget_bytes : int option;
  (* Liveness: shadow of which channels the health engine holds in
     quarantine ([Quarantine] sets, [Reinstate] clears). The health
     engine must never quarantine the whole membership (PROTOCOL.md
     §13); the moment every armed channel is dark it is a violation.
     Empty array = monitor disarmed. *)
  quarantined : bool array;
  mutable n_quarantined : int;
  (* FIFO: highest data seq delivered so far (0 = nothing judged). *)
  mutable last_seq : int;
  mutable inversions : int;
  (* Budget: shadow of the resequencer's buffered data bytes, from
     Enqueue minus Deliver minus Epoch_discard. *)
  mutable buffered : int;
  (* Progress: marker intervals in a row with data buffered and nothing
     delivered. *)
  mutable delivered_since_marker : bool;
  mutable streak : int;
  mutable n_events : int;
  mutable first : (float * string) option;
  mutable n_violations : int;
}

let create ?budget_bytes ?live_channels () =
  (match budget_bytes with
  | Some b when b <= 0 ->
    invalid_arg "Monitor.create: budget_bytes must be positive"
  | _ -> ());
  (match live_channels with
  | Some n when n <= 0 ->
    invalid_arg "Monitor.create: live_channels must be positive"
  | _ -> ());
  {
    quiet_after = 0.0;
    budget_bytes;
    quarantined =
      (match live_channels with Some n -> Array.make n false | None -> [||]);
    n_quarantined = 0;
    last_seq = 0;
    inversions = 0;
    buffered = 0;
    delivered_since_marker = true;
    streak = 0;
    n_events = 0;
    first = None;
    n_violations = 0;
  }

let violate t ~time fmt =
  Printf.ksprintf
    (fun msg ->
      t.n_violations <- t.n_violations + 1;
      if t.first = None then t.first <- Some (time, msg))
    fmt

let on_event t (e : Event.t) =
  t.n_events <- t.n_events + 1;
  match e.kind with
  | Event.Deliver ->
    t.delivered_since_marker <- true;
    t.streak <- 0;
    t.buffered <- t.buffered - e.size;
    if e.seq > 0 then begin
      if e.seq < t.last_seq then begin
        t.inversions <- t.inversions + 1;
        if e.time >= t.quiet_after then
          violate t ~time:e.time
            "FIFO: seq %d delivered after %d (past the quiet line %g)"
            e.seq t.last_seq t.quiet_after
      end
      else t.last_seq <- e.seq
    end
  | Event.Enqueue -> begin
    t.buffered <- t.buffered + e.size;
    match t.budget_bytes with
    | Some b when t.buffered > b ->
      violate t ~time:e.time "budget: %d data bytes buffered exceeds %d"
        t.buffered b
    | Some _ | None -> ()
  end
  | Event.Epoch_discard -> t.buffered <- t.buffered - e.size
  | Event.Marker_applied ->
    (* A marker interval elapsed at the receiver. Data sitting buffered
       across [wedge_intervals] of them with no delivery means the scan
       is wedged — the marker machinery exists precisely so that
       buffered data survives at most a bounded number of intervals. *)
    if t.buffered > 0 && not t.delivered_since_marker then begin
      t.streak <- t.streak + 1;
      if t.streak = wedge_intervals then
        violate t ~time:e.time
          "progress: %d bytes buffered across %d marker intervals with no \
           delivery"
          t.buffered wedge_intervals
    end
    else t.streak <- 0;
    t.delivered_since_marker <- false
  | Event.Quarantine ->
    let n = Array.length t.quarantined in
    if n > 0 && e.channel >= 0 && e.channel < n then begin
      if not t.quarantined.(e.channel) then begin
        t.quarantined.(e.channel) <- true;
        t.n_quarantined <- t.n_quarantined + 1
      end;
      if t.n_quarantined >= n then
        violate t ~time:e.time
          "liveness: quarantining channel %d leaves 0 of %d members active"
          e.channel n
    end
  | Event.Reinstate ->
    let n = Array.length t.quarantined in
    if n > 0 && e.channel >= 0 && e.channel < n then
      if t.quarantined.(e.channel) then begin
        t.quarantined.(e.channel) <- false;
        t.n_quarantined <- t.n_quarantined - 1
      end
  | Event.Crash | Event.Restart ->
    (* An endpoint lost its state: the shadow restarts with it. The
       receiver pair wipes the buffer; delivered-order memory is void
       (post-restart stragglers may legally carry lower seqs — the
       quiet line governs when strictness resumes). *)
    t.buffered <- 0;
    t.streak <- 0;
    t.delivered_since_marker <- true;
    t.last_seq <- 0
  | _ -> ()

let sink t = Sink.of_fn (on_event t)
let set_quiet_after t time = t.quiet_after <- time
let violations t = t.n_violations
let first_violation t = t.first
let seq_inversions t = t.inversions
let events_seen t = t.n_events

type verdict = {
  violations : int;
  seq_inversions : int;
  first_violation : (float * string) option;
  events_seen : int;
}

let verdict t =
  {
    violations = t.n_violations;
    seq_inversions = t.inversions;
    first_violation = t.first;
    events_seen = t.n_events;
  }

(* Counts add; [first_violation] keeps the earliest by violation time,
   ties keeping the left argument's, so folding over shards in shard
   order is deterministic. *)
let merge a b =
  {
    violations = a.violations + b.violations;
    seq_inversions = a.seq_inversions + b.seq_inversions;
    first_violation =
      (match (a.first_violation, b.first_violation) with
      | None, v | v, None -> v
      | Some (ta, _), Some (tb, _) ->
        if tb < ta then b.first_violation else a.first_violation);
    events_seen = a.events_seen + b.events_seen;
  }

let merged_verdict = function
  | [] -> invalid_arg "Monitor.merged_verdict: empty list"
  | v :: rest -> List.fold_left merge v rest

let conserved ~pushed ~delivered ~pending ~drops =
  pushed = delivered + pending + List.fold_left ( + ) 0 drops

let check_conservation ~what ~pushed ~delivered ~pending ~drops =
  if conserved ~pushed ~delivered ~pending ~drops then Ok ()
  else
    Error
      (Printf.sprintf
         "conservation: %s: pushed %d <> delivered %d + pending %d + drops %d"
         what pushed delivered pending
         (List.fold_left ( + ) 0 drops))
