open Stripe_packet
module Obs = Stripe_obs

type watchdog = { intervals : int; fallback : float }

type overflow =
  | Drop_newest
  | Force_flush

(* A sender-side transition (retune, bundle add/remove) staged until the
   matching §5 reset barrier completes, at which point the simulated
   engine is rebuilt to the staged shape. One transition in flight at a
   time: each rides its own barrier. *)
type staged =
  | S_none
  | S_retune of int array
  | S_add of int array  (* new quanta, width n (already grown) *)
  | S_remove of int * int array  (* leaving channel, new quanta *)

(* [force_round] entry of a channel with no pending marker stamp. *)
let no_stamp = min_int

type t = {
  d : Deficit.t;
  mutable n : int;
      (* Runtime width: the channels [receive] accepts and the barrier
         waits on. Equal to the engine's width except while an [S_add]
         is staged, when it already counts the newcomer the engine will
         only adopt at the barrier. *)
  mutable buffers : Packet.t Fifo_queue.t array;
  mutable staged : staged;
  budget : int option;
      (* Byte budget across the per-channel buffers, counting data
         packets only: markers are tiny, bounded in number by the marker
         cadence, and carry the resynchronization state — rejecting one
         to save 36 bytes could cost a whole marker interval of
         quasi-FIFO delivery, so they are always accepted. *)
  overflow : overflow;
  on_pressure : (high:bool -> unit) option;
  mutable force_round : int array;
  mutable force_dc : int array;
      (* Pending marker state per channel: the (round, DC) of the next
         data packet, to be enforced when the scan reaches that round;
         [force_round.(c) = no_stamp] when channel [c] has none. Two int
         arrays, so applying a marker allocates nothing. *)
  deliver : channel:int -> Packet.t -> unit;
  on_credit : (int -> int -> unit) option;
  mutable reset_pending : bool array;
      (* Channels whose stream has reached a reset marker; when all have,
         the receiver reinitializes (crash-recovery barrier, §5). *)
  mutable park_epoch : int array;
  mutable park_gen : int array;
      (* The (epoch, generation) stamp of the marker each parked channel
         is waiting at — meaningful only while [reset_pending] is set.
         §5 assumes one reset in flight at a time; under fault storms
         barriers can overtake each other, and the generation tag is
         what lets adoption pair markers of the same barrier instead of
         completing one generation with another's stragglers. A
         generation of [0] is an untagged (legacy / hand-built) marker:
         it joins whatever barrier adopts in its epoch. *)
  mutable rx_gen : int;
      (* Generation (within [rx_epoch]) of the last adopted barrier;
         [-1] when none has been adopted this epoch. A reset marker at
         or below this pair is a leftover copy of a barrier already
         crossed and is absorbed without parking — the §5 dedupe that
         keeps stray copies from assembling phantom barriers. *)
  now : unit -> float;
  sink : Obs.Sink.t;
  wd : watchdog option;
  mutable last_rx : float array;  (* Last physical arrival (data or marker). *)
  mutable last_marker_rx : float array;
  mutable marker_gap : float array;
      (* EWMA of the observed inter-marker gap per channel; 0 until two
         markers have arrived, in which case [wd.fallback] stands in. *)
  mutable gap_suspect : float array;
      (* A marker gap that exceeded the watchdog horizon, held out of
         the cadence estimate until corroborated (0 = none pending).
         One such gap is an outage that swallowed markers — adopting it
         would inflate every horizon derived from the estimate (dead
         declaration, barrier staleness) by the outage length; two
         consecutive such gaps are a genuine cadence stretch, and the
         smaller of the two is adopted. *)
  mutable dead : bool array;
  mutable n_data_buffered : int;
  mutable n_delivered : int;
  mutable n_skips : int;
  mutable n_wd_skips : int;
  mutable wd_spin : int;
      (* Watchdog skips since the last delivery / barrier / arrival.
         Buffered data can be unreachable (e.g. behind a reset marker on
         a channel whose barrier cannot complete), so skips must be
         bounded or the scan would spin forever: once a full rotation of
         skips yields no delivery, the receiver blocks until something
         new arrives. *)
  mutable n_deaths : int;
  mutable n_markers : int;
  mutable n_resets : int;
  mutable waiting : int;  (* Channel the scan is blocked on; -1 = none. *)
  mutable data_bytes : int;  (* Data bytes currently buffered. *)
  mutable max_data_bytes : int;
  mutable pressure : bool;
  mutable force_need : int;
      (* > 0 while a Force_flush eviction is in progress: the scan turns
         blocks into bounded forced skips until this many bytes fit under
         the budget. *)
  mutable n_overflows : int;
  mutable n_overflow_drops : int;
  mutable n_forced_deliveries : int;
  mutable n_corrupt_markers : int;
  mutable round_lag : int;
      (* Translation between the sender's round numbering and the
         receiver's global round [G]. Zero in normal operation: the scan
         can only lag the sender (blocks and C1 skips), never lead, and
         markers re-pin under [r >= G]. Forced skips (Force_flush) and
         watchdog skips break that invariant — they advance [G] without
         consuming the sender's schedule, so [G] can run {e ahead} and
         every later marker arrives with [r < G]. Pinning such markers
         verbatim anchors each channel at a different phase and the
         simulated interleave stays scrambled forever. Instead, marker
         rounds are compared as [r + round_lag]; when a marker still pins
         below [G] the lag is re-anchored to [G - r], which is consistent
         across channels because the sender's rounds are one global
         sequence. *)
  mutable n_realigns : int;
  mutable rx_epoch : int;
      (* Sender incarnation this receiver is synchronized to. Markers
         from a later epoch prove the sender crash-restarted and lost all
         striping state (PROTOCOL.md §12): whatever is buffered ahead of
         such a marker on its channel predates the crash and is stale.
         [min_int] after a receiver-side [crash_restart], so the very
         next marker on each channel — whatever its epoch — drives the
         cold resynchronization. *)
  mutable pending_epoch : int;
      (* Epoch of the in-progress crash barrier; equals [rx_epoch] when
         none is in progress. Adopted at barrier completion. *)
  mutable ch_epoch : int array;
      (* Highest marker epoch seen per channel. Tracks which channels
         have already joined the crash barrier, so a channel is flushed
         once per sender incarnation, not once per marker. *)
  mutable n_epoch_discards : int;
  mutable n_crash_syncs : int;  (* Completed crash barriers. *)
  mutable n_stale_resets : int;
      (* Reset-marker copies discarded as duplicates of an already
         adopted generation. *)
  mutable realign_pending : bool;
      (* Set when a crash barrier adopts: the two endpoints restarted
         their round numbering independently (the sender from its
         reboot, the receiver from the barrier's reinit), so the first
         marker absorbed afterwards re-anchors [round_lag] instead of
         C1-skipping its way across the gap round by round. *)
  mutable barrier_start : float;
      (* When the first channel of the currently assembling reset
         barrier parked ([nan] when none is assembling). The generation
         tag pairs markers of the same barrier, but a marker genuinely
         lost on a dead link still leaves a barrier that cannot
         complete; the assembly age bounds the wait: see
         [barrier_stale]. *)
  mutable n_forced_barriers : int;
  (* Arrival reorder-depth gauge: for each data arrival, how far below
     the highest sequence already arrived it lands (0 = in order). This
     is the discipline-comparison metric — how much cross-channel
     interleave the resequencer is asked to repair — measured at
     arrival, before any buffering decision. [rd_hist] is a bounded
     histogram (last bucket = overflow) for percentiles; [rd_max] is
     exact. Packets without a sequence (seq < 0) are not judged. *)
  mutable rd_max_seq : int;
  mutable rd_max : int;
  mutable rd_samples : int;
  rd_hist : int array;
  mutable on_adopt : unit -> unit;
      (* Fires after a staged retune/add/remove is adopted at its
         barrier. The demux layer above uses this to switch its
         channel-index mapping at exactly the point in each channel's
         FIFO where the sender's numbering changed. *)
}

(* Histogram width of the reorder-depth gauge: depths at or above the
   last bucket clamp into it (the max stays exact). 128 keeps the array
   at 1 KiB so the bundle pool can afford one per slot. *)
let rd_buckets = 128

let create ~deficit ?on_credit ?(now = fun () -> 0.0) ?(sink = Obs.Sink.null)
    ?watchdog ?budget_bytes ?(overflow = Drop_newest) ?on_pressure ~deliver ()
    =
  (match watchdog with
  | Some w when w.intervals <= 0 || w.fallback <= 0.0 ->
    invalid_arg "Resequencer.create: watchdog needs intervals > 0, fallback > 0"
  | Some _ | None -> ());
  (match budget_bytes with
  | Some b when b <= 0 ->
    invalid_arg "Resequencer.create: budget_bytes must be positive"
  | Some _ | None -> ());
  let n = Deficit.n_channels deficit in
  {
    d = deficit;
    n;
    buffers = Array.init n (fun _ -> Fifo_queue.create ());
    staged = S_none;
    budget = budget_bytes;
    overflow;
    on_pressure;
    force_round = Array.make n no_stamp;
    force_dc = Array.make n 0;
    deliver;
    on_credit;
    reset_pending = Array.make n false;
    park_epoch = Array.make n 0;
    park_gen = Array.make n 0;
    rx_gen = -1;
    now;
    sink;
    wd = watchdog;
    last_rx = Array.make n (now ());
    last_marker_rx = Array.make n neg_infinity;
    marker_gap = Array.make n 0.0;
    gap_suspect = Array.make n 0.0;
    dead = Array.make n false;
    n_data_buffered = 0;
    n_delivered = 0;
    n_skips = 0;
    n_wd_skips = 0;
    wd_spin = 0;
    n_deaths = 0;
    n_markers = 0;
    n_resets = 0;
    waiting = -1;
    data_bytes = 0;
    max_data_bytes = 0;
    pressure = false;
    force_need = 0;
    n_overflows = 0;
    n_overflow_drops = 0;
    n_forced_deliveries = 0;
    n_corrupt_markers = 0;
    round_lag = 0;
    n_realigns = 0;
    rx_epoch = 0;
    pending_epoch = 0;
    ch_epoch = Array.make n 0;
    n_epoch_discards = 0;
    n_crash_syncs = 0;
    n_stale_resets = 0;
    realign_pending = false;
    barrier_start = Float.nan;
    n_forced_barriers = 0;
    rd_max_seq = -1;
    rd_max = 0;
    rd_samples = 0;
    rd_hist = Array.make rd_buckets 0;
    on_adopt = (fun () -> ());
  }

let on_transition_adopted t f = t.on_adopt <- f

(* Re-arm an existing resequencer for a fresh bundle. This is the bundle
   pool's churn primitive: a departing bundle's resequencer — buffers,
   engine, watchdog arrays and all — is reset in place and handed to the
   next arrival, so tearing down and re-creating a bundle allocates
   nothing in steady state. The per-channel buffers are recycled with
   {!Fifo_queue.recycle}, not bare [clear]: clear keeps the high-water
   marks (lifetime maxima for buffer-sizing reports), and carrying them
   to the next owner would report cross-bundle maxima. The [deliver] /
   [on_credit] / [on_pressure] callbacks, sink, clock, watchdog config,
   and budget are slot state and are kept. *)
let recycle t =
  let n = Deficit.n_channels t.d in
  Deficit.reconfigure t.d ~quanta:(Deficit.quanta t.d);
  t.staged <- S_none;
  if Array.length t.buffers <> n then begin
    (* A staged add/remove died with the old bundle: rebuild the runtime
       arrays at the engine's width. *)
    t.buffers <- Array.init n (fun _ -> Fifo_queue.create ());
    t.force_round <- Array.make n no_stamp;
    t.force_dc <- Array.make n 0;
    t.reset_pending <- Array.make n false;
    t.park_epoch <- Array.make n 0;
    t.park_gen <- Array.make n 0;
    t.last_rx <- Array.make n (t.now ());
    t.last_marker_rx <- Array.make n neg_infinity;
    t.marker_gap <- Array.make n 0.0;
    t.gap_suspect <- Array.make n 0.0;
    t.dead <- Array.make n false;
    t.ch_epoch <- Array.make n 0
  end
  else begin
    Array.iter Fifo_queue.recycle t.buffers;
    Array.fill t.force_round 0 n no_stamp;
    Array.fill t.reset_pending 0 n false;
    Array.fill t.park_epoch 0 n 0;
    Array.fill t.park_gen 0 n 0;
    Array.fill t.last_rx 0 n (t.now ());
    Array.fill t.last_marker_rx 0 n neg_infinity;
    Array.fill t.marker_gap 0 n 0.0;
    Array.fill t.gap_suspect 0 n 0.0;
    Array.fill t.dead 0 n false;
    Array.fill t.ch_epoch 0 n 0
  end;
  t.n <- n;
  t.n_data_buffered <- 0;
  t.n_delivered <- 0;
  t.n_skips <- 0;
  t.n_wd_skips <- 0;
  t.wd_spin <- 0;
  t.n_deaths <- 0;
  t.n_markers <- 0;
  t.n_resets <- 0;
  t.waiting <- -1;
  t.data_bytes <- 0;
  t.max_data_bytes <- 0;
  t.pressure <- false;
  t.force_need <- 0;
  t.n_overflows <- 0;
  t.n_overflow_drops <- 0;
  t.n_forced_deliveries <- 0;
  t.n_corrupt_markers <- 0;
  t.round_lag <- 0;
  t.n_realigns <- 0;
  t.rx_epoch <- 0;
  t.pending_epoch <- 0;
  t.rx_gen <- -1;
  t.n_epoch_discards <- 0;
  t.n_crash_syncs <- 0;
  t.n_stale_resets <- 0;
  t.realign_pending <- false;
  t.barrier_start <- Float.nan;
  t.n_forced_barriers <- 0;
  t.rd_max_seq <- -1;
  t.rd_max <- 0;
  t.rd_samples <- 0;
  Array.fill t.rd_hist 0 rd_buckets 0

(* Backpressure with hysteresis: raise above 3/4 of the budget, clear
   below 1/2, so a flow controller toggles once per congestion episode
   rather than on every packet near the threshold. *)
let update_pressure t =
  match t.budget with
  | None -> ()
  | Some b ->
    if (not t.pressure) && t.data_bytes * 4 > b * 3 then begin
      t.pressure <- true;
      match t.on_pressure with Some f -> f ~high:true | None -> ()
    end
    else if t.pressure && t.data_bytes * 2 < b then begin
      t.pressure <- false;
      match t.on_pressure with Some f -> f ~high:false | None -> ()
    end

(* Marker-cadence watchdog (not part of the paper's protocol, which
   assumes channels stay up): markers arrive on every live channel with a
   roughly periodic cadence, so a channel silent for [intervals] estimated
   marker gaps is declared dead. The check is lazy — evaluated when the
   scan blocks on the channel — so no periodic timer is required as long
   as other channels keep the scan moving; [tick] covers the rest. *)
let expected_gap t w c =
  if t.marker_gap.(c) > 0.0 then t.marker_gap.(c) else w.fallback

let check_dead t c =
  match t.wd with
  | None -> false
  | Some w ->
    t.dead.(c)
    ||
    let silence = t.now () -. t.last_rx.(c) in
    silence > float_of_int w.intervals *. expected_gap t w c
    && begin
         t.dead.(c) <- true;
         t.n_deaths <- t.n_deaths + 1;
         true
       end

(* Watchdog bookkeeping for one arrival. Only the watchdog reads what
   this records, and [wd] never changes, so without one there is nothing
   to do — not even a clock read, which would box a float per packet. *)
let note_arrival t c ~is_marker =
  match t.wd with
  | None -> ()
  | Some w ->
    let now = t.now () in
    t.last_rx.(c) <- now;
    t.dead.(c) <- false;
    if is_marker then begin
      if t.last_marker_rx.(c) > neg_infinity then begin
        let gap = now -. t.last_marker_rx.(c) in
        (* A gap so large the watchdog's own horizon expired inside it is
           either an outage that swallowed markers or a drastic cadence
           stretch — indistinguishable from one sample. Feeding an outage
           to the estimate would inflate every horizon derived from it
           (dead declaration, barrier staleness) by the outage length, so
           the sample is held back as a suspect and adopted only if the
           next gap corroborates it: outages are one-offs, cadence changes
           persist. Only a {e learned} estimate gates this — before one
           exists ([marker_gap] = 0, e.g. right after a barrier reseed)
           every sample is admissible, else a true cadence slower than the
           fallback horizon could never be learned at all. *)
        let beyond_horizon =
          t.marker_gap.(c) > 0.0
          && gap > float_of_int w.intervals *. t.marker_gap.(c)
        in
        if beyond_horizon then
          if t.gap_suspect.(c) > 0.0 then begin
            (* Corroborated: two consecutive beyond-horizon gaps. The
               smaller bounds the true cadence (both gaps are at least
               one real interval), so an outage in either inflates the
               adopted value the least this way. *)
            t.marker_gap.(c) <- Float.min gap t.gap_suspect.(c);
            t.gap_suspect.(c) <- 0.0
          end
          else t.gap_suspect.(c) <- gap
        else begin
          t.gap_suspect.(c) <- 0.0;
          t.marker_gap.(c) <-
            (if t.marker_gap.(c) <= 0.0 then gap
             else if gap > t.marker_gap.(c) then
               (* A gap above the estimate (but inside the horizon) is
                  adopted outright, bounding the EWMA's memory: after a
                  deliberate cadence stretch (an adaptive policy
                  lengthening the marker interval) a half-gain average
                  would need log2(stretch) intervals to catch up,
                  declaring the channel dead spuriously the whole while.
                  Adopting up / averaging down makes the estimate
                  one-sided-safe: the watchdog can only fire after
                  genuine silence at the newest observed cadence. *)
               gap
             else (0.5 *. t.marker_gap.(c)) +. (0.5 *. gap))
        end
      end;
      t.last_marker_rx.(c) <- now
    end

(* The stamp is recorded for the channel whose buffer the marker was
   drawn from, not [m.m_channel]: the arrival port is ground truth (a
   real receiver knows which wire a packet came in on), whereas the
   payload field could in principle be damaged in flight. *)
let apply_marker t c (m : Packet.marker) =
  t.n_markers <- t.n_markers + 1;
  t.force_round.(c) <- m.m_round;
  t.force_dc.(c) <- m.m_dc;
  if Obs.Sink.active t.sink then
    Obs.Sink.emit t.sink
      (Obs.Event.v ~channel:c ~round:m.m_round ~dc:m.m_dc ~time:(t.now ())
         Obs.Event.Marker_applied);
  match t.on_credit, m.m_credit with
  | Some f, Some k -> f c k
  | Some _, None | None, _ -> ()

(* A channel parks at a reset marker, recording the marker's
   (epoch, generation) stamp so adoption can group channels by barrier.
   The assembly clock starts with the barrier's first parked channel and
   is cleared at adoption. Re-parking a channel (a later copy arriving
   before its barrier adopts) keeps the newest stamp: the §5 sender
   sequences one reset at a time per channel, so a later stamp means the
   earlier barrier was already adopted or force-expired. *)
let note_reset_pending t c ~epoch ~gen =
  if Float.is_nan t.barrier_start then t.barrier_start <- t.now ();
  t.reset_pending.(c) <- true;
  t.park_epoch.(c) <- epoch;
  t.park_gen.(c) <- gen

(* A tagged reset marker at or below the last adopted (epoch, generation)
   pair is a duplicate copy of a barrier this receiver already crossed —
   typically a sibling of the marker that triggered an eager crash-sync,
   or a copy that outlived a force-adopted barrier. Parking it would
   start a phantom barrier that can never complete (its siblings were
   consumed), trapping everything buffered behind it until the staleness
   horizon. Untagged markers (generation 0) predate the tag and always
   park. *)
let reset_stale t ~epoch ~gen =
  gen > 0 && (epoch < t.rx_epoch || (epoch = t.rx_epoch && gen <= t.rx_gen))

(* Markers take effect in their FIFO position within the channel's
   stream: absorb any markers at the head of the current channel's buffer
   before deciding how to serve it. A marker's (r, d) describes exactly
   the next data packet behind it on the same channel. Absorption stops
   at a reset marker: everything behind it belongs to the next epoch and
   stays buffered until the reset barrier completes. *)
let rec absorb_markers t c =
  let buf = t.buffers.(c) in
  if not (Fifo_queue.is_empty buf) then begin
    let pkt = Fifo_queue.peek_unsafe buf in
    if Packet.is_marker pkt then begin
      let m = Packet.get_marker pkt in
      if m.Packet.m_reset then begin
        ignore (Fifo_queue.pop_exn buf);
        t.n_markers <- t.n_markers + 1;
        if Obs.Sink.active t.sink then
          Obs.Sink.emit t.sink
            (Obs.Event.v ~channel:c ~round:m.Packet.m_round ~dc:m.Packet.m_dc
               ~time:(t.now ()) Obs.Event.Marker_applied);
        if reset_stale t ~epoch:m.Packet.m_epoch ~gen:m.Packet.m_gen then begin
          t.n_stale_resets <- t.n_stale_resets + 1;
          absorb_markers t c
        end
        else
          note_reset_pending t c ~epoch:m.Packet.m_epoch ~gen:m.Packet.m_gen
      end
      else begin
        ignore (Fifo_queue.pop_exn buf);
        apply_marker t c m;
        absorb_markers t c
      end
    end
  end

(* A marker from a later sender epoch arrived on [c]: the sender
   crash-restarted, so everything buffered ahead of the marker in [c]'s
   FIFO predates the crash. Data sent by the old incarnation can never be
   placed — the state that numbered it died with the sender — so it is
   discarded (counted), stale marker stamps with it, and the channel
   joins the crash reset barrier. This is what makes the barrier robust
   to losing the restart's own reset markers (a storm scenario: a link is
   down exactly while the sender reboots): any later periodic marker
   carries the epoch and has the same effect. *)
let crash_sync t c ~epoch ~gen =
  let buf = t.buffers.(c) in
  let bytes = ref 0 and pkts = ref 0 in
  let rec flush () =
    match Fifo_queue.pop buf with
    | None -> ()
    | Some pkt ->
      if not (Packet.is_marker pkt) then begin
        incr pkts;
        bytes := !bytes + pkt.Packet.size
      end;
      flush ()
  in
  flush ();
  if !pkts > 0 then begin
    t.n_data_buffered <- t.n_data_buffered - !pkts;
    t.data_bytes <- t.data_bytes - !bytes;
    t.n_epoch_discards <- t.n_epoch_discards + !pkts;
    update_pressure t;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel:c ~size:!bytes ~seq:!pkts ~time:(t.now ())
           Obs.Event.Epoch_discard)
  end;
  t.force_round.(c) <- no_stamp;
  note_reset_pending t c ~epoch ~gen;
  if t.waiting = c then t.waiting <- -1

(* The §5 barrier is complete when the reset marker has arrived on every
   channel — every channel, dead ones included. Excusing a
   watchdog-declared-dead channel here looks tempting (its marker may
   have been lost with the link) but mispairs generations: a channel
   revived an instant before the barrier fires is still marked dead
   while its reset marker is already in flight, the barrier completes
   without it, and the late marker then parks its channel in a phantom
   barrier that traps everything behind it until the staleness horizon.
   Waiting is safe either way: an in-flight marker arrives within a
   propagation delay (far inside the watchdog horizon) and pairs
   properly; a genuinely lost marker leaves the barrier to
   [barrier_stale], which force-adopts after the same bounded horizon
   the watchdog already trusts. *)
let barrier_complete t =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    if not t.reset_pending.(i) then ok := false
  done;
  !ok

(* The generation tag pairs markers of the same barrier, but it cannot
   conjure a marker that a dead link genuinely dropped: a barrier whose
   missing member's reset marker was lost would wait forever on a
   demonstrably dead channel. The watchdog's cadence bound breaks the
   deadlock: an assembling barrier can only legitimately be waiting on
   in-flight packets, bounded by the same [intervals x gap] horizon the
   watchdog already trusts, so a barrier older than that is
   force-adopted. [reinit] is idempotent — every generation
   reinitializes to the same fresh state — so force-adopting costs at
   most a bounded quasi-FIFO episode, and the generation dedupe
   ([reset_stale]) absorbs the lost barrier's stragglers instead of
   letting them assemble a phantom. *)
let barrier_stale t =
  match t.wd with
  | None -> false
  | Some w ->
    (not (Float.is_nan t.barrier_start))
    &&
    let gap = ref w.fallback in
    for i = 0 to t.n - 1 do
      if t.marker_gap.(i) > !gap then gap := t.marker_gap.(i)
    done;
    t.now () -. t.barrier_start > float_of_int w.intervals *. !gap

let splice a c =
  Array.init (Array.length a - 1) (fun i -> if i < c then a.(i) else a.(i + 1))

(* Adopt a staged transition when its barrier completes — or plain
   [reinit] when none is staged. For a removal, whatever is still
   buffered on the leaving channel leaves with it: in healthy operation
   that buffer is empty (the goodbye reset marker is sequenced behind
   all the channel's data, so the scan drained it before the barrier
   could complete); only a watchdog-declared-dead removal can lose
   packets here, and those were stranded on a dead link anyway. *)
let adopt_staged t =
  match t.staged with
  | S_none -> Deficit.reinit t.d
  | S_retune q | S_add q ->
    t.staged <- S_none;
    Deficit.reconfigure t.d ~quanta:q;
    t.on_adopt ()
  | S_remove (c, q) ->
    t.staged <- S_none;
    Fifo_queue.iter t.buffers.(c) (fun pkt ~size ->
        if not (Packet.is_marker pkt) then begin
          t.n_data_buffered <- t.n_data_buffered - 1;
          t.data_bytes <- t.data_bytes - size
        end);
    t.buffers <- splice t.buffers c;
    t.force_round <- splice t.force_round c;
    t.force_dc <- splice t.force_dc c;
    t.reset_pending <- splice t.reset_pending c;
    t.park_epoch <- splice t.park_epoch c;
    t.park_gen <- splice t.park_gen c;
    t.last_rx <- splice t.last_rx c;
    t.last_marker_rx <- splice t.last_marker_rx c;
    t.marker_gap <- splice t.marker_gap c;
    t.gap_suspect <- splice t.gap_suspect c;
    t.dead <- splice t.dead c;
    t.ch_epoch <- splice t.ch_epoch c;
    t.n <- t.n - 1;
    update_pressure t;
    Deficit.reconfigure t.d ~quanta:q;
    t.on_adopt ()

(* Enforce a marker's stamp on its channel. If the stamp still pins
   below [G] after translation, the scan has over-advanced (forced or
   watchdog skips): re-anchor [round_lag] so this marker — and every
   later one, on any channel — pins at a consistent phase. *)
let pin_marker t c =
  let g = Deficit.round t.d and round = t.force_round.(c) in
  if round + t.round_lag < g then begin
    t.round_lag <- g - round;
    t.n_realigns <- t.n_realigns + 1
  end;
  Deficit.set_dc t.d c t.force_dc.(c);
  t.force_round.(c) <- no_stamp

(* The receiver's scan: serve the current channel per the simulated
   sender algorithm; skip channels whose marker round is ahead of the
   receiver's global round (condition C1 of §5); block when the packet
   logically due next has not physically arrived. *)
let rec progress t =
  let c = Deficit.current t.d in
  if not t.reset_pending.(c) then absorb_markers t c;
  if t.reset_pending.(c) then begin
    let complete = barrier_complete t in
    let stale = (not complete) && barrier_stale t in
    if complete || stale then begin
      (* Adopt the {e oldest} parked (epoch, generation) pair: barriers
         adopt in the order the sender issued them. A channel parked at
         a younger pair is the next barrier already assembling — it
         stays parked (assembly clock restarted) and its barrier adopts
         once its own markers complete it. Untagged parks (generation 0)
         join whatever pair adopts in their epoch. A stale barrier (a
         member's marker genuinely lost, see [barrier_stale]) is adopted
         the same way — reinit reaches the same state however the
         barrier assembled. *)
      if stale then t.n_forced_barriers <- t.n_forced_barriers + 1;
      let ae = ref max_int in
      for i = 0 to t.n - 1 do
        if t.reset_pending.(i) && t.park_epoch.(i) < !ae then
          ae := t.park_epoch.(i)
      done;
      let ag = ref max_int in
      for i = 0 to t.n - 1 do
        if
          t.reset_pending.(i)
          && t.park_epoch.(i) = !ae
          && t.park_gen.(i) > 0
          && t.park_gen.(i) < !ag
        then ag := t.park_gen.(i)
      done;
      adopt_staged t;
      Array.fill t.force_round 0 t.n no_stamp;
      let residual = ref false in
      for i = 0 to t.n - 1 do
        if t.reset_pending.(i) then
          if
            t.park_epoch.(i) > !ae
            || (t.park_epoch.(i) = !ae && t.park_gen.(i) > !ag)
          then residual := true
          else t.reset_pending.(i) <- false
      done;
      t.barrier_start <- (if !residual then t.now () else Float.nan);
      (* Reseed the watchdog's marker-cadence estimate with the epoch:
         the sender that just reset may also have changed its marker
         interval (adaptive policies do), and an estimate carried across
         the barrier would misjudge the new cadence. Until two markers
         of the new epoch arrive, [wd.fallback] stands in. *)
      Array.fill t.marker_gap 0 t.n 0.0;
      Array.fill t.gap_suspect 0 t.n 0.0;
      Array.fill t.last_marker_rx 0 t.n neg_infinity;
      t.n_resets <- t.n_resets + 1;
      t.waiting <- -1;
      t.wd_spin <- 0;
      t.round_lag <- 0;
      if !ae > t.rx_epoch then begin
        (* A crash barrier: adopt the sender's new incarnation. The two
           endpoints' round numberings restarted independently, so let
           the first marker absorbed from the new epoch re-anchor
           [round_lag] rather than C1-skipping across the gap. *)
        t.rx_epoch <- !ae;
        t.rx_gen <- (if !ag = max_int then -1 else !ag);
        t.n_crash_syncs <- t.n_crash_syncs + 1;
        t.realign_pending <- true
      end
      else if !ae = t.rx_epoch && !ag <> max_int && !ag > t.rx_gen then
        t.rx_gen <- !ag;
      if Obs.Sink.active t.sink then
        Obs.Sink.emit t.sink
          (Obs.Event.v ~round:t.n_resets ~time:(t.now ())
             Obs.Event.Reset_barrier);
      progress t
    end
    else begin
      (* This channel's old epoch is over; keep draining the others —
         unless every engine channel is already parked at its reset
         marker. That happens while a staged add waits for the appended
         channel's marker ([t.n] exceeds the engine width until the
         barrier adopts): advancing would spin through parked channels
         forever, so block until the missing marker arrives (or the
         watchdog declares its channel dead), either of which re-enters
         the scan and completes the barrier. *)
      let engine_n = Deficit.n_channels t.d in
      let all_parked = ref true in
      for i = 0 to engine_n - 1 do
        if not t.reset_pending.(i) then all_parked := false
      done;
      if not !all_parked then begin
        Deficit.advance t.d;
        progress t
      end
    end
  end
  else begin
    let round = t.force_round.(c) in
    if round <> no_stamp && t.realign_pending then begin
      (* First marker after a crash barrier: both round numberings are
         fresh starts, so any lead it shows is an epoch offset, not lost
         packets — anchor [round_lag] so it pins now. A marker at or
         behind [G] means the simulation is already consistent. *)
      t.realign_pending <- false;
      if round + t.round_lag > Deficit.round t.d then begin
        t.round_lag <- Deficit.round t.d - round;
        t.n_realigns <- t.n_realigns + 1
      end
    end;
    if round <> no_stamp && round + t.round_lag > Deficit.round t.d then begin
      (* We lost packets on [c] and arrived "too early": skip it this round
         and wait for our round number to catch up with the marker's. *)
      t.n_skips <- t.n_skips + 1;
      if Obs.Sink.active t.sink then
        Obs.Sink.emit t.sink
          (Obs.Event.v ~channel:c ~round:(Deficit.round t.d) ~time:(t.now ())
             Obs.Event.Skip);
      Deficit.advance t.d;
      progress t
    end
    else begin
      if not (Deficit.in_service t.d) then Deficit.begin_visit t.d;
      (* The marker gives the authoritative DC for serving the next data
         packet, superseding our simulated value — at the start of a visit
         or as a mid-visit correction within the same round. *)
      if round <> no_stamp then pin_marker t c;
      if Deficit.dc t.d c <= 0 then begin
        Deficit.advance t.d;
        progress t
      end
      else if Fifo_queue.is_empty t.buffers.(c) then begin
          let forced = t.force_need > 0 in
          if
            (forced || check_dead t c)
            && t.n_data_buffered > 0
            && t.wd_spin < t.n
          then begin
            (* The watchdog declared [c] dead and other channels hold data
               — or a Force_flush eviction needs buffered data out {e now}:
               pass the channel over instead of blocking. Delivery is
               quasi-FIFO from here until a marker — or the sender's reset
               barrier — resynchronizes the simulation. The
               [n_data_buffered] guard keeps an all-quiet receiver blocked
               rather than spinning the scan. *)
            t.wd_spin <- t.wd_spin + 1;
            if not forced then begin
              t.n_wd_skips <- t.n_wd_skips + 1;
              if Obs.Sink.active t.sink then
                Obs.Sink.emit t.sink
                  (Obs.Event.v ~channel:c ~round:(Deficit.round t.d)
                     ~time:(t.now ()) Obs.Event.Watchdog_skip)
            end;
            if t.waiting = c then begin
              t.waiting <- -1;
              if Obs.Sink.active t.sink then
                Obs.Sink.emit t.sink
                  (Obs.Event.v ~channel:c ~time:(t.now ()) Obs.Event.Unblock)
            end;
            Deficit.advance t.d;
            progress t
          end
          else begin
            if t.waiting <> c && Obs.Sink.active t.sink then
              Obs.Sink.emit t.sink
                (Obs.Event.v ~channel:c ~time:(t.now ()) Obs.Event.Block);
            t.waiting <- c (* Block: logical reception waits here. *)
          end
      end
      else begin
          let pkt = Fifo_queue.pop_exn t.buffers.(c) in
          if t.waiting = c && Obs.Sink.active t.sink then
            Obs.Sink.emit t.sink
              (Obs.Event.v ~channel:c ~time:(t.now ()) Obs.Event.Unblock);
          t.waiting <- -1;
          t.wd_spin <- 0;
          t.n_data_buffered <- t.n_data_buffered - 1;
          t.data_bytes <- t.data_bytes - pkt.Packet.size;
          (match t.budget with
          | Some b when t.force_need > 0 && t.data_bytes + t.force_need <= b ->
            (* The eviction freed enough room; resume normal blocking. *)
            t.force_need <- 0
          | Some _ | None -> ());
          update_pressure t;
          t.n_delivered <- t.n_delivered + 1;
          if Obs.Sink.active t.sink then
            Obs.Sink.emit t.sink
              (Obs.Event.v ~channel:c ~round:(Deficit.round t.d)
                 ~dc:(Deficit.dc t.d c) ~size:pkt.Packet.size
                 ~seq:pkt.Packet.seq ~time:(t.now ()) Obs.Event.Deliver);
          t.deliver ~channel:c pkt;
          Deficit.consume t.d ~size:pkt.Packet.size;
          progress t
      end
    end
  end

(* Fallback eviction for data the scan cannot reach — e.g. buffered
   behind a reset marker whose barrier cannot complete. Pops the head of
   the byte-fullest buffer: a marker popped this way is absorbed normally
   (its stamp still re-pins the simulation); data is delivered out of
   scan order — quasi-FIFO at its worst, but memory-bounded. Returns
   whether anything was evicted. *)
let hard_pop t =
  let ci = ref (-1) and best = ref (-1) in
  for i = 0 to t.n - 1 do
    if not (Fifo_queue.is_empty t.buffers.(i)) then begin
      let b = Fifo_queue.bytes t.buffers.(i) in
      if b > !best then begin
        best := b;
        ci := i
      end
    end
  done;
  if !ci < 0 then false
  else begin
    let pkt = Fifo_queue.pop_exn t.buffers.(!ci) in
    let c = !ci in
      (if Packet.is_marker pkt then begin
         let m = Packet.get_marker pkt in
         if m.Packet.m_reset then begin
           t.n_markers <- t.n_markers + 1;
           (if reset_stale t ~epoch:m.Packet.m_epoch ~gen:m.Packet.m_gen then
              t.n_stale_resets <- t.n_stale_resets + 1
            else
              note_reset_pending t c ~epoch:m.Packet.m_epoch
                ~gen:m.Packet.m_gen);
           if Obs.Sink.active t.sink then
             Obs.Sink.emit t.sink
               (Obs.Event.v ~channel:c ~round:m.Packet.m_round
                  ~dc:m.Packet.m_dc ~time:(t.now ())
                  Obs.Event.Marker_applied)
         end
         else apply_marker t c m
       end
       else begin
         t.n_data_buffered <- t.n_data_buffered - 1;
         t.data_bytes <- t.data_bytes - pkt.Packet.size;
         t.n_delivered <- t.n_delivered + 1;
         t.n_forced_deliveries <- t.n_forced_deliveries + 1;
         if Obs.Sink.active t.sink then
           Obs.Sink.emit t.sink
             (Obs.Event.v ~channel:c ~size:pkt.Packet.size
                ~seq:pkt.Packet.seq ~time:(t.now ()) Obs.Event.Deliver);
         t.deliver ~channel:c pkt;
         update_pressure t
       end);
    true
  end

(* Force_flush eviction: make [need] bytes fit under the budget. First
   let the scan drain quasi-FIFO (blocks become bounded forced skips via
   [force_need]); whatever the scan cannot reach is evicted by
   [hard_pop]. Terminates: every iteration either frees enough room or
   removes at least one buffered packet. *)
let force_room t ~need ~budget =
  let continue = ref true in
  while !continue && t.data_bytes + need > budget && t.n_data_buffered > 0 do
    t.force_need <- need;
    t.wd_spin <- 0;
    progress t;
    if t.data_bytes + need > budget then
      if not (hard_pop t) then continue := false
  done;
  t.force_need <- 0

let receive t ~channel pkt =
  if channel < 0 || channel >= t.n then
    invalid_arg "Resequencer.receive: bad channel";
  let is_marker = Packet.is_marker pkt in
  if is_marker && not (Packet.marker_valid (Packet.get_marker pkt)) then begin
    (* Wire damage the link CRC missed, caught by the marker checksum:
       trusting the stamp would poison the (round, DC) simulation for a
       whole marker interval. Discard — the next good marker
       resynchronizes exactly as after a lost one (Theorem 5.1). The
       arrival still proves the channel is alive, but its cadence
       estimate only feeds on credible markers. *)
    note_arrival t channel ~is_marker:false;
    t.n_corrupt_markers <- t.n_corrupt_markers + 1;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel ~size:pkt.Packet.size ~time:(t.now ())
           Obs.Event.Corrupt_discard);
    progress t
  end
  else begin
    note_arrival t channel ~is_marker;
    t.wd_spin <- 0;
    if not is_marker then begin
      let s = pkt.Packet.seq in
      if s >= 0 then begin
        let d = if s < t.rd_max_seq then t.rd_max_seq - s else 0 in
        if d > t.rd_max then t.rd_max <- d;
        let b = if d >= rd_buckets then rd_buckets - 1 else d in
        t.rd_hist.(b) <- t.rd_hist.(b) + 1;
        t.rd_samples <- t.rd_samples + 1;
        if s > t.rd_max_seq then t.rd_max_seq <- s
      end
    end;
    (* Crash-sync (PROTOCOL.md §12): a valid marker from a later sender
       epoch is handled eagerly at arrival, not at its FIFO position —
       its mere existence proves everything buffered ahead of it on this
       channel is stale, and waiting for the scan to reach it could mean
       waiting forever (the scan may be blocked on data the crashed
       sender never sent). *)
    let consumed_here = ref false in
    if is_marker then begin
      let m = Packet.get_marker pkt in
      let e = m.Packet.m_epoch in
      if e > t.ch_epoch.(channel) then begin
        t.ch_epoch.(channel) <- e;
        if e > t.rx_epoch then begin
          if e > t.pending_epoch then t.pending_epoch <- e;
          crash_sync t channel ~epoch:e ~gen:m.Packet.m_gen;
          if m.Packet.m_reset then begin
            (* The restart's reset marker has done all its work here:
               flagging the channel and flushing stale data. Absorb it
               now instead of buffering it behind nothing. *)
            consumed_here := true;
            t.n_markers <- t.n_markers + 1;
            if Obs.Sink.active t.sink then
              Obs.Sink.emit t.sink
                (Obs.Event.v ~channel ~round:m.Packet.m_round
                   ~dc:m.Packet.m_dc ~time:(t.now ())
                   Obs.Event.Marker_applied)
          end
          (* A non-reset epoch-advanced marker (the reset marker itself
             was lost) is buffered normally below: once the barrier
             adopts, it pins the fresh engine at the sender's current
             position. *)
        end
      end
    end;
    if not !consumed_here then begin
    let accept =
      if is_marker then true
      else
        match t.budget with
        | None -> true
        | Some b when t.data_bytes + pkt.Packet.size <= b -> true
        | Some b ->
          t.n_overflows <- t.n_overflows + 1;
          if Obs.Sink.active t.sink then
            Obs.Sink.emit t.sink
              (Obs.Event.v ~channel ~size:pkt.Packet.size ~time:(t.now ())
                 Obs.Event.Buffer_overflow);
          (match t.overflow with
          | Drop_newest ->
            (* Refusing the arrival is a channel loss like any other:
               the marker machinery recovers the stream position. *)
            t.n_overflow_drops <- t.n_overflow_drops + 1;
            false
          | Force_flush ->
            force_room t ~need:pkt.Packet.size ~budget:b;
            let fits = t.data_bytes + pkt.Packet.size <= b in
            (* A packet bigger than the whole budget cannot be made to
               fit; it is dropped like any other overflow. *)
            if not fits then
              t.n_overflow_drops <- t.n_overflow_drops + 1;
            fits)
    in
    if accept then begin
      Fifo_queue.push t.buffers.(channel) ~size:pkt.Packet.size pkt;
      if not is_marker then begin
        t.n_data_buffered <- t.n_data_buffered + 1;
        t.data_bytes <- t.data_bytes + pkt.Packet.size;
        if t.data_bytes > t.max_data_bytes then
          t.max_data_bytes <- t.data_bytes;
        update_pressure t;
        if Obs.Sink.active t.sink then
          Obs.Sink.emit t.sink
            (Obs.Event.v ~channel ~size:pkt.Packet.size ~seq:pkt.Packet.seq
               ~time:(t.now ()) Obs.Event.Enqueue)
      end
    end;
    (* A channel staged for addition is not in the simulated engine yet,
       so the scan never visits it: absorb its head markers here so its
       reset marker can flag [reset_pending] and complete the barrier
       that adopts the wider bundle. *)
    if channel >= Deficit.n_channels t.d && not t.reset_pending.(channel) then
      absorb_markers t channel
    end;
    progress t
  end

let tick t =
  t.wd_spin <- 0;
  progress t

(* Receiver endpoint crash + restart (PROTOCOL.md §12): all protocol
   state — buffers, simulated engine, marker stamps, watchdog estimates,
   epoch knowledge — dies with the endpoint. Lifetime measurement
   counters survive (they model the operator's metrics store, not the
   endpoint). With [rx_epoch] at [min_int], the very next valid marker on
   each channel — the sender keeps its ordinary cadence, no out-of-band
   signal needed — triggers that channel's crash-sync, and the barrier
   rebuilds the engine once every live channel has reported in: cold
   recovery costs about one marker interval. Data arriving between the
   restart and a channel's first marker is buffered and then discarded by
   that crash-sync (counted in [epoch_discards]): the receiver has no
   state to place it with. Returns the number of buffered data packets
   wiped by the crash, for the caller's conservation accounting. *)
let crash_restart t =
  let wiped = t.n_data_buffered in
  let now = t.now () in
  if Obs.Sink.active t.sink then
    Obs.Sink.emit t.sink (Obs.Event.v ~time:now Obs.Event.Crash);
  Deficit.reconfigure t.d ~quanta:(Deficit.quanta t.d);
  t.staged <- S_none;
  let n = Deficit.n_channels t.d in
  if Array.length t.buffers <> n then begin
    (* A staged add/remove died with the endpoint: rebuild the runtime
       arrays at the engine's width. *)
    t.buffers <- Array.init n (fun _ -> Fifo_queue.create ());
    t.force_round <- Array.make n no_stamp;
    t.force_dc <- Array.make n 0;
    t.reset_pending <- Array.make n false;
    t.park_epoch <- Array.make n 0;
    t.park_gen <- Array.make n 0;
    t.last_rx <- Array.make n now;
    t.last_marker_rx <- Array.make n neg_infinity;
    t.marker_gap <- Array.make n 0.0;
    t.gap_suspect <- Array.make n 0.0;
    t.dead <- Array.make n false;
    t.ch_epoch <- Array.make n min_int
  end
  else begin
    (* [clear], not [recycle]: the bundle identity survives the crash,
       so high-water maxima stay lifetime measurements. *)
    Array.iter Fifo_queue.clear t.buffers;
    Array.fill t.force_round 0 n no_stamp;
    Array.fill t.reset_pending 0 n false;
    Array.fill t.park_epoch 0 n 0;
    Array.fill t.park_gen 0 n 0;
    Array.fill t.last_rx 0 n now;
    Array.fill t.last_marker_rx 0 n neg_infinity;
    Array.fill t.marker_gap 0 n 0.0;
    Array.fill t.gap_suspect 0 n 0.0;
    Array.fill t.dead 0 n false;
    Array.fill t.ch_epoch 0 n min_int
  end;
  t.n <- n;
  t.n_data_buffered <- 0;
  t.data_bytes <- 0;
  update_pressure t;
  t.force_need <- 0;
  t.waiting <- -1;
  t.wd_spin <- 0;
  t.round_lag <- 0;
  t.realign_pending <- false;
  t.barrier_start <- Float.nan;
  t.rx_epoch <- min_int;
  t.pending_epoch <- min_int;
  t.rx_gen <- -1;
  if Obs.Sink.active t.sink then
    Obs.Sink.emit t.sink (Obs.Event.v ~time:now Obs.Event.Restart);
  wiped

let transition_pending t = t.staged <> S_none

let require_unstaged t who =
  if t.staged <> S_none then
    invalid_arg (who ^ ": a transition is already staged (one per barrier)")

let check_quantum t who q =
  if q <= 0 then invalid_arg (who ^ ": quantum must be positive");
  match Deficit.max_packet t.d with
  | Some m when q < m ->
    invalid_arg
      (Printf.sprintf
         "%s: quantum %d below max packet size %d violates the \
          marker-recovery precondition (Quantum_i >= Max)"
         who q m)
  | Some _ | None -> ()

let retune t ~quanta =
  require_unstaged t "Resequencer.retune";
  if Array.length quanta <> Deficit.n_channels t.d then
    invalid_arg "Resequencer.retune: quanta width mismatch";
  Array.iter (check_quantum t "Resequencer.retune") quanta;
  t.staged <- S_retune (Array.copy quanta)

let add_channel t ~quantum =
  require_unstaged t "Resequencer.add_channel";
  check_quantum t "Resequencer.add_channel" quantum;
  (* The runtime arrays grow now — arrivals on the new channel must
     buffer, and the barrier must wait for its reset marker — while the
     simulated engine keeps the old width until the barrier adopts the
     staged vector. *)
  let q = Array.append (Deficit.quanta t.d) [| quantum |] in
  t.buffers <- Array.append t.buffers [| Fifo_queue.create () |];
  t.force_round <- Array.append t.force_round [| no_stamp |];
  t.force_dc <- Array.append t.force_dc [| 0 |];
  t.reset_pending <- Array.append t.reset_pending [| false |];
  t.park_epoch <- Array.append t.park_epoch [| 0 |];
  t.park_gen <- Array.append t.park_gen [| 0 |];
  t.last_rx <- Array.append t.last_rx [| t.now () |];
  t.last_marker_rx <- Array.append t.last_marker_rx [| neg_infinity |];
  t.marker_gap <- Array.append t.marker_gap [| 0.0 |];
  t.gap_suspect <- Array.append t.gap_suspect [| 0.0 |];
  t.dead <- Array.append t.dead [| false |];
  t.ch_epoch <- Array.append t.ch_epoch [| t.rx_epoch |];
  t.n <- t.n + 1;
  t.staged <- S_add q;
  t.n - 1

let remove_channel t c =
  require_unstaged t "Resequencer.remove_channel";
  if c < 0 || c >= t.n then
    invalid_arg "Resequencer.remove_channel: bad channel";
  if t.n = 1 then
    invalid_arg "Resequencer.remove_channel: cannot remove the last channel";
  (* Nothing shrinks yet: the channel must keep receiving — and the scan
     keep draining — its in-flight data until its goodbye reset marker
     arrives and the barrier completes; [adopt_staged] splices then. *)
  t.staged <- S_remove (c, splice (Deficit.quanta t.d) c)

let delivered t = t.n_delivered

let quanta t = Deficit.quanta t.d

let pending t = t.n_data_buffered

let blocked_on t = if t.waiting < 0 then None else Some t.waiting

let skips t = t.n_skips

let watchdog_skips t = t.n_wd_skips

let dead_declarations t = t.n_deaths

let channel_dead t c =
  if c < 0 || c >= t.n then invalid_arg "Resequencer.channel_dead: bad channel";
  t.dead.(c)

let markers_seen t = t.n_markers

let resets t = t.n_resets
let forced_barriers t = t.n_forced_barriers
let stale_resets t = t.n_stale_resets

let round t = Deficit.round t.d

let buffer_high_water_packets t =
  (* Per-channel high waters do not peak simultaneously in general, but
     their sum bounds the simultaneous total and matches it for the
     common block-on-one-channel pattern. *)
  Array.fold_left (fun acc b -> acc + Fifo_queue.high_water_packets b) 0 t.buffers

let buffer_high_water_bytes t =
  Array.fold_left (fun acc b -> acc + Fifo_queue.high_water_bytes b) 0 t.buffers

let buffered_bytes t = t.data_bytes
let max_buffered_bytes t = t.max_data_bytes
let pressure_high t = t.pressure
let overflows t = t.n_overflows
let overflow_drops t = t.n_overflow_drops
let forced_deliveries t = t.n_forced_deliveries
let corrupt_marker_discards t = t.n_corrupt_markers
let round_realigns t = t.n_realigns
let epoch_discards t = t.n_epoch_discards
let crash_syncs t = t.n_crash_syncs

let reorder_depth_max t = t.rd_max
let reorder_depth_samples t = t.rd_samples

let reorder_depth_percentile t ~p =
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg "Resequencer.reorder_depth_percentile: p must be in (0, 1]";
  if t.rd_samples = 0 then 0
  else begin
    (* Smallest depth d with |samples <= d| >= ceil(p * samples). *)
    let need =
      let x = p *. float_of_int t.rd_samples in
      let c = int_of_float (Float.ceil x) in
      if c < 1 then 1 else c
    in
    let rec walk b acc =
      if b >= rd_buckets - 1 then t.rd_max
      else
        let acc = acc + t.rd_hist.(b) in
        if acc >= need then b else walk (b + 1) acc
    in
    walk 0 0
  end

let drain t =
  let out = ref [] in
  let remaining = ref true in
  while !remaining do
    remaining := false;
    Array.iter
      (fun b ->
        match Fifo_queue.pop b with
        | Some pkt ->
          if not (Packet.is_marker pkt) then out := pkt :: !out;
          remaining := true
        | None -> ())
      t.buffers
  done;
  t.n_data_buffered <- 0;
  t.data_bytes <- 0;
  update_pressure t;
  (* Draining empties every channel buffer: there is no pending logical
     read to block on and no buffered stream position left for a recorded
     marker stamp to describe — clear both so [blocked_on] and the next
     scan do not act on stale state. *)
  t.waiting <- -1;
  Array.fill t.force_round 0 t.n no_stamp;
  List.rev !out
