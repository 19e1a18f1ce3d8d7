type channel = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable delivered_packets : int;
  mutable delivered_bytes : int;
  mutable drops : int;
  mutable txq_drops : int;
  mutable arrivals : int;
  mutable skips : int;
  mutable markers_sent : int;
  mutable markers_applied : int;
  mutable blocks : int;
  mutable buffered_packets : int;
  mutable buffered_bytes : int;
  mutable hw_buffered_packets : int;
  mutable hw_buffered_bytes : int;
  mutable downs : int;
  mutable ups : int;
  mutable watchdog_skips : int;
  mutable suspends : int;
  mutable resumes : int;
  mutable dup_discards : int;
  mutable reorder_restores : int;
  mutable reorder_depth : int;
  mutable corrupt_discards : int;
  mutable buffer_overflows : int;
  mutable retunes : int;
  mutable health_suspects : int;
  mutable probations : int;
  mutable quarantines : int;
  mutable reinstates : int;
}

(* The registry sits on the per-event path of every instrumented run, so
   it accumulates into flat [int array]s — one slot per (channel, kind)
   plus side arrays for byte and occupancy accounting — rather than
   per-channel records. [observe] is a couple of array stores with zero
   allocation (the record-based original boxed an option per event); the
   [channel] record is materialized on demand as a snapshot. *)
type t = {
  n : int;
  counts : int array;  (* n * Event.n_kinds; (ch, kind) occurrence counts *)
  tx_bytes_ : int array;
  delivered_bytes_ : int array;
  buffered_packets_ : int array;
  buffered_bytes_ : int array;
  hw_buffered_packets_ : int array;
  hw_buffered_bytes_ : int array;
  (* Arrival reorder-depth gauge, fed by [Enqueue] events carrying a
     sequence number: per-channel maximum of (highest seq already
     enqueued anywhere) - seq. [rd_max_seq_] is the global running
     maximum the depth is judged against. *)
  rdepth_ : int array;
  mutable rd_max_seq_ : int;
  mutable resets : int;
  mutable rounds : int;
  mutable n_events : int;
  mutable no_channel_drops_ : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Counters.create: n must be positive";
  {
    n;
    counts = Array.make (n * Event.n_kinds) 0;
    tx_bytes_ = Array.make n 0;
    delivered_bytes_ = Array.make n 0;
    buffered_packets_ = Array.make n 0;
    buffered_bytes_ = Array.make n 0;
    hw_buffered_packets_ = Array.make n 0;
    hw_buffered_bytes_ = Array.make n 0;
    rdepth_ = Array.make n 0;
    rd_max_seq_ = -1;
    resets = 0;
    rounds = 0;
    n_events = 0;
    no_channel_drops_ = 0;
  }

let n_channels t = t.n

let count t c k = t.counts.((c * Event.n_kinds) + Event.kind_index k)

let channel t c =
  if c < 0 || c >= t.n then invalid_arg "Counters.channel: bad channel";
  let k kind = count t c kind in
  {
    tx_packets = k Event.Transmit;
    tx_bytes = t.tx_bytes_.(c);
    delivered_packets = k Event.Deliver;
    delivered_bytes = t.delivered_bytes_.(c);
    drops = k Event.Drop;
    txq_drops = k Event.Txq_drop;
    arrivals = k Event.Arrival;
    skips = k Event.Skip;
    markers_sent = k Event.Marker_sent;
    markers_applied = k Event.Marker_applied;
    blocks = k Event.Block;
    buffered_packets = t.buffered_packets_.(c);
    buffered_bytes = t.buffered_bytes_.(c);
    hw_buffered_packets = t.hw_buffered_packets_.(c);
    hw_buffered_bytes = t.hw_buffered_bytes_.(c);
    downs = k Event.Channel_down;
    ups = k Event.Channel_up;
    watchdog_skips = k Event.Watchdog_skip;
    suspends = k Event.Suspend;
    resumes = k Event.Resume;
    dup_discards = k Event.Dup_discard;
    reorder_restores = k Event.Reorder_restore;
    reorder_depth = t.rdepth_.(c);
    corrupt_discards = k Event.Corrupt_discard;
    buffer_overflows = k Event.Buffer_overflow;
    retunes = k Event.Retune;
    health_suspects = k Event.Health_suspect;
    probations = k Event.Probation;
    quarantines = k Event.Quarantine;
    reinstates = k Event.Reinstate;
  }

let resets t = t.resets
let rounds t = t.rounds
let events_seen t = t.n_events
let no_channel_drops t = t.no_channel_drops_

let observe t (e : Event.t) =
  t.n_events <- t.n_events + 1;
  let ch = e.channel in
  if ch >= 0 && ch < t.n then begin
    let slot = (ch * Event.n_kinds) + Event.kind_index e.kind in
    t.counts.(slot) <- t.counts.(slot) + 1;
    match e.kind with
    | Event.Transmit ->
      if e.size > 0 then t.tx_bytes_.(ch) <- t.tx_bytes_.(ch) + e.size
    | Event.Deliver ->
      if e.size > 0 then
        t.delivered_bytes_.(ch) <- t.delivered_bytes_.(ch) + e.size;
      t.buffered_packets_.(ch) <- max 0 (t.buffered_packets_.(ch) - 1);
      if e.size > 0 then
        t.buffered_bytes_.(ch) <- max 0 (t.buffered_bytes_.(ch) - e.size)
    | Event.Enqueue ->
      t.buffered_packets_.(ch) <- t.buffered_packets_.(ch) + 1;
      if e.size > 0 then
        t.buffered_bytes_.(ch) <- t.buffered_bytes_.(ch) + e.size;
      if e.seq >= 0 then begin
        if e.seq > t.rd_max_seq_ then t.rd_max_seq_ <- e.seq
        else if t.rd_max_seq_ - e.seq > t.rdepth_.(ch) then
          t.rdepth_.(ch) <- t.rd_max_seq_ - e.seq
      end;
      if t.buffered_packets_.(ch) > t.hw_buffered_packets_.(ch) then
        t.hw_buffered_packets_.(ch) <- t.buffered_packets_.(ch);
      if t.buffered_bytes_.(ch) > t.hw_buffered_bytes_.(ch) then
        t.hw_buffered_bytes_.(ch) <- t.buffered_bytes_.(ch)
    | Event.Reset_barrier -> t.resets <- t.resets + 1
    | Event.Round -> if e.round > t.rounds then t.rounds <- e.round
    | _ -> ()
  end
  else
    match e.kind with
    | Event.Txq_drop ->
      (* A [Txq_drop] without a channel is the striper reporting a packet
         it could not dispatch because every channel was suspended. *)
      t.no_channel_drops_ <- t.no_channel_drops_ + 1
    | Event.Reset_barrier -> t.resets <- t.resets + 1
    | Event.Round -> if e.round > t.rounds then t.rounds <- e.round
    | _ -> ()

let sink t = Sink.of_fn (observe t)

(* Fold [t]'s accumulated state into [into]: counts, byte totals and
   occupancy gauges add, [rounds] takes the max. *)
let merge_into ~into t =
  if t.n <> into.n then invalid_arg "Counters.merged: channel counts differ";
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add into.counts t.counts;
  add into.tx_bytes_ t.tx_bytes_;
  add into.delivered_bytes_ t.delivered_bytes_;
  add into.buffered_packets_ t.buffered_packets_;
  add into.buffered_bytes_ t.buffered_bytes_;
  (* High-water marks are not additive in general; summing them gives
     the exact global high-water when each registry saw a disjoint
     channel set (per-channel partitions), and a safe upper bound when
     shards alias the same channel indices. *)
  add into.hw_buffered_packets_ t.hw_buffered_packets_;
  add into.hw_buffered_bytes_ t.hw_buffered_bytes_;
  (* Depth is a maximum, not a count: merging takes the elementwise max
     (exact for disjoint channel sets, and the right reading — worst
     observed depth — when shards alias channels). *)
  Array.iteri
    (fun i v -> if v > into.rdepth_.(i) then into.rdepth_.(i) <- v)
    t.rdepth_;
  if t.rd_max_seq_ > into.rd_max_seq_ then into.rd_max_seq_ <- t.rd_max_seq_;
  into.resets <- into.resets + t.resets;
  into.rounds <- max into.rounds t.rounds;
  into.n_events <- into.n_events + t.n_events;
  into.no_channel_drops_ <- into.no_channel_drops_ + t.no_channel_drops_

let merged = function
  | [] -> invalid_arg "Counters.merged: empty list"
  | t :: rest ->
    let into = create ~n:t.n in
    merge_into ~into t;
    List.iter (fun s -> merge_into ~into s) rest;
    into

let total_kind t k =
  let s = ref 0 in
  for c = 0 to t.n - 1 do
    s := !s + count t c k
  done;
  !s

let total_tx_bytes t = Array.fold_left ( + ) 0 t.tx_bytes_
let total_delivered_packets t = total_kind t Event.Deliver
let total_drops t = total_kind t Event.Drop + total_kind t Event.Txq_drop
