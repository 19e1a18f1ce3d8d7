open Stripe_packet
module Obs = Stripe_obs

type t = {
  sched : Scheduler.t;
  marker : Marker.policy option;
  now : unit -> float;
  sink : Obs.Sink.t;
  emit : channel:int -> Packet.t -> unit;
  mutable n_pushed : int;
  mutable b_pushed : int;
  mutable n_markers : int;
  mutable n_no_channel : int;
      (* Data packets dropped because every channel was suspended. *)
  mutable per_chan_packets : int array;
  mutable per_chan_bytes : int array;
  mutable next_mark_round : int;
      (* [~next] of [Marker.batch] (Round_start / Round_end positions). *)
  mutable mid_marked : bool array;
      (* Mid_round: which channels already got their marker in the current
         marked round. *)
  mutable mid_round : int;  (* Round the [mid_marked] flags refer to. *)
  mutable epoch : int;
      (* Sender incarnation (PROTOCOL.md §12). Stamped on every marker;
         bumped only by [crash_restart], never by graceful resets. *)
  mutable gen : int;
      (* Reset-barrier generation within the epoch: bumped by every
         [send_reset], stamped on every marker so the receiver can pair
         barrier fragments by generation and discard duplicates from an
         already-adopted one (see [Packet.marker.m_gen]). Restarts at 0
         with each incarnation. *)
  send_marker : channel:int -> Packet.t -> unit;
      (* [marker_sent] on this striper: the [~send] of the [Marker] sender
         step, built once here. *)
}

let marker_sent t ~channel pkt =
  t.n_markers <- t.n_markers + 1;
  if Obs.Sink.active t.sink then begin
    let m = Packet.get_marker pkt in
    let time = pkt.Packet.born in
    (* A barrier's first reset marker opens it on the trace, after the
       reinit (and any retune it adopted), before any marker leaves. *)
    if m.Packet.m_reset && channel = 0 then
      Obs.Sink.emit t.sink (Obs.Event.v ~time Obs.Event.Reset_barrier);
    Obs.Sink.emit t.sink
      (Obs.Event.v ~channel ~round:m.Packet.m_round ~dc:m.Packet.m_dc
         ~size:pkt.Packet.size ~time Obs.Event.Marker_sent)
  end;
  t.emit ~channel pkt

let create ~scheduler ?marker ?(now = fun () -> 0.0) ?(sink = Obs.Sink.null)
    ~emit () =
  (match marker, Scheduler.deficit scheduler with
  | Some _, None ->
    invalid_arg
      "Striper.create: marker policy requires a CFQ (deficit-based) scheduler"
  | _ -> ());
  let n = Scheduler.n_channels scheduler in
  let rec t =
    {
      sched = scheduler;
      marker;
      now;
      sink;
      emit;
      n_pushed = 0;
      b_pushed = 0;
      n_markers = 0;
      n_no_channel = 0;
      per_chan_packets = Array.make n 0;
      per_chan_bytes = Array.make n 0;
      next_mark_round = 0;
      mid_marked = Array.make n false;
      mid_round = -1;
      epoch = 0;
      gen = 0;
      send_marker = (fun ~channel pkt -> marker_sent t ~channel pkt);
    }
  in
  t

(* Round-boundary marker batches: trigger once per marked round. *)
let boundary_markers t policy d =
  t.next_mark_round <-
    Marker.batch policy d ~next:t.next_mark_round ~epoch:t.epoch ~gen:t.gen
      ~now:t.now ~send:t.send_marker

let mid_round_markers t policy d ~served_channel ~round_of_service =
  if round_of_service mod policy.Marker.every_rounds = 0 then begin
    if t.mid_round <> round_of_service then begin
      Array.fill t.mid_marked 0 (Array.length t.mid_marked) false;
      t.mid_round <- round_of_service
    end;
    if not t.mid_marked.(served_channel) then begin
      t.mid_marked.(served_channel) <- true;
      t.send_marker ~channel:served_channel
        (Marker.packet_for ~epoch:t.epoch ~gen:t.gen policy ~deficit:d
           ~channel:served_channel ~now:(t.now ()))
    end
  end

let push t pkt =
  if Packet.is_marker pkt then
    invalid_arg "Striper.push: markers are generated internally";
  if not (Scheduler.has_active t.sched) then begin
    (* Every channel is suspended: there is nowhere to dispatch to. Drop
       the packet like a full transmit queue would — counted and
       observable, never an exception from deep inside a member link. *)
    t.n_no_channel <- t.n_no_channel + 1;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~size:pkt.Packet.size ~seq:pkt.Packet.seq
           ~time:(t.now ()) Obs.Event.Txq_drop)
  end
  else begin
  (* Select first: for CFQ schedulers this begins the visit, settling the
     round number the packet belongs to. *)
  let c = Scheduler.choose t.sched pkt in
  (match t.marker, Scheduler.deficit t.sched with
  | Some ({ position = Round_start; _ } as policy), Some d ->
    boundary_markers t policy d
  | Some _, _ | None, _ -> ());
  let round_before =
    match Scheduler.deficit t.sched with
    | Some d -> Deficit.round d
    | None -> 0
  in
  if Obs.Sink.active t.sink then begin
    (* After [choose] the visit has begun, so for CFQ schedulers (round,
       dc) is exactly the implicit packet number this packet carries. *)
    let round, dc =
      match Scheduler.deficit t.sched with
      | Some d -> (Deficit.round d, Deficit.dc d c)
      | None -> (-1, 0)
    in
    Obs.Sink.emit t.sink
      (Obs.Event.v ~channel:c ~round ~dc ~size:pkt.size ~seq:pkt.seq
         ~time:(t.now ()) Obs.Event.Transmit)
  end;
  t.emit ~channel:c pkt;
  t.n_pushed <- t.n_pushed + 1;
  t.b_pushed <- t.b_pushed + pkt.size;
  t.per_chan_packets.(c) <- t.per_chan_packets.(c) + 1;
  t.per_chan_bytes.(c) <- t.per_chan_bytes.(c) + pkt.size;
  Scheduler.account t.sched pkt c;
  (match t.marker, Scheduler.deficit t.sched with
  | Some ({ position = Round_end; _ } as policy), Some d ->
    (* Fire when the account call wrapped into a marked round: the batch
       then follows all data of the completed round. *)
    if Deficit.round d > round_before then boundary_markers t policy d
  | Some ({ position = Mid_round; _ } as policy), Some d ->
    (* Fire for channel [c] as soon as its visit ends mid-round. *)
    if Deficit.current d <> c || not (Deficit.in_service d) then
      mid_round_markers t policy d ~served_channel:c ~round_of_service:round_before
  | Some { position = Round_start; _ }, Some _ -> ()
  | Some _, None | None, _ -> ())
  end

let send_reset t =
  match Scheduler.deficit t.sched with
  | None -> invalid_arg "Striper.send_reset: requires a CFQ scheduler"
  | Some d ->
    t.gen <- t.gen + 1;
    t.next_mark_round <-
      Marker.reset_barrier d ~epoch:t.epoch ~gen:t.gen ~now:t.now
        ~send:t.send_marker;
    t.mid_round <- -1;
    Array.fill t.mid_marked 0 (Array.length t.mid_marked) false

let crash_restart ?quanta t =
  match Scheduler.deficit t.sched with
  | None -> invalid_arg "Striper.crash_restart: requires a CFQ scheduler"
  | Some d ->
    let now = t.now () in
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink (Obs.Event.v ~time:now Obs.Event.Crash);
    (* The crash loses every piece of striping state: round pointer,
       deficits, staged retunes, administrative suspensions, marker
       cadence bookkeeping. The restarted sender rebuilds from cold
       configuration — either quanta supplied by the caller (typically a
       cold [Rate_probe] plan) or the nominal configured vector — and
       announces the new incarnation with epoch-stamped reset markers.
       Channels that are actually down get re-suspended by the carrier
       watchers, not by remembered state. *)
    let quanta =
      match quanta with Some q -> q | None -> Array.copy (Deficit.quanta d)
    in
    Deficit.reconfigure d ~quanta;
    t.epoch <- t.epoch + 1;
    t.gen <- 0;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~round:t.epoch ~time:now Obs.Event.Restart);
    send_reset t

let epoch t = t.epoch

let retune t ?(reset = true) ~quanta () =
  match Scheduler.deficit t.sched with
  | None -> invalid_arg "Striper.retune: requires a CFQ scheduler"
  | Some d ->
    Deficit.retune d ~quanta;
    (* With [reset] the new vector takes effect through the §5 reset
       barrier: [reinit] adopts the staged quanta, and the reset markers
       below carry fresh-epoch stamps computed from them, so the
       receiver rebuilds directly into the new schedule and Thm 5.1
       bounds the disturbance. Without [reset] the swap happens at the
       next round boundary with proportional DC carry-over, and the
       receiver must be retuned identically ([Resequencer.retune]) to
       keep simulating the sender. *)
    if reset then send_reset t

let add_channel t ~quantum =
  match Scheduler.deficit t.sched with
  | None -> invalid_arg "Striper.add_channel: requires a CFQ scheduler"
  | Some d ->
    let c = Deficit.add_channel d ~quantum in
    t.per_chan_packets <- Array.append t.per_chan_packets [| 0 |];
    t.per_chan_bytes <- Array.append t.per_chan_bytes [| 0 |];
    t.mid_marked <- Array.append t.mid_marked [| false |];
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel:c
           ~size:(Scheduler.n_channels t.sched)
           ~time:(t.now ()) Obs.Event.Member_add);
    (* The receiver learns the new width from the reset markers' epoch:
       the barrier only completes once one has arrived on every channel,
       including the newcomer. *)
    send_reset t;
    c

let remove_channel t c =
  match Scheduler.deficit t.sched with
  | None -> invalid_arg "Striper.remove_channel: requires a CFQ scheduler"
  | Some d ->
    if c < 0 || c >= Scheduler.n_channels t.sched then
      invalid_arg "Striper.remove_channel: bad channel";
    if Scheduler.n_channels t.sched = 1 then
      invalid_arg "Striper.remove_channel: cannot remove the last channel";
    (* Goodbye barrier first, while [c] still exists: its reset marker is
       the last packet the channel carries, sequenced behind all of its
       in-flight data, so a receiver that staged the matching removal
       drains the channel completely before adopting the narrower
       bundle. *)
    send_reset t;
    Deficit.remove_channel d c;
    let splice a =
      Array.init (Array.length a - 1) (fun i ->
          if i < c then a.(i) else a.(i + 1))
    in
    t.per_chan_packets <- splice t.per_chan_packets;
    t.per_chan_bytes <- splice t.per_chan_bytes;
    t.mid_marked <- splice t.mid_marked;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel:c
           ~size:(Scheduler.n_channels t.sched)
           ~time:(t.now ()) Obs.Event.Member_remove)

let suspend_channel t c =
  if not (Scheduler.suspended t.sched c) then begin
    Scheduler.suspend_channel t.sched c;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel:c ~time:(t.now ()) Obs.Event.Suspend)
  end

let resume_channel t ?(reset = true) c =
  if Scheduler.suspended t.sched c then begin
    Scheduler.resume_channel t.sched c;
    if Obs.Sink.active t.sink then
      Obs.Sink.emit t.sink
        (Obs.Event.v ~channel:c ~time:(t.now ()) Obs.Event.Resume);
    (* The receiver has been simulating a sender that kept granting
       quanta to the suspended channel — its state is unreconstructible
       from what was delivered. Rebuild both ends from scratch with the
       §5 reset barrier. *)
    if reset && Scheduler.deficit t.sched <> None then send_reset t
  end

let suspended_channel t c = Scheduler.suspended t.sched c

let pushed_packets t = t.n_pushed
let pushed_bytes t = t.b_pushed
let markers_sent t = t.n_markers
let undispatched_drops t = t.n_no_channel
let channel_packets t c = t.per_chan_packets.(c)
let channel_bytes t c = t.per_chan_bytes.(c)

let rounds t = Option.map Deficit.round (Scheduler.deficit t.sched)

let scheduler t = t.sched
