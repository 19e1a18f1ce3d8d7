open Stripe_packet

type stats = {
  sent : int;
  delivered : int;
  congestion_drops : int;
  stalls : int;
  markers : int;
  app_queue : int;
}

type endpoint = {
  scheduler : Stripe_core.Scheduler.t;
  striper : Stripe_core.Striper.t;
  reseq : Stripe_core.Resequencer.t;
  out_credits : Credit.Sender.t;  (* pace my outbound data *)
  in_credits : Credit.Receiver.t;  (* account my inbound buffers *)
  marker_policy : Stripe_core.Marker.policy;
  out_links : Packet.t Stripe_netsim.Link.t array;
  app_q : Packet.t Queue.t;
  advertised : int array;
  advertise_batch : int;
  mutable n_delivered : int;
  mutable n_drops : int;
  mutable n_standalone_markers : int;
}

type t = {
  a : endpoint;
  b : endpoint;
  sim : Stripe_netsim.Sim.t;
  refresh_period : float;
  mutable timer_active : bool;
  (* Stall snapshots per endpoint per channel: (sent, effective limit)
     at the previous tick, for the loss-presumption rule. *)
  stall_snap_a : (int * int) array;
  stall_snap_b : (int * int) array;
}

let rec pump e =
  if not (Queue.is_empty e.app_q) then begin
    let pkt = Queue.peek e.app_q in
    let channel = Stripe_core.Scheduler.choose e.scheduler pkt in
    if Credit.Sender.can_send e.out_credits ~channel then begin
      ignore (Queue.pop e.app_q);
      Credit.Sender.record_send e.out_credits ~channel;
      Stripe_core.Striper.push e.striper pkt;
      pump e
    end
  end

(* Emit a standalone credit marker on [channel]: carries the current
   implicit packet number (always valid) plus the fresh credit, so an
   idle reverse direction cannot starve the peer. *)
let advertise e ~channel ~deficit ~now =
  e.advertised.(channel) <- Credit.Receiver.current_limit e.in_credits ~channel;
  e.n_standalone_markers <- e.n_standalone_markers + 1;
  let pkt =
    Stripe_core.Marker.packet_for ~epoch:0 ~gen:0 e.marker_policy ~deficit
      ~channel ~now
  in
  ignore
    (Stripe_netsim.Link.send e.out_links.(channel) ~size:pkt.Packet.size pkt)

(* Inbound processing at [me]; credits on markers apply to my outbound
   direction immediately on arrival. *)
let on_arrival me ~channel pkt =
  if Packet.is_marker pkt then begin
    (match (Packet.get_marker pkt).m_credit with
    | Some limit ->
      Credit.Sender.update_limit me.out_credits ~channel ~limit;
      pump me
    | None -> ());
    Stripe_core.Resequencer.receive me.reseq ~channel pkt
  end
  else if Credit.Receiver.accept me.in_credits ~channel then begin
    Credit.Receiver.record_arrival me.in_credits ~channel;
    Stripe_core.Resequencer.receive me.reseq ~channel pkt
  end
  else me.n_drops <- me.n_drops + 1

let make_endpoint sim ~channels ~quanta ~buffer ~marker_every ~deliver
    ~peer_ref () =
  let n = Array.length channels in
  let engine = Stripe_core.Srr.create ~quanta () in
  let in_credits = Credit.Receiver.create ~n_channels:n ~buffer in
  let out_credits = Credit.Sender.create ~n_channels:n ~initial_limit:buffer in
  let marker_policy =
    Stripe_core.Marker.make
      ~credit_of:(fun c -> Credit.Receiver.current_limit in_credits ~channel:c)
      ~every_rounds:marker_every ()
  in
  let self = ref None in
  let force_self () = match !self with Some e -> e | None -> assert false in
  let out_links =
    Array.mapi
      (fun i (spec : Socket_stripe.channel_spec) ->
        Stripe_netsim.Link.create sim
          ~name:(Printf.sprintf "duplex%d" i)
          ~rate_bps:spec.rate_bps ~prop_delay:spec.prop_delay
          ?jitter:spec.jitter
          ~loss:(spec.loss ())
          ~deliver:(fun pkt ->
            match !peer_ref with
            | Some peer -> on_arrival peer ~channel:i pkt
            | None -> ())
          ())
      channels
  in
  let scheduler = Stripe_core.Scheduler.of_deficit ~name:"SRR" engine in
  let striper =
    Stripe_core.Striper.create ~scheduler ~marker:marker_policy
      ~now:(fun () -> Stripe_netsim.Sim.now sim)
      ~emit:(fun ~channel pkt ->
        let e = force_self () in
        (if Packet.is_marker pkt then
           (* Periodic marker: it carries the latest limit; note it. *)
           match (Packet.get_marker pkt).m_credit with
           | Some limit -> e.advertised.(channel) <- limit
           | None -> ());
        ignore
          (Stripe_netsim.Link.send e.out_links.(channel) ~size:pkt.Packet.size
             pkt))
      ()
  in
  let reseq =
    Stripe_core.Resequencer.create
      ~deficit:(Stripe_core.Deficit.clone_initial engine)
      ~deliver:(fun ~channel pkt ->
        let e = force_self () in
        Credit.Receiver.record_consume e.in_credits ~channel;
        e.n_delivered <- e.n_delivered + 1;
        deliver pkt;
        (* Enough buffer freed and the periodic markers lagging: push a
           standalone credit marker so the peer resumes promptly. *)
        let limit = Credit.Receiver.current_limit e.in_credits ~channel in
        if limit - e.advertised.(channel) >= e.advertise_batch then
          advertise e ~channel
            ~deficit:(Option.get (Stripe_core.Scheduler.deficit e.scheduler))
            ~now:(Stripe_netsim.Sim.now sim))
      ()
  in
  let e =
    {
      scheduler;
      striper;
      reseq;
      out_credits;
      in_credits;
      marker_policy;
      out_links;
      app_q = Queue.create ();
      advertised = Array.make n buffer;
      advertise_batch = max 1 (buffer / 2);
      n_delivered = 0;
      n_drops = 0;
      n_standalone_markers = 0;
    }
  in
  self := Some e;
  e

let create sim ~channels ~quanta ~buffer ?(marker_every = 4)
    ?(credit_refresh = 0.05) ~deliver_to_a ~deliver_to_b () =
  let n = Array.length channels in
  if n = 0 then invalid_arg "Duplex.create: no channels";
  if Array.length quanta <> n then invalid_arg "Duplex.create: quanta arity";
  if buffer <= 0 then invalid_arg "Duplex.create: buffer must be positive";
  let a_ref = ref None and b_ref = ref None in
  (* A's outbound links deliver to B, and vice versa. *)
  let a =
    make_endpoint sim ~channels ~quanta ~buffer ~marker_every
      ~deliver:deliver_to_a ~peer_ref:b_ref ()
  in
  let b =
    make_endpoint sim ~channels ~quanta ~buffer ~marker_every
      ~deliver:deliver_to_b ~peer_ref:a_ref ()
  in
  a_ref := Some a;
  b_ref := Some b;
  {
    a;
    b;
    sim;
    refresh_period = credit_refresh;
    timer_active = false;
    stall_snap_a = Array.make n (-1, -1);
    stall_snap_b = Array.make n (-1, -1);
  }

(* Credit-loss resilience, two mechanisms driven by one timer while
   either side has stalled traffic (dormant otherwise so finite
   simulations terminate):

   1. Re-advertisement: event-driven credit markers can be lost; each
      tick both sides re-send their inbound limits (idempotent, limits
      are cumulative).
   2. Loss presumption (FCVC credit-sync analogue): a *data* packet lost
      in flight never occupies the peer's buffer, yet it consumed a
      credit; enough such losses deadlock the sender. If a channel is
      still stalled after a full tick during which neither its sent
      count nor its limit moved — far longer than the in-flight time —
      the sender presumes one packet dead and reclaims its credit. A
      wrong presumption can overrun the peer by at most the presumption
      count, which this pacing (one per channel per tick, only under
      proven stall) keeps negligible. *)
let rec refresh_tick t () =
  if Queue.is_empty t.a.app_q && Queue.is_empty t.b.app_q then
    t.timer_active <- false
  else begin
    let readvertise me snap =
      let deficit =
        Option.get (Stripe_core.Scheduler.deficit me.scheduler)
      in
      for channel = 0 to Array.length me.out_links - 1 do
        advertise me ~channel ~deficit ~now:(Stripe_netsim.Sim.now t.sim);
        let state =
          ( Credit.Sender.sent me.out_credits ~channel,
            Credit.Sender.limit me.out_credits ~channel )
        in
        if
          (not (Queue.is_empty me.app_q))
          && (not (Credit.Sender.can_send me.out_credits ~channel))
          && snap.(channel) = state
        then Credit.Sender.presume_lost me.out_credits ~channel;
        snap.(channel) <- state
      done;
      pump me
    in
    readvertise t.a t.stall_snap_a;
    readvertise t.b t.stall_snap_b;
    Stripe_netsim.Sim.schedule_after t.sim ~delay:t.refresh_period
      (refresh_tick t)
  end

let ensure_timer t =
  if
    (not t.timer_active)
    && not (Queue.is_empty t.a.app_q && Queue.is_empty t.b.app_q)
  then begin
    t.timer_active <- true;
    Stripe_netsim.Sim.schedule_after t.sim ~delay:t.refresh_period
      (refresh_tick t)
  end

let send t e pkt =
  Queue.add pkt e.app_q;
  pump e;
  ensure_timer t

let send_from_a t pkt = send t t.a pkt
let send_from_b t pkt = send t t.b pkt

let stats_of e =
  {
    sent = Stripe_core.Striper.pushed_packets e.striper;
    delivered = e.n_delivered;
    congestion_drops = e.n_drops;
    stalls = Credit.Sender.stalls e.out_credits;
    markers = Stripe_core.Striper.markers_sent e.striper + e.n_standalone_markers;
    app_queue = Queue.length e.app_q;
  }

let stats_a t =
  let s = stats_of t.a in
  (* A's inbound drops are counted at A; keep the view self-consistent. *)
  s

let stats_b t = stats_of t.b
