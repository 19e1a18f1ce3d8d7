open Stripe_packet

type channel_spec = {
  rate_bps : float;
  prop_delay : float;
  jitter : (Stripe_netsim.Rng.t -> float) option;
  loss : unit -> Stripe_netsim.Loss.t;
}

let spec ?(prop_delay = 0.005) ?jitter ?(loss = Stripe_netsim.Loss.none)
    ~rate_bps () =
  { rate_bps; prop_delay; jitter; loss }

type flow_control =
  | No_flow_control
  | Credit_based of { buffer : int }

(* Reverse-path latency of credit updates. *)
let credit_delay = 0.005

type t = {
  sim : Stripe_netsim.Sim.t;
  links : Packet.t Stripe_netsim.Link.t array;
  striper : Stripe_core.Striper.t;
  scheduler : Stripe_core.Scheduler.t;
  reseq : Stripe_core.Resequencer.t;
  credit_sender : Credit.Sender.t option;
  credit_receiver : Credit.Receiver.t option;
  advertised : int array;  (* last limit sent upstream, per channel *)
  app_queue : Packet.t Queue.t;
  mutable n_congestion_drops : int;
  mutable n_delivered : int;
}

let rec pump t =
  if not (Queue.is_empty t.app_queue) then begin
    let pkt = Queue.peek t.app_queue in
    let channel = Stripe_core.Scheduler.choose t.scheduler pkt in
    let allowed =
      match t.credit_sender with
      | None -> true
      | Some cs -> Credit.Sender.can_send cs ~channel
    in
    if allowed then begin
      ignore (Queue.pop t.app_queue);
      (match t.credit_sender with
      | Some cs -> Credit.Sender.record_send cs ~channel
      | None -> ());
      Stripe_core.Striper.push t.striper pkt;
      pump t
    end
  end

(* Receive side: the per-channel socket buffer is the resequencer's
   buffer; the credit receiver mirrors its occupancy to decide drops
   (without flow control) and limits (with it). *)
let on_arrival t ~channel pkt =
  if Packet.is_marker pkt then Stripe_core.Resequencer.receive t.reseq ~channel pkt
  else
    match t.credit_receiver with
    | None -> Stripe_core.Resequencer.receive t.reseq ~channel pkt
    | Some cr ->
      if Credit.Receiver.accept cr ~channel then begin
        Credit.Receiver.record_arrival cr ~channel;
        Stripe_core.Resequencer.receive t.reseq ~channel pkt
      end
      else t.n_congestion_drops <- t.n_congestion_drops + 1

let create sim ~channels ~scheduler ?marker
    ?(flow_control = No_flow_control) ?(socket_buffer = 10_000)
    ?rng ~deliver () =
  let n = Array.length channels in
  if n = 0 then invalid_arg "Socket_stripe.create: no channels";
  if Stripe_core.Scheduler.n_channels scheduler <> n then
    invalid_arg "Socket_stripe.create: scheduler arity mismatch";
  let deficit =
    match Stripe_core.Scheduler.deficit scheduler with
    | Some d -> d
    | None ->
      invalid_arg "Socket_stripe.create: logical reception requires a CFQ scheduler"
  in
  let master_rng =
    match rng with Some r -> r | None -> Stripe_netsim.Rng.create 0x50C4
  in
  let credit_sender, credit_receiver =
    match flow_control with
    | No_flow_control ->
      (* Even without flow control a real socket has a finite buffer;
         overflow is congestion loss. *)
      (None, Some (Credit.Receiver.create ~n_channels:n ~buffer:socket_buffer))
    | Credit_based { buffer } ->
      ( Some (Credit.Sender.create ~n_channels:n ~initial_limit:buffer),
        Some (Credit.Receiver.create ~n_channels:n ~buffer) )
  in
  let self = ref None in
  let force_self () = match !self with Some x -> x | None -> assert false in
  let reseq =
    Stripe_core.Resequencer.create
      ~deficit:(Stripe_core.Deficit.clone_initial deficit)
      ~deliver:(fun ~channel pkt ->
        let t = force_self () in
        t.n_delivered <- t.n_delivered + 1;
        (match t.credit_receiver with
        | Some cr -> (
          Credit.Receiver.record_consume cr ~channel;
          (* Advertise new credit when enough has accumulated; the
             update crosses a lossless reverse control path. *)
          match t.credit_sender with
          | Some cs ->
            let limit = Credit.Receiver.current_limit cr ~channel in
            if limit - t.advertised.(channel) >= 1 then begin
              t.advertised.(channel) <- limit;
              Stripe_netsim.Sim.schedule_after t.sim ~delay:credit_delay
                (fun () ->
                  Credit.Sender.update_limit cs ~channel ~limit;
                  pump t)
            end
          | None -> ())
        | None -> ());
        deliver pkt)
      ()
  in
  let links =
    Array.mapi
      (fun i spec ->
        Stripe_netsim.Link.create sim
          ~rate_bps:spec.rate_bps ~prop_delay:spec.prop_delay
          ?jitter:spec.jitter
          ~rng:(Stripe_netsim.Rng.split master_rng)
          ~loss:(spec.loss ())
          ~deliver:(fun pkt -> on_arrival (force_self ()) ~channel:i pkt)
          ())
      channels
  in
  let striper =
    Stripe_core.Striper.create ~scheduler ?marker
      ~now:(fun () -> Stripe_netsim.Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore
          (Stripe_netsim.Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  let t =
    {
      sim;
      links;
      striper;
      scheduler;
      reseq;
      credit_sender;
      credit_receiver;
      advertised =
        (match flow_control with
        | Credit_based { buffer } -> Array.make n buffer
        | No_flow_control -> Array.make n 0);
      app_queue = Queue.create ();
      n_congestion_drops = 0;
      n_delivered = 0;
    }
  in
  self := Some t;
  t

let send t pkt =
  Queue.add pkt t.app_queue;
  pump t

let sent_packets t = Stripe_core.Striper.pushed_packets t.striper
let delivered_packets t = t.n_delivered
let app_queue_length t = Queue.length t.app_queue
let congestion_drops t = t.n_congestion_drops

let channel_losses t =
  Array.fold_left (fun acc l -> acc + Stripe_netsim.Link.lost_packets l) 0 t.links

let sender_stalls t =
  match t.credit_sender with None -> 0 | Some cs -> Credit.Sender.stalls cs

let markers_sent t = Stripe_core.Striper.markers_sent t.striper
let resequencer t = t.reseq
