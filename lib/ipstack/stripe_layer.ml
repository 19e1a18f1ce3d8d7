open Stripe_packet

type t = {
  layer_name : string;
  members : Iface.t array;
  bundle_mtu : int;
  striper : Stripe_core.Striper.t;
  reseq : Stripe_core.Resequencer.t option;
  deliver_up : Ip.t -> unit;
  (* A real kernel keeps the frame <-> datagram association by passing
     mbuf pointers through the striping layer; the simulation passes the
     protocol-visible Packet.t through striper/resequencer and
     reassociates the enclosing datagram via the measurement-only [seq]
     id, which is unique per sender stream and never consulted by the
     protocol logic itself. *)
  rx_envelopes : (int, Ip.t) Hashtbl.t;
  mutable tx_envelope : Ip.t option;
  mutable n_sent : int;
  mutable n_delivered : int;
}

let deliver_ip t ip =
  t.n_delivered <- t.n_delivered + 1;
  t.deliver_up ip

(* Wire member [channel] into the layer: carrier transitions
   suspend/resume its channel (resume fires the §5 reset barrier, see
   {!Stripe_core.Striper.resume_channel}; watchers fire from the
   fault/link layer, never from inside [Striper.push], so the scheduler
   is between packets when the suspension lands), and the striped/marker
   codepoints demux into the resequencer. *)
let attach_member t channel m =
  Iface.on_carrier m (fun ~up ->
      if up then Stripe_core.Striper.resume_channel t.striper channel
      else Stripe_core.Striper.suspend_channel t.striper channel);
  let on_striped frame =
    match frame with
    | Iface.Striped_frame ip -> (
      match t.reseq with
      | Some r ->
        Hashtbl.replace t.rx_envelopes ip.Ip.body.Packet.seq ip;
        Stripe_core.Resequencer.receive r ~channel ip.Ip.body
      | None -> deliver_ip t ip)
    | Iface.Marker_frame pkt -> (
      match t.reseq with
      | Some r -> Stripe_core.Resequencer.receive r ~channel pkt
      | None -> ())
    | Iface.Ip_frame _ -> ()
  in
  Iface.set_handler m Iface.Cp_striped_ip on_striped;
  Iface.set_handler m Iface.Cp_marker on_striped

let create ~name ~members ~scheduler ?marker ?now ?(resequence = true)
    ~deliver_up () =
  let n = Array.length members in
  if n = 0 then invalid_arg "Stripe_layer.create: no member interfaces";
  if Stripe_core.Scheduler.n_channels scheduler <> n then
    invalid_arg "Stripe_layer.create: scheduler arity <> member count";
  let bundle_mtu =
    Array.fold_left (fun acc m -> min acc (Iface.mtu m)) max_int members
  in
  let rx_envelopes = Hashtbl.create 1024 in
  (* The striper's and resequencer's callbacks need the layer record,
     which needs them in turn; tie the knot through a forward cell. *)
  let self = ref None in
  let force_self () =
    match !self with
    | Some layer -> layer
    | None -> assert false
  in
  let striper =
    Stripe_core.Striper.create ~scheduler ?marker ?now
      ~emit:(fun ~channel pkt ->
        let layer = force_self () in
        let frame =
          if Packet.is_marker pkt then Iface.Marker_frame pkt
          else
            match layer.tx_envelope with
            | Some ip -> Iface.Striped_frame ip
            | None -> invalid_arg "Stripe_layer: data emit without envelope"
        in
        Iface.send layer.members.(channel) frame)
      ()
  in
  let reseq =
    if not resequence then None
    else
      match Stripe_core.Scheduler.deficit scheduler with
      | None ->
        invalid_arg
          "Stripe_layer.create: logical reception requires a CFQ scheduler \
           (pass ~resequence:false for non-causal baselines)"
      | Some d ->
        Some
          (Stripe_core.Resequencer.create
             ~deficit:(Stripe_core.Deficit.clone_initial d)
             ?now
             ~deliver:(fun ~channel:_ pkt ->
               let layer = force_self () in
               match Hashtbl.find_opt layer.rx_envelopes pkt.Packet.seq with
               | Some ip ->
                 Hashtbl.remove layer.rx_envelopes pkt.Packet.seq;
                 deliver_ip layer ip
               | None ->
                 invalid_arg "Stripe_layer: resequencer delivered unknown packet")
             ())
  in
  let layer =
    {
      layer_name = name;
      members;
      bundle_mtu;
      striper;
      reseq;
      deliver_up;
      rx_envelopes;
      tx_envelope = None;
      n_sent = 0;
      n_delivered = 0;
    }
  in
  self := Some layer;
  Array.iteri (attach_member layer) members;
  layer

let name t = t.layer_name
let mtu t = t.bundle_mtu

let send t ip =
  if Ip.size ip > t.bundle_mtu then
    invalid_arg
      (Printf.sprintf "Stripe_layer.send(%s): datagram %d exceeds bundle MTU %d"
         t.layer_name (Ip.size ip) t.bundle_mtu);
  t.n_sent <- t.n_sent + 1;
  t.tx_envelope <- Some ip;
  Stripe_core.Striper.push t.striper ip.Ip.body;
  t.tx_envelope <- None;
  (* Belt-and-braces tx-failure detection: catch a member that was
     already down before the carrier watcher was registered (or when the
     link layer cannot signal carrier). Runs after [push] returns so the
     scheduler is never mutated mid-dispatch. *)
  Array.iteri
    (fun c m ->
      if
        (not (Iface.link_up m))
        && not (Stripe_core.Striper.suspended_channel t.striper c)
      then Stripe_core.Striper.suspend_channel t.striper c)
    t.members

let send_reset t = Stripe_core.Striper.send_reset t.striper

let crash_restart_sender ?quanta t =
  Stripe_core.Striper.crash_restart ?quanta t.striper;
  (* The reboot forgot the suspensions along with everything else; the
     link state re-derives them. *)
  Array.iteri
    (fun c m ->
      if not (Iface.link_up m) then
        Stripe_core.Striper.suspend_channel t.striper c)
    t.members

let crash_restart_receiver t =
  match t.reseq with
  | None -> 0
  | Some r ->
    let wiped = Stripe_core.Resequencer.crash_restart r in
    (* The frame <-> datagram associations die with the receiver: wiped
       frames can never be delivered. In-flight frames arriving after the
       restart re-register their envelopes on arrival. *)
    Hashtbl.reset t.rx_envelopes;
    wiped

let member_queue_bytes t i = Iface.queue_bytes t.members.(i)
let sent_datagrams t = t.n_sent
let delivered_datagrams t = t.n_delivered
let markers_sent t = Stripe_core.Striper.markers_sent t.striper
let resequencer t = t.reseq
let striper t = t.striper
