type codepoint =
  | Cp_ip
  | Cp_striped_ip
  | Cp_marker

type frame =
  | Ip_frame of Ip.t
  | Striped_frame of Ip.t
  | Marker_frame of Stripe_packet.Packet.t

let codepoint_of = function
  | Ip_frame _ -> Cp_ip
  | Striped_frame _ -> Cp_striped_ip
  | Marker_frame _ -> Cp_marker

let frame_payload_size = function
  | Ip_frame ip | Striped_frame ip -> Ip.size ip
  | Marker_frame pkt -> pkt.Stripe_packet.Packet.size

type t = {
  iface_name : string;
  iface_mtu : int;
  arp : Arp.t;
  link : frame Stripe_netsim.Link.t;
  mutable handlers : (codepoint * (frame -> unit)) list;
  (* Device output queue: frames leave in submission order even when the
     head is waiting on address resolution, so the channel stays FIFO —
     markers must never overtake data queued behind an ARP miss. *)
  outq : frame Queue.t;
  mutable draining : bool;
  mutable n_tx : int;
  mutable n_rx : int;
  mutable n_arp_failures : int;
  mutable n_unclaimed : int;
}

let create _sim ~name ~mtu ~arp ~link () =
  if mtu <= 0 then invalid_arg "Iface.create: mtu must be positive";
  {
    iface_name = name;
    iface_mtu = mtu;
    arp;
    link;
    handlers = [];
    outq = Queue.create ();
    draining = false;
    n_tx = 0;
    n_rx = 0;
    n_arp_failures = 0;
    n_unclaimed = 0;
  }

let mtu t = t.iface_mtu

let set_handler t cp f =
  t.handlers <- (cp, f) :: List.remove_assoc cp t.handlers

let rx t frame =
  t.n_rx <- t.n_rx + 1;
  match List.assoc_opt (codepoint_of frame) t.handlers with
  | Some f -> f frame
  | None -> t.n_unclaimed <- t.n_unclaimed + 1

let transmit t frame =
  t.n_tx <- t.n_tx + 1;
  let size = frame_payload_size frame + Stripe_packet.Sizes.ethernet_overhead in
  ignore (Stripe_netsim.Link.send t.link ~size frame : bool)

(* Drain the device queue head by head; a head awaiting ARP holds back
   everything behind it (head-of-line, as in a real transmit ring). *)
let rec drain t =
  match Queue.peek_opt t.outq with
  | None -> t.draining <- false
  | Some frame -> (
    t.draining <- true;
    match frame with
    | Marker_frame _ ->
      ignore (Queue.pop t.outq);
      transmit t frame;
      drain t
    | Ip_frame ip | Striped_frame ip ->
      (* Resolve the on-link next hop. Hosts in this model are directly
         connected (host routes point at member interfaces), so the next
         hop is the destination itself. *)
      Arp.resolve t.arp ip.Ip.dst (fun answer ->
          ignore (Queue.pop t.outq);
          (match answer with
          | Some _mac -> transmit t frame
          | None -> t.n_arp_failures <- t.n_arp_failures + 1);
          drain t))

let send t frame =
  if frame_payload_size frame > t.iface_mtu then
    invalid_arg
      (Printf.sprintf "Iface.send(%s): payload %d exceeds MTU %d" t.iface_name
         (frame_payload_size frame) t.iface_mtu);
  Queue.add frame t.outq;
  if not t.draining then drain t

let queue_bytes t = Stripe_netsim.Link.queue_bytes t.link
let link_up t = Stripe_netsim.Link.is_up t.link
let on_carrier t f = Stripe_netsim.Link.on_carrier t.link f
let tx_frames t = t.n_tx
let rx_frames t = t.n_rx
let arp_failures t = t.n_arp_failures
let unclaimed_frames t = t.n_unclaimed
