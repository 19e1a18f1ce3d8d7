(* Full-stack integration: TCP over the strIPe virtual interface over
   two dissimilar links, with the interrupt-driven receive path of the
   host model in between - every substrate in one scenario, asserting
   end-to-end properties rather than per-module behavior. *)

open Stripe_netsim
open Stripe_packet
open Stripe_ipstack

type world = {
  sim : Sim.t;
  goodput_bytes : int ref;
  delivered : Stripe_metrics.Recovery.t;  (* datagrams handed to TCP *)
  tx : Stripe_transport.Tcp_lite.Sender.t;
  rx : Stripe_transport.Tcp_lite.Receiver.t;
  tx_layer : Stripe_layer.t;
  rx_layer : Stripe_layer.t;
  rx_cpu : Stripe_host.Cpu.t;
}

(* Sender host -> [eth wire, atm wire] -> receiver NICs -> CPU -> strIPe
   layer -> IP -> TCP, acks on a clean reverse wire. *)
let build ?(resequence = true) () =
  let sim = Sim.create () in
  let sender = Node.create () in
  let receiver = Node.create () in
  let rx_cpu = Stripe_host.Cpu.create sim () in
  let arp = Arp.create sim ~lookup:(fun _ -> Some 0x1) () in
  let mk_wire ~rate ~delay ~nic_name =
    let rx_iface = ref None in
    let nic =
      Stripe_host.Nic.create ~cpu:rx_cpu ~intr_cost:40e-6
        ~per_packet_cost:40e-6
        ~deliver:(fun frame ->
          match !rx_iface with Some i -> Iface.rx i frame | None -> ())
        ()
    in
    let link =
      Link.create sim ~rate_bps:rate ~prop_delay:delay
        ~deliver:(fun frame -> Stripe_host.Nic.rx nic frame)
        ()
    in
    let tx_if =
      Iface.create sim ~name:(nic_name ^ "-tx")
        ~mtu:1500 ~arp ~link ()
    in
    let rx_if =
      Iface.create sim ~name:(nic_name ^ "-rx")
        ~mtu:1500 ~arp ~link ()
    in
    rx_iface := Some rx_if;
    (tx_if, rx_if)
  in
  let eth_tx, eth_rx =
    mk_wire ~rate:10e6 ~delay:0.001 ~nic_name:"eth"
  in
  let atm_tx, atm_rx =
    mk_wire ~rate:16e6 ~delay:0.006 ~nic_name:"atm"
  in
  let rates = [| 10e6; 16e6 |] in
  let engine = Stripe_core.Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 () in
  let tx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| eth_tx; atm_tx |]
      ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Stripe_core.Marker.make ~every_rounds:8 ())
      ~now:(fun () -> Sim.now sim)
      ~deliver_up:(fun _ -> ())
      ()
  in
  let rx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| eth_rx; atm_rx |]
      ~scheduler:
        (Stripe_core.Scheduler.of_deficit ~name:"SRR"
           (Stripe_core.Deficit.clone_initial engine))
      ~resequence
      ~deliver_up:(fun ip -> Node.ip_input receiver ip)
      ()
  in
  Node.add_stripe sender tx_layer;
  Node.add_stripe receiver rx_layer;
  Routing.add_host (Node.routing sender) (Ip.addr "10.1.0.9") "stripe0";
  Routing.add_host (Node.routing sender) (Ip.addr "10.2.0.9") "stripe0";
  (* TCP endpoints; acks ride a dedicated clean wire. *)
  let tcp_tx = ref None in
  let ack_wire =
    Link.create sim ~rate_bps:1e8 ~prop_delay:0.002
      ~deliver:(fun ack ->
        match !tcp_tx with
        | Some s -> Stripe_transport.Tcp_lite.Sender.on_ack s ack
        | None -> ())
      ()
  in
  let goodput_bytes = ref 0 in
  let rx =
    Stripe_transport.Tcp_lite.Receiver.create
      ~send_ack:(fun a -> ignore (Link.send ack_wire ~size:40 a))
      ~deliver:(fun ~bytes -> goodput_bytes := !goodput_bytes + bytes)
      ()
  in
  let delivered = Stripe_metrics.Recovery.create () in
  Node.set_protocol_handler receiver ~proto:6 (fun ip ->
      Stripe_metrics.Recovery.observe delivered ~now:(Sim.now sim)
        ~seq:ip.Ip.body.Packet.seq;
      ignore
        (Stripe_transport.Tcp_lite.Receiver.rx rx ~off:(Packet.off ip.Ip.body)
           ~len:(ip.Ip.body.Packet.size - 40)));
  let rng = Rng.create 77 in
  let seq = ref 0 in
  let tx =
    Stripe_transport.Tcp_lite.Sender.create sim ~window:65536 ~rto:0.25
      ~next_segment_size:(fun () -> if Rng.bool rng then 200 else 1000)
      ~transmit:(fun ~off ~size ->
        let body = Packet.data ~seq:!seq ~off ~size:(size + 40) () in
        incr seq;
        Node.send sender
          (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9") ~proto:6
             body))
      ()
  in
  tcp_tx := Some tx;
  { sim; goodput_bytes; delivered; tx; rx; tx_layer; rx_layer; rx_cpu }

let run_world w ~duration =
  Stripe_transport.Tcp_lite.Sender.start w.tx;
  Sim.run_until w.sim duration;
  Stripe_transport.Tcp_lite.Sender.shutdown w.tx;
  Sim.run w.sim;
  float_of_int (!(w.goodput_bytes) * 8) /. duration /. 1e6

let test_full_stack_throughput_and_order () =
  let w = build () in
  let mbps = run_world w ~duration:2.0 in
  (* Aggregate raw capacity 26 Mbps minus framing/header overheads and
     ramp-up: expect well above either link alone and below raw. *)
  Alcotest.(check bool)
    (Printf.sprintf "aggregate goodput %.1f Mbps above any single link" mbps)
    true
    (mbps > 12.0 && mbps < 26.0);
  Alcotest.(check int) "strIPe delivered IP datagrams in order" 0
    (Stripe_metrics.Recovery.out_of_order w.delivered);
  Alcotest.(check int) "TCP saw a gapless stream"
    (Stripe_transport.Tcp_lite.Sender.bytes_acked w.tx)
    (Stripe_transport.Tcp_lite.Receiver.bytes_delivered w.rx);
  Alcotest.(check bool) "both links carried substantial traffic" true
    (let s = Stripe_layer.striper w.tx_layer in
     let b0 = Stripe_core.Striper.channel_bytes s 0
     and b1 = Stripe_core.Striper.channel_bytes s 1 in
     b0 > 100_000 && b1 > 100_000);
  Alcotest.(check bool) "receive CPU did real work" true
    (Stripe_host.Cpu.busy_seconds w.rx_cpu > 0.1)

let test_full_stack_reordering_without_lr () =
  let w = build ~resequence:false () in
  let mbps = run_world w ~duration:1.0 in
  Alcotest.(check bool) "still delivers" true (mbps > 5.0);
  Alcotest.(check bool) "skewed links reorder the IP stream without LR" true
    (Stripe_metrics.Recovery.out_of_order w.delivered > 0);
  (* TCP reassembly still yields a gapless byte stream. *)
  Alcotest.(check int) "TCP stream intact despite reordering"
    (Stripe_transport.Tcp_lite.Sender.bytes_acked w.tx)
    (Stripe_transport.Tcp_lite.Receiver.bytes_delivered w.rx)

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "full stack, logical reception" `Quick
          test_full_stack_throughput_and_order;
        Alcotest.test_case "full stack, no resequencing" `Quick
          test_full_stack_reordering_without_lr;
      ] );
  ]
