(* The paper's §6.1 architecture end to end: transparent IP striping over
   an Ethernet and an ATM link between two hosts, using the strIPe
   virtual interface and host routes — exactly the NetBSD setup, in the
   simulator. The aggregate throughput approaches the sum of the two
   links.

   Run with: dune exec examples/dissimilar_links.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_ipstack

(* A unidirectional wire between two interfaces. *)
let wire sim ~rate_bps ~prop_delay ~mtu =
  let arp = Arp.create sim ~lookup:(fun _ -> Some 0x1) () in
  let rx_side = ref None in
  let link =
    Link.create sim ~rate_bps ~prop_delay
      ~deliver:(fun frame ->
        match !rx_side with Some iface -> Iface.rx iface frame | None -> ())
      ()
  in
  let tx = Iface.create sim ~name:"tx" ~mtu ~arp ~link () in
  let rx = Iface.create sim ~name:"rx" ~mtu ~arp ~link () in
  rx_side := Some rx;
  (tx, rx)

let () =
  let sim = Sim.create () in
  let sender = Node.create () in
  let receiver = Node.create () in

  (* Two physical paths: 10 Mbps Ethernet and a 16 Mbps ATM PVC. *)
  let eth_tx, eth_rx =
    wire sim ~rate_bps:10e6 ~prop_delay:0.001 ~mtu:1500
  in
  let atm_tx, atm_rx =
    wire sim ~rate_bps:16e6 ~prop_delay:0.004 ~mtu:1500
  in

  (* strIPe virtual interfaces on both hosts, weighted SRR matching the
     link rates, markers every 4 rounds. *)
  let rates = [| 10e6; 16e6 |] in
  let engine = Stripe_core.Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 () in
  let tx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| eth_tx; atm_tx |]
      ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Stripe_core.Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~deliver_up:(fun _ -> ())
      ()
  in
  (* A backlogged application: keep ~60 KB in flight for 2 simulated
     seconds of mixed-size datagrams. Goodput counts what arrives within
     those 2 s, not the backlog drained after. *)
  let duration = 2.0 in
  let goodput =
    Stripe_metrics.Throughput.create
      ~capacity_bps:(Array.fold_left ( +. ) 0.0 rates)
      ()
  in
  Stripe_metrics.Throughput.start_at goodput 0.0;
  Stripe_metrics.Throughput.stop_at goodput duration;
  let rx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| eth_rx; atm_rx |]
      ~scheduler:
        (Stripe_core.Scheduler.of_deficit ~name:"SRR"
           (Stripe_core.Deficit.clone_initial engine))
      ~deliver_up:(fun ip -> Node.ip_input receiver ip)
      ()
  in
  Node.add_stripe sender tx_layer;
  Node.add_stripe receiver rx_layer;

  (* Host routes override network routes: both of the receiver's
     addresses route through the bundle. *)
  Routing.add_host (Node.routing sender) (Ip.addr "10.1.0.9") "stripe0";
  Routing.add_host (Node.routing sender) (Ip.addr "10.2.0.9") "stripe0";

  let delivered = Stripe_metrics.Recovery.create () in
  Node.set_protocol_handler receiver ~proto:17 (fun ip ->
      Stripe_metrics.Recovery.observe delivered ~now:(Sim.now sim)
        ~seq:ip.Ip.body.Packet.seq;
      Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim)
        ~bytes:(Ip.size ip));

  let rng = Rng.create 7 in
  let seq = ref 0 in
  let rec offer () =
    if Sim.now sim < duration then begin
      let queued =
        Stripe_layer.member_queue_bytes tx_layer 0
        + Stripe_layer.member_queue_bytes tx_layer 1
      in
      if queued < 60_000 then
        for _ = 1 to 16 do
          let size = if Rng.bool rng then 200 else 1000 in
          Node.send sender
            (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9")
               (Packet.data ~seq:!seq ~size ()));
          incr seq
        done;
      Sim.schedule_after sim ~delay:0.001 offer
    end
  in
  offer ();
  Sim.run sim;

  let mbps = Stripe_metrics.Throughput.mbps goodput in
  Printf.printf "strIPe over 10 Mbps Ethernet + 16 Mbps ATM PVC\n";
  Printf.printf "  datagrams striped: %d, delivered in order: %d (reordered: %d)\n"
    (Stripe_layer.sent_datagrams tx_layer)
    (Stripe_layer.delivered_datagrams rx_layer)
    (Stripe_metrics.Recovery.out_of_order delivered);
  Printf.printf "  aggregate IP throughput: %.1f Mbps (links sum to 26 raw)\n" mbps;
  let s = Stripe_layer.striper tx_layer in
  Printf.printf "  byte split eth/atm: %d / %d (rate ratio 10:16)\n"
    (Stripe_core.Striper.channel_bytes s 0)
    (Stripe_core.Striper.channel_bytes s 1)
