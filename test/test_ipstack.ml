(* Tests for the IP substrate: addresses, routing with host-route
   override, ARP, interface demux, and the strIPe virtual interface
   end-to-end. *)

open Stripe_netsim
open Stripe_ipstack
open Stripe_packet

let test_addr_roundtrip () =
  let a = Ip.addr "192.168.1.2" in
  Alcotest.(check string) "roundtrip" "192.168.1.2" (Ip.addr_to_string a)

let test_addr_validation () =
  Alcotest.check_raises "bad octet"
    (Invalid_argument "Ip.addr: bad octet in 1.2.3.256") (fun () ->
      ignore (Ip.addr "1.2.3.256"));
  Alcotest.check_raises "not dotted quad"
    (Invalid_argument "Ip.addr: expected dotted quad, got 1.2.3") (fun () ->
      ignore (Ip.addr "1.2.3"))

let test_network_mask () =
  let a = Ip.addr "10.1.2.3" in
  Alcotest.(check string) "/24 network" "10.1.2.0"
    (Ip.addr_to_string (Ip.network a ~prefix:24));
  Alcotest.(check string) "/8 network" "10.0.0.0"
    (Ip.addr_to_string (Ip.network a ~prefix:8));
  Alcotest.(check bool) "same /24" true
    (Ip.same_network a (Ip.addr "10.1.2.99") ~prefix:24);
  Alcotest.(check bool) "different /24" false
    (Ip.same_network a (Ip.addr "10.1.3.1") ~prefix:24)

let test_routing_host_overrides_network () =
  (* The exact §6.1 trick: host routes to the receiver's addresses send
     traffic to the strIPe interface, overriding the network routes. *)
  let table = Routing.create () in
  Routing.add_network table (Ip.addr "10.1.0.0") ~prefix:16 "eth0";
  Routing.add_network table (Ip.addr "10.2.0.0") ~prefix:16 "eth1";
  Routing.add_host table (Ip.addr "10.1.0.9") "stripe0";
  Routing.add_host table (Ip.addr "10.2.0.9") "stripe0";
  Alcotest.(check (option string)) "host B on net1 -> stripe" (Some "stripe0")
    (Routing.lookup table (Ip.addr "10.1.0.9"));
  Alcotest.(check (option string)) "host B on net2 -> stripe" (Some "stripe0")
    (Routing.lookup table (Ip.addr "10.2.0.9"));
  Alcotest.(check (option string)) "other host on net1 -> eth0" (Some "eth0")
    (Routing.lookup table (Ip.addr "10.1.0.7"))

let test_routing_default_and_miss () =
  let table = Routing.create () in
  Alcotest.(check (option string)) "empty table misses" None
    (Routing.lookup table (Ip.addr "1.2.3.4"));
  Routing.add_default table "eth9";
  Alcotest.(check (option string)) "default catches" (Some "eth9")
    (Routing.lookup table (Ip.addr "1.2.3.4"))

let test_routing_remove_host () =
  let table = Routing.create () in
  Routing.add_network table (Ip.addr "10.0.0.0") ~prefix:8 "eth0";
  Routing.add_host table (Ip.addr "10.0.0.1") "stripe0";
  Routing.remove_host table (Ip.addr "10.0.0.1");
  Alcotest.(check (option string)) "falls back to network route" (Some "eth0")
    (Routing.lookup table (Ip.addr "10.0.0.1"))

let test_arp_cache_and_resolution () =
  let sim = Sim.create () in
  let arp =
    Arp.create sim ~resolve_delay:0.001
      ~lookup:(fun a -> if a = Ip.addr "10.0.0.2" then Some 0xBEEF else None)
      ()
  in
  let result = ref None in
  Arp.resolve arp (Ip.addr "10.0.0.2") (fun r -> result := Some (r, Sim.now sim));
  Alcotest.(check bool) "miss is asynchronous" true (!result = None);
  Sim.run sim;
  (match !result with
  | Some (Some 0xBEEF, t) ->
    Alcotest.(check (float 1e-9)) "resolved after delay" 0.001 t
  | _ -> Alcotest.fail "expected resolution");
  (* Second resolution hits the cache synchronously. *)
  let hit = ref false in
  Arp.resolve arp (Ip.addr "10.0.0.2") (fun _ -> hit := true);
  Alcotest.(check bool) "cache hit synchronous" true !hit;
  Alcotest.(check int) "one miss recorded" 1 (Arp.misses arp);
  Alcotest.(check int) "one hit recorded" 1 (Arp.hits arp)

let test_arp_unknown_address () =
  let sim = Sim.create () in
  let arp = Arp.create sim ~lookup:(fun _ -> None) () in
  let result = ref (Some 1) in
  Arp.resolve arp (Ip.addr "9.9.9.9") (fun r -> result := r);
  Sim.run sim;
  Alcotest.(check (option int)) "unresolvable" None !result

let test_arp_expiry () =
  let sim = Sim.create () in
  let arp = Arp.create sim ~entry_ttl:10.0 ~lookup:(fun _ -> Some 7) () in
  Arp.insert arp (Ip.addr "10.0.0.5") 7;
  Alcotest.(check (option int)) "cached" (Some 7) (Arp.cached arp (Ip.addr "10.0.0.5"));
  Sim.run_until sim 11.0;
  Alcotest.(check (option int)) "expired" None (Arp.cached arp (Ip.addr "10.0.0.5"))

(* Build a unidirectional wire: a sender-side iface whose link delivers
   into a receiver-side iface's rx. Returns the link too, for carrier
   control. *)
let make_wire_link sim ~rate_bps ~mtu =
  let arp = Arp.create sim ~lookup:(fun _ -> Some 0xAA) () in
  let rx_iface = ref None in
  let link =
    Link.create sim ~rate_bps ~prop_delay:0.001
      ~deliver:(fun frame ->
        match !rx_iface with Some i -> Iface.rx i frame | None -> ())
      ()
  in
  let tx =
    Iface.create sim ~name:"tx" ~mtu ~arp ~link ()
  in
  let rx =
    Iface.create sim ~name:"rx" ~mtu ~arp ~link ()
  in
  rx_iface := Some rx;
  (tx, rx, link)

let make_wire sim ~rate_bps ~mtu =
  let tx, rx, _ = make_wire_link sim ~rate_bps ~mtu in
  (tx, rx)

let test_iface_demux_by_codepoint () =
  let sim = Sim.create () in
  let tx, rx =
    make_wire sim ~rate_bps:1e7 ~mtu:1500
  in
  let got_ip = ref 0 and got_striped = ref 0 and got_marker = ref 0 in
  Iface.set_handler rx Iface.Cp_ip (fun _ -> incr got_ip);
  Iface.set_handler rx Iface.Cp_striped_ip (fun _ -> incr got_striped);
  Iface.set_handler rx Iface.Cp_marker (fun _ -> incr got_marker);
  let ip =
    Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.2")
      (Packet.data ~seq:0 ~size:500 ())
  in
  Iface.send tx (Iface.Ip_frame ip);
  Iface.send tx (Iface.Striped_frame ip);
  Iface.send tx (Iface.Marker_frame (Packet.marker ~channel:0 ~round:0 ~dc:1 ~born:0.0 ()));
  Sim.run sim;
  Alcotest.(check int) "plain IP to IP handler" 1 !got_ip;
  Alcotest.(check int) "striped to stripe handler" 1 !got_striped;
  Alcotest.(check int) "marker to marker handler" 1 !got_marker;
  Alcotest.(check int) "tx counted" 3 (Iface.tx_frames tx);
  Alcotest.(check int) "rx counted" 3 (Iface.rx_frames rx)

let test_iface_unclaimed () =
  let sim = Sim.create () in
  let tx, rx =
    make_wire sim ~rate_bps:1e7 ~mtu:1500
  in
  let ip =
    Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.2")
      (Packet.data ~seq:0 ~size:100 ())
  in
  Iface.send tx (Iface.Ip_frame ip);
  Sim.run sim;
  Alcotest.(check int) "no handler -> unclaimed" 1 (Iface.unclaimed_frames rx)

let test_iface_mtu_enforced () =
  let sim = Sim.create () in
  let tx, _ =
    make_wire sim ~rate_bps:1e7 ~mtu:576
  in
  let ip =
    Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.2")
      (Packet.data ~seq:0 ~size:1500 ())
  in
  Alcotest.check_raises "oversize rejected"
    (Invalid_argument "Iface.send(tx): payload 1500 exceeds MTU 576") (fun () ->
      Iface.send tx (Iface.Ip_frame ip))

let test_arp_failure_counted () =
  let sim = Sim.create () in
  let arp = Arp.create sim ~lookup:(fun _ -> None) () in
  let link =
    Link.create sim ~rate_bps:1e7 ~prop_delay:0.001 ~deliver:(fun _ -> ()) ()
  in
  let tx =
    Iface.create sim ~name:"tx" ~mtu:1500
      ~arp ~link ()
  in
  let ip =
    Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.99")
      (Packet.data ~seq:0 ~size:100 ())
  in
  Iface.send tx (Iface.Ip_frame ip);
  Sim.run sim;
  Alcotest.(check int) "arp failure drop" 1 (Iface.arp_failures tx);
  Alcotest.(check int) "nothing transmitted" 0 (Iface.tx_frames tx)

(* Full strIPe stack: two member wires, a virtual interface on each node,
   host routes steering the flow through it. *)
let build_stripe_pair sim ~rates =
  let n = Array.length rates in
  let sender = Node.create () in
  let receiver = Node.create () in
  let wires =
    Array.init n (fun i ->
        make_wire sim ~rate_bps:rates.(i) ~mtu:1500)
  in
  let tx_members = Array.map fst wires in
  let rx_members = Array.map snd wires in
  let engine = Stripe_core.Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 () in
  let sched = Stripe_core.Scheduler.of_deficit ~name:"SRR" engine in
  (* The wires are simplex (sender -> receiver), so the sender's receive
     path never sees a frame: it needs no resequencer. *)
  let tx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:tx_members ~scheduler:sched
      ~marker:(Stripe_core.Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~resequence:false
      ~deliver_up:(fun _ -> ())
      ()
  in
  let rx_sched =
    Stripe_core.Scheduler.of_deficit ~name:"SRR"
      (Stripe_core.Deficit.clone_initial engine)
  in
  let rx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:rx_members ~scheduler:rx_sched
      ~deliver_up:(fun ip -> Node.ip_input receiver ip)
      ()
  in
  Node.add_stripe sender tx_layer;
  Node.add_stripe receiver rx_layer;
  (* Host routes: both of R's addresses go through the stripe bundle. *)
  for i = 1 to n do
    Routing.add_host (Node.routing sender)
      (Ip.addr (Printf.sprintf "10.%d.0.9" i))
      "stripe0"
  done;
  (sender, receiver, tx_layer, rx_layer)

let test_stripe_layer_end_to_end () =
  let sim = Sim.create () in
  let sender, receiver, tx_layer, rx_layer =
    build_stripe_pair sim ~rates:[| 10e6; 4e6 |]
  in
  let seqs = ref [] in
  Node.set_protocol_handler receiver ~proto:17 (fun ip ->
      seqs := ip.Ip.body.Packet.seq :: !seqs);
  let rng = Rng.create 13 in
  for seq = 0 to 399 do
    let body = Packet.data ~seq ~size:(60 + Rng.int rng 1400) () in
    Node.send sender
      (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9") body)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "transparent, in-order delivery up to IP"
    (List.init 400 Fun.id) (List.rev !seqs);
  Alcotest.(check int) "sender striped everything" 400
    (Stripe_layer.sent_datagrams tx_layer);
  Alcotest.(check int) "receiver layer delivered everything" 400
    (Stripe_layer.delivered_datagrams rx_layer);
  Alcotest.(check bool) "both members carried traffic" true
    (let s = Stripe_layer.striper tx_layer in
     Stripe_core.Striper.channel_bytes s 0 > 0
     && Stripe_core.Striper.channel_bytes s 1 > 0)

(* A bundle's width is fixed at creation: a sender restart handed a
   vector of another width must refuse it before the crash is recorded
   or any striping state changes, and the bundle must keep striping at
   its own width. A restart at the right width then goes through, and
   delivery stays FIFO across both. *)
let test_stripe_layer_wrong_width_restart () =
  let sim = Sim.create () in
  let sender, receiver, tx_layer, _rx_layer =
    build_stripe_pair sim ~rates:[| 10e6; 10e6 |]
  in
  let seqs = ref [] in
  Node.set_protocol_handler receiver ~proto:17 (fun ip ->
      seqs := ip.Ip.body.Packet.seq :: !seqs);
  let rng = Rng.create 7 in
  let send_burst lo hi =
    for seq = lo to hi do
      let body = Packet.data ~seq ~size:(60 + Rng.int rng 1400) () in
      Node.send sender
        (Ip.make ~src:(Ip.addr "10.2.0.1") ~dst:(Ip.addr "10.2.0.9") body)
    done;
    Sim.run sim
  in
  let striper = Stripe_layer.striper tx_layer in
  send_burst 0 199;
  let markers = Stripe_layer.markers_sent tx_layer in
  Alcotest.check_raises "a 3-wide vector on a 2-wide bundle"
    (Invalid_argument
       "Deficit.reconfigure: 3 quanta for a 2-channel engine") (fun () ->
      Stripe_layer.crash_restart_sender tx_layer
        ~quanta:[| 1500; 1500; 1500 |]);
  Alcotest.(check int) "no new incarnation" 0
    (Stripe_core.Striper.epoch striper);
  Alcotest.(check int) "no reset barrier sent" markers
    (Stripe_layer.markers_sent tx_layer);
  Alcotest.(check int) "still two channels wide" 2
    (Stripe_core.Scheduler.n_channels (Stripe_core.Striper.scheduler striper));
  send_burst 200 399;
  Stripe_layer.crash_restart_sender tx_layer ~quanta:[| 1500; 1500 |];
  Alcotest.(check int) "a same-width restart goes through" 1
    (Stripe_core.Striper.epoch striper);
  send_burst 400 599;
  Alcotest.(check (list int)) "FIFO across the refused and the real restart"
    (List.init 600 Fun.id) (List.rev !seqs)

let test_stripe_layer_mtu_is_min () =
  let sim = Sim.create () in
  let w1_tx, _ =
    make_wire sim ~rate_bps:1e7 ~mtu:1500
  and w2_tx, _ =
    make_wire sim ~rate_bps:1e7 ~mtu:576
  in
  let sched = Stripe_core.Scheduler.srr ~quanta:[| 1500; 1500 |] () in
  let layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| w1_tx; w2_tx |]
      ~scheduler:sched ~deliver_up:(fun _ -> ()) ()
  in
  Alcotest.(check int) "bundle MTU = min member MTU" 576 (Stripe_layer.mtu layer);
  let ip =
    Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9")
      (Packet.data ~seq:0 ~size:1000 ())
  in
  Alcotest.check_raises "oversize datagram rejected"
    (Invalid_argument "Stripe_layer.send(stripe0): datagram 1000 exceeds bundle MTU 576")
    (fun () -> Stripe_layer.send layer ip)

let test_stripe_layer_no_resequence_variant () =
  let sim = Sim.create () in
  (* Fast and slow member: without logical reception, arrival order leaks
     through to IP. *)
  let w1_tx, w1_rx =
    make_wire sim ~rate_bps:50e6 ~mtu:1500
  and w2_tx, w2_rx =
    make_wire sim ~rate_bps:1e6 ~mtu:1500
  in
  let tx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| w1_tx; w2_tx |]
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta:[| 1500; 1500 |] ())
      ~resequence:false ~deliver_up:(fun _ -> ()) ()
  in
  let reorder = ref 0 in
  let seen = ref (-1) in
  let rx_layer =
    Stripe_layer.create ~name:"stripe0" ~members:[| w1_rx; w2_rx |]
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta:[| 1500; 1500 |] ())
      ~resequence:false
      ~deliver_up:(fun ip ->
        let s = ip.Ip.body.Packet.seq in
        if s < !seen then incr reorder;
        if s > !seen then seen := s)
      ()
  in
  Alcotest.(check bool) "no resequencer in this mode" true
    (Stripe_layer.resequencer rx_layer = None);
  for seq = 0 to 199 do
    Stripe_layer.send tx_layer
      (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9")
         (Packet.data ~seq ~size:1000 ()))
  done;
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "skew reorders %d datagrams without logical reception" !reorder)
    true (!reorder > 0)

(* Carrier handling: the layer watches every member's link. A member
   going down is suspended in the striper and its load moves to the
   survivors; a member coming back is resumed, which fires the §5 reset
   barrier, and delivery stays FIFO. With every member down a datagram
   is dropped and counted, never raised. *)
let test_stripe_layer_carrier () =
  let sim = Sim.create () in
  let wires =
    Array.init 3 (fun _ -> make_wire_link sim ~rate_bps:10e6 ~mtu:1500)
  in
  let link i = let _, _, l = wires.(i) in l in
  let quanta = [| 1500; 1500; 1500 |] in
  let tx_layer =
    Stripe_layer.create ~name:"stripe0"
      ~members:(Array.map (fun (tx, _, _) -> tx) wires)
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta ())
      ~marker:(Stripe_core.Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~resequence:false ~deliver_up:(fun _ -> ()) ()
  in
  let seqs = ref [] in
  let rx_layer =
    Stripe_layer.create ~name:"stripe0"
      ~members:(Array.map (fun (_, rx, _) -> rx) wires)
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta ())
      ~now:(fun () -> Sim.now sim)
      ~deliver_up:(fun ip -> seqs := ip.Ip.body.Packet.seq :: !seqs)
      ()
  in
  let striper = Stripe_layer.striper tx_layer in
  let reseq = Option.get (Stripe_layer.resequencer rx_layer) in
  let send lo hi =
    for seq = lo to hi do
      Stripe_layer.send tx_layer
        (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9")
           (Packet.data ~seq ~size:1000 ()))
    done;
    Sim.run sim
  in
  let carried c = Stripe_core.Striper.channel_packets striper c in
  send 0 99;
  Alcotest.(check bool) "member 1 carries load while up" true (carried 1 > 0);
  (* Member 1's carrier drops: suspended, survivors take its load. *)
  Link.set_up (link 1) false;
  Alcotest.(check bool) "down member suspended" true
    (Stripe_core.Striper.suspended_channel striper 1);
  let before = Array.init 3 carried in
  send 100 199;
  Alcotest.(check int) "nothing striped onto the down member" before.(1)
    (carried 1);
  Alcotest.(check int) "survivors carry all 100" 100
    (carried 0 - before.(0) + (carried 2 - before.(2)));
  (* Carrier back: resumed, and the resume's reset barrier lands. *)
  let resets = Stripe_core.Resequencer.resets reseq in
  Link.set_up (link 1) true;
  Alcotest.(check bool) "recovered member resumed" false
    (Stripe_core.Striper.suspended_channel striper 1);
  let before = carried 1 in
  send 200 299;
  Alcotest.(check int) "reset barrier completed at the receiver" (resets + 1)
    (Stripe_core.Resequencer.resets reseq);
  Alcotest.(check bool) "resumed member carries load again" true
    (carried 1 > before);
  Alcotest.(check (list int)) "FIFO through the outage and the resume"
    (List.init 300 Fun.id) (List.rev !seqs);
  (* Every member down: datagrams are dropped and counted. *)
  Array.iteri (fun i _ -> Link.set_up (link i) false) wires;
  send 300 309;
  Alcotest.(check int) "all-down datagrams counted as undispatched" 10
    (Stripe_core.Striper.undispatched_drops striper);
  Alcotest.(check int) "all 310 offered to the layer" 310
    (Stripe_layer.sent_datagrams tx_layer);
  Alcotest.(check int) "none delivered while all are down" 300
    (Stripe_layer.delivered_datagrams rx_layer)

let test_node_no_route () =
  let node = Node.create () in
  Node.send node
    (Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.2")
       (Packet.data ~seq:0 ~size:100 ()));
  Alcotest.(check int) "no-route drop counted" 1 (Node.no_route_drops node)

let suites =
  [
    ( "ipstack",
      [
        Alcotest.test_case "addr roundtrip" `Quick test_addr_roundtrip;
        Alcotest.test_case "addr validation" `Quick test_addr_validation;
        Alcotest.test_case "network mask" `Quick test_network_mask;
        Alcotest.test_case "host route override" `Quick
          test_routing_host_overrides_network;
        Alcotest.test_case "default route" `Quick test_routing_default_and_miss;
        Alcotest.test_case "remove host route" `Quick test_routing_remove_host;
        Alcotest.test_case "arp cache" `Quick test_arp_cache_and_resolution;
        Alcotest.test_case "arp unknown" `Quick test_arp_unknown_address;
        Alcotest.test_case "arp expiry" `Quick test_arp_expiry;
        Alcotest.test_case "iface demux" `Quick test_iface_demux_by_codepoint;
        Alcotest.test_case "iface unclaimed" `Quick test_iface_unclaimed;
        Alcotest.test_case "iface mtu" `Quick test_iface_mtu_enforced;
        Alcotest.test_case "arp failure" `Quick test_arp_failure_counted;
        Alcotest.test_case "stripe end-to-end" `Quick test_stripe_layer_end_to_end;
        Alcotest.test_case "stripe wrong-width restart" `Quick
          test_stripe_layer_wrong_width_restart;
        Alcotest.test_case "stripe mtu min" `Quick test_stripe_layer_mtu_is_min;
        Alcotest.test_case "stripe carrier" `Quick test_stripe_layer_carrier;
        Alcotest.test_case "stripe no-reseq variant" `Quick
          test_stripe_layer_no_resequence_variant;
        Alcotest.test_case "node no route" `Quick test_node_no_route;
      ] );
  ]
