(* Coverage for the remaining corners: interface output-queue FIFO under
   ARP resolution (regression for a real bug: markers must never overtake
   data awaiting resolution), Node protocol demux, and assorted small
   invariants. (The old string-blob Trace recorder is gone; its successor,
   the structured Stripe_obs subsystem, is covered by test_obs.ml.) *)

open Stripe_netsim
open Stripe_packet
open Stripe_ipstack

(* Regression: a marker sent immediately after data must arrive after it,
   even while the data sits in the interface queue waiting for ARP. *)
let test_iface_fifo_across_arp_miss () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let rx_ref = ref None in
  let arp =
    Arp.create sim ~resolve_delay:0.005 ~lookup:(fun _ -> Some 0xAB) ()
  in
  let link =
    Link.create sim ~rate_bps:1e7 ~prop_delay:0.001
      ~deliver:(fun frame ->
        match !rx_ref with Some rx -> Iface.rx rx frame | None -> ())
      ()
  in
  let tx =
    Iface.create sim ~name:"tx" ~mtu:1500
      ~arp ~link ()
  in
  let rx =
    Iface.create sim ~name:"rx" ~mtu:1500
      ~arp ~link ()
  in
  rx_ref := Some rx;
  let tag frame =
    match frame with
    | Iface.Striped_frame ip -> Printf.sprintf "data%d" ip.Ip.body.Packet.seq
    | Iface.Marker_frame _ -> "marker"
    | Iface.Ip_frame _ -> "ip"
  in
  Iface.set_handler rx Iface.Cp_striped_ip (fun f -> arrivals := tag f :: !arrivals);
  Iface.set_handler rx Iface.Cp_marker (fun f -> arrivals := tag f :: !arrivals);
  (* Data hits an ARP miss (5 ms); the marker needs no resolution but must
     still queue behind it. *)
  let ip seq =
    Ip.make ~src:(Ip.addr "10.0.0.1") ~dst:(Ip.addr "10.0.0.2")
      (Packet.data ~seq ~size:500 ())
  in
  Iface.send tx (Iface.Striped_frame (ip 0));
  Iface.send tx
    (Iface.Marker_frame (Packet.marker ~channel:0 ~round:1 ~dc:500 ~born:0.0 ()));
  Iface.send tx (Iface.Striped_frame (ip 1));
  Sim.run sim;
  Alcotest.(check (list string)) "device queue preserves submission order"
    [ "data0"; "marker"; "data1" ]
    (List.rev !arrivals)

let test_node_protocol_demux () =
  let node = Node.create () in
  let tcp = ref 0 and udp = ref 0 in
  Node.set_protocol_handler node ~proto:6 (fun _ -> incr tcp);
  Node.set_protocol_handler node ~proto:17 (fun _ -> incr udp);
  let dg proto =
    Ip.make ~src:(Ip.addr "1.1.1.1") ~dst:(Ip.addr "2.2.2.2") ~proto
      (Packet.data ~seq:0 ~size:100 ())
  in
  Node.ip_input node (dg 6);
  Node.ip_input node (dg 17);
  Node.ip_input node (dg 17);
  Node.ip_input node (dg 99);
  Alcotest.(check int) "tcp handler" 1 !tcp;
  Alcotest.(check int) "udp handler" 2 !udp;
  Alcotest.(check int) "all counted as local" 4 (Node.delivered_local node)

let test_node_handler_replacement () =
  let node = Node.create () in
  let first = ref 0 and second = ref 0 in
  Node.set_protocol_handler node ~proto:6 (fun _ -> incr first);
  Node.set_protocol_handler node ~proto:6 (fun _ -> incr second);
  Node.ip_input node
    (Ip.make ~src:(Ip.addr "1.1.1.1") ~dst:(Ip.addr "2.2.2.2") ~proto:6
       (Packet.data ~seq:0 ~size:10 ()));
  Alcotest.(check (pair int int)) "later registration wins" (0, 1)
    (!first, !second)

let test_cpu_backlog () =
  let sim = Sim.create () in
  let cpu = Stripe_host.Cpu.create sim () in
  Stripe_host.Cpu.execute cpu ~cost:0.5 (fun () -> ());
  Stripe_host.Cpu.execute cpu ~cost:0.5 (fun () -> ());
  Alcotest.(check (float 1e-9)) "backlog is queued work" 1.0
    (Stripe_host.Cpu.backlog cpu);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "backlog drains" 0.0 (Stripe_host.Cpu.backlog cpu)

let test_summary_pp () =
  let s = Stripe_metrics.Summary.create () in
  Stripe_metrics.Summary.add s 1.0;
  Stripe_metrics.Summary.add s 3.0;
  let rendered = Format.asprintf "%a" Stripe_metrics.Summary.pp s in
  Alcotest.(check bool) "pp mentions count" true
    (String.length rendered > 0
    && String.sub rendered 0 3 = "n=2")

let test_fairness_pp () =
  let d = Stripe_core.Srr.create ~quanta:[| 100; 100 |] () in
  let r = Stripe_core.Fairness.measure ~deficit:d ~bytes:[| 0; 0 |] ~max_packet:100 in
  let rendered = Format.asprintf "%a" Stripe_core.Fairness.pp_report r in
  Alcotest.(check bool) "report renders" true (String.length rendered > 0)

let test_deficit_pp_state () =
  let d = Stripe_core.Srr.create ~quanta:[| 100; 200 |] () in
  let rendered = Format.asprintf "%a" Stripe_core.Deficit.pp_state d in
  Alcotest.(check string) "state dump" "ptr=0 ch=0 round=0 serving=false dcs=[0; 0]"
    rendered

let test_packet_pp_reset_and_credit () =
  let m = Packet.marker ~credit:5 ~reset:true ~channel:2 ~round:7 ~dc:10 ~born:0.0 () in
  Alcotest.(check string) "full marker pp" "M(ch=2,R=7,DC=10,credit=5,reset)"
    (Format.asprintf "%a" Packet.pp m)

let test_stripe_layer_marker_counter () =
  (* Markers emitted by a layered striper are visible in its counter and
     arrive via the marker codepoint. *)
  let sim = Sim.create () in
  let arp = Arp.create sim ~lookup:(fun _ -> Some 1) () in
  let rx_ref = ref None in
  let link =
    Link.create sim ~rate_bps:1e7 ~prop_delay:0.001
      ~deliver:(fun f -> match !rx_ref with Some i -> Iface.rx i f | None -> ())
      ()
  in
  let tx_if =
    Iface.create sim ~name:"tx" ~mtu:1500
      ~arp ~link ()
  in
  let rx_if =
    Iface.create sim ~name:"rx" ~mtu:1500
      ~arp ~link ()
  in
  rx_ref := Some rx_if;
  let layer =
    Stripe_layer.create ~name:"s0" ~members:[| tx_if |]
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta:[| 1500 |] ())
      ~marker:(Stripe_core.Marker.make ~every_rounds:1 ())
      ~deliver_up:(fun _ -> ())
      ()
  in
  let rx_layer =
    Stripe_layer.create ~name:"s0" ~members:[| rx_if |]
      ~scheduler:(Stripe_core.Scheduler.srr ~quanta:[| 1500 |] ())
      ~deliver_up:(fun _ -> ())
      ()
  in
  for seq = 0 to 9 do
    Stripe_layer.send layer
      (Ip.make ~src:(Ip.addr "10.1.0.1") ~dst:(Ip.addr "10.1.0.9")
         (Packet.data ~seq ~size:1000 ()))
  done;
  Sim.run sim;
  Alcotest.(check bool) "markers counted at the sender" true
    (Stripe_layer.markers_sent layer > 0);
  Alcotest.(check int) "all datagrams up" 10
    (Stripe_layer.delivered_datagrams rx_layer)

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "iface fifo across arp miss" `Quick
          test_iface_fifo_across_arp_miss;
        Alcotest.test_case "node demux" `Quick test_node_protocol_demux;
        Alcotest.test_case "node handler replacement" `Quick
          test_node_handler_replacement;
        Alcotest.test_case "cpu backlog" `Quick test_cpu_backlog;
        Alcotest.test_case "summary pp" `Quick test_summary_pp;
        Alcotest.test_case "fairness pp" `Quick test_fairness_pp;
        Alcotest.test_case "deficit pp" `Quick test_deficit_pp_state;
        Alcotest.test_case "packet pp" `Quick test_packet_pp_reset_and_credit;
        Alcotest.test_case "layer markers" `Quick test_stripe_layer_marker_counter;
      ] );
  ]
