(* Second coverage batch: edge cases across netsim, workload, marker
   construction, and the scheduler/deficit surfaces not hit elsewhere. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let test_select_for_in_overdraw_mode () =
  (* On an overdraw engine select_for ignores the size and equals
     select. *)
  let d = Srr.create ~quanta:[| 100; 100 |] () in
  Alcotest.(check int) "same selection" (Deficit.select_for d ~size:99_999) 0;
  Deficit.consume d ~size:50;
  Alcotest.(check int) "still current" 0 (Deficit.select_for d ~size:1)

let test_marker_packet_for () =
  let d = Srr.create ~quanta:[| 500; 300 |] () in
  let policy = Marker.make ~credit_of:(fun c -> 100 + c) ~every_rounds:2 () in
  let pkt = Marker.packet_for ~epoch:0 ~gen:0 policy ~deficit:d ~channel:1 ~now:3.5 in
  (match pkt.Packet.kind with
  | Packet.Marker m ->
    Alcotest.(check int) "channel" 1 m.m_channel;
    Alcotest.(check int) "round from next_stamp" 0 m.m_round;
    Alcotest.(check int) "dc from next_stamp" 300 m.m_dc;
    Alcotest.(check int) "credit from policy" 101 m.m_credit
  | Data -> Alcotest.fail "packet_for built a data packet");
  Alcotest.(check (float 0.0)) "timestamp" 3.5 pkt.Packet.born

let test_marker_policy_validation () =
  Alcotest.check_raises "every_rounds 0"
    (Invalid_argument "Marker.make: every_rounds must be >= 1") (fun () ->
      ignore (Marker.make ~every_rounds:0 ()))

let test_default_marker_policy () =
  Alcotest.(check int) "default interval" 4 Marker.default.Marker.every_rounds;
  Alcotest.(check bool) "default position is round end" true
    (Marker.default.Marker.position = Marker.Round_end)

let test_throughput_empty () =
  let t = Stripe_metrics.Throughput.create () in
  Alcotest.(check (float 0.0)) "no samples, no rate" 0.0
    (Stripe_metrics.Throughput.bps t);
  Alcotest.(check (float 0.0)) "no duration" 0.0
    (Stripe_metrics.Throughput.duration t)

let test_genpkt_validation () =
  Alcotest.check_raises "fixed 0"
    (Invalid_argument "Genpkt.fixed: size must be positive") (fun () ->
      let (_ : Stripe_workload.Genpkt.t) = Stripe_workload.Genpkt.fixed 0 in
      ());
  let rng = Rng.create 1 in
  Alcotest.check_raises "uniform inverted"
    (Invalid_argument "Genpkt.uniform: bad bounds") (fun () ->
      let (_ : Stripe_workload.Genpkt.t) =
        Stripe_workload.Genpkt.uniform ~rng ~lo:100 ~hi:50
      in
      ())

let test_video_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero frames"
    (Invalid_argument "Video.generate: n_frames must be positive") (fun () ->
      ignore (Stripe_workload.Video.generate ~rng ~n_frames:0 ()))

let test_video_no_refresh () =
  let rng = Rng.create 2 in
  let t = Stripe_workload.Video.generate ~rng ~refresh_every:0 ~n_frames:5 () in
  Alcotest.(check int) "uniform frames without refresh" 6
    (Stripe_workload.Video.frame_packet_count t 0)

let test_ip_pp () =
  let ip =
    Stripe_ipstack.Ip.make
      ~src:(Stripe_ipstack.Ip.addr "10.0.0.1")
      ~dst:(Stripe_ipstack.Ip.addr "10.0.0.2")
      ~proto:6
      (Packet.data ~seq:1 ~size:100 ())
  in
  let rendered = Format.asprintf "%a" Stripe_ipstack.Ip.pp ip in
  Alcotest.(check bool) "mentions endpoints" true
    (String.length rendered > 0)

let test_cell_pp () =
  let data_cell = List.hd (Stripe_atm.Aal5.segment ~vci:3 (Packet.data ~seq:0 ~size:40 ())) in
  let rendered = Format.asprintf "%a" Stripe_atm.Cell.pp data_cell in
  Alcotest.(check string) "single-cell frame pp" "cell(vci=3,dg=0,1/1,eof)" rendered

let test_rng_pick_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_skew_comp_held_counter () =
  let sim = Sim.create () in
  let comp =
    Skew_comp.create sim ~skews:[| 0.0; 0.010 |] ~deliver:(fun _ -> ()) ()
  in
  Skew_comp.receive comp ~channel:0 (Packet.data ~seq:0 ~size:10 ());
  Alcotest.(check int) "held while equalizing" 1 (Skew_comp.held comp);
  Sim.run sim;
  Alcotest.(check int) "released" 0 (Skew_comp.held comp);
  Alcotest.(check int) "delivered" 1 (Skew_comp.delivered comp)

let test_striper_channel_stats_for_marker_exclusion () =
  (* Markers never count in the per-channel data statistics. *)
  let sched = Scheduler.srr ~quanta:[| 100 |] () in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~every_rounds:1 ())
      ~emit:(fun ~channel:_ _ -> ())
      ()
  in
  for seq = 0 to 9 do
    Striper.push striper (Packet.data ~seq ~size:100 ())
  done;
  Alcotest.(check int) "data packets only" 10 (Striper.channel_packets striper 0);
  Alcotest.(check int) "data bytes only" 1000 (Striper.channel_bytes striper 0);
  Alcotest.(check bool) "markers flowed separately" true
    (Striper.markers_sent striper > 0)

let test_seq_resequencer_duplicate_tolerance () =
  (* Retransmission-style duplicates must not confuse the guaranteed-FIFO
     mode. *)
  let delivered = ref [] in
  let r =
    Seq_resequencer.create ~n_channels:1
      ~deliver:(fun p -> delivered := p.Packet.seq :: !delivered)
      ()
  in
  let p seq = Packet.data ~seq ~size:10 () in
  Seq_resequencer.receive r ~channel:0 (p 0);
  Seq_resequencer.receive r ~channel:0 (p 0);
  Seq_resequencer.receive r ~channel:0 (p 1);
  Alcotest.(check (list int)) "duplicate ignored" [ 0; 1 ] (List.rev !delivered)

let test_mppp_empty_links_wait () =
  let rx = Mppp.Receiver.create ~n_links:3 ~deliver:(fun _ -> ()) () in
  Alcotest.(check int) "nothing delivered from nothing" 0 (Mppp.Receiver.delivered rx);
  Alcotest.(check int) "no pending" 0 (Mppp.Receiver.pending rx)

let test_stripe_layer_reset () =
  (* A layer-level reset crosses the wire and reinitializes the peer. *)
  let sim = Sim.create () in
  let arp = Stripe_ipstack.Arp.create sim ~lookup:(fun _ -> Some 1) () in
  let rx_ref = ref None in
  let link =
    Link.create sim ~rate_bps:1e7 ~prop_delay:0.001
      ~deliver:(fun f ->
        match !rx_ref with
        | Some i -> Stripe_ipstack.Iface.rx i f
        | None -> ())
      ()
  in
  let mk name = Stripe_ipstack.Iface.create sim ~name ~mtu:1500 ~arp ~link () in
  let tx_if = mk "tx" and rx_if = mk "rx" in
  rx_ref := Some rx_if;
  let mk_layer members deliver_up =
    Stripe_ipstack.Stripe_layer.create ~name:"s0" ~members
      ~scheduler:(Scheduler.srr ~quanta:[| 1500 |] ())
      ~deliver_up ()
  in
  let seqs = ref [] in
  let tx_layer = mk_layer [| tx_if |] (fun _ -> ()) in
  let rx_layer =
    mk_layer [| rx_if |] (fun ip ->
        seqs := ip.Stripe_ipstack.Ip.body.Packet.seq :: !seqs)
  in
  let send seq =
    Stripe_ipstack.Stripe_layer.send tx_layer
      (Stripe_ipstack.Ip.make
         ~src:(Stripe_ipstack.Ip.addr "10.1.0.1")
         ~dst:(Stripe_ipstack.Ip.addr "10.1.0.9")
         (Packet.data ~seq ~size:500 ()))
  in
  send 0;
  Stripe_ipstack.Stripe_layer.send_reset tx_layer;
  send 1;
  Sim.run sim;
  Alcotest.(check (list int)) "stream crosses the barrier" [ 0; 1 ]
    (List.rev !seqs);
  Alcotest.(check int) "peer resequencer reinitialized" 1
    (Resequencer.resets
       (Option.get (Stripe_ipstack.Stripe_layer.resequencer rx_layer)))

let test_duplex_stats_shape () =
  let sim = Sim.create () in
  let d =
    Stripe_transport.Duplex.create sim
      ~channels:[| Stripe_transport.Socket_stripe.spec ~rate_bps:1e6 () |]
      ~quanta:[| 1000 |] ~buffer:4 ~deliver_to_a:ignore ~deliver_to_b:ignore ()
  in
  Stripe_transport.Duplex.send_from_a d (Packet.data ~seq:0 ~size:500 ());
  Sim.run sim;
  let sa = Stripe_transport.Duplex.stats_a d in
  let sb = Stripe_transport.Duplex.stats_b d in
  Alcotest.(check int) "a sent one" 1 sa.Stripe_transport.Duplex.sent;
  Alcotest.(check int) "b received one" 1 sb.Stripe_transport.Duplex.delivered;
  Alcotest.(check int) "a queue drained" 0 sa.Stripe_transport.Duplex.app_queue

let suites =
  [
    ( "misc2",
      [
        Alcotest.test_case "select_for overdraw" `Quick test_select_for_in_overdraw_mode;
        Alcotest.test_case "marker packet_for" `Quick test_marker_packet_for;
        Alcotest.test_case "marker validation" `Quick test_marker_policy_validation;
        Alcotest.test_case "default policy" `Quick test_default_marker_policy;
        Alcotest.test_case "throughput empty" `Quick test_throughput_empty;
        Alcotest.test_case "genpkt validation" `Quick test_genpkt_validation;
        Alcotest.test_case "video validation" `Quick test_video_validation;
        Alcotest.test_case "video no refresh" `Quick test_video_no_refresh;
        Alcotest.test_case "ip pp" `Quick test_ip_pp;
        Alcotest.test_case "cell pp" `Quick test_cell_pp;
        Alcotest.test_case "rng pick" `Quick test_rng_pick_validation;
        Alcotest.test_case "skew held counter" `Quick test_skew_comp_held_counter;
        Alcotest.test_case "striper marker exclusion" `Quick
          test_striper_channel_stats_for_marker_exclusion;
        Alcotest.test_case "seq duplicate tolerance" `Quick
          test_seq_resequencer_duplicate_tolerance;
        Alcotest.test_case "stripe layer reset" `Quick test_stripe_layer_reset;
        Alcotest.test_case "mppp empty" `Quick test_mppp_empty_links_wait;
        Alcotest.test_case "duplex stats" `Quick test_duplex_stats_shape;
      ] );
  ]
