(* Cross-stack properties: conservation laws, burst-loss recovery, TCP
   stream integrity under random loss, and a large soak run guarding the
   per-packet cost of the protocol machinery. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

(* Conservation through Socket_stripe: every offered packet is delivered,
   still queued, lost in flight, or dropped at the receive socket. *)
let prop_socket_stripe_conservation =
  QCheck.Test.make ~name:"socket_stripe: packet conservation" ~count:30
    QCheck.(triple (int_range 0 500) (float_range 0.0 0.3) bool)
    (fun (seed, loss_p, with_credits) ->
      let sim = Sim.create () in
      let channels =
        [|
          Stripe_transport.Socket_stripe.spec ~rate_bps:8e6
            ~loss:(fun () -> Loss.bernoulli ~p:loss_p)
            ();
          Stripe_transport.Socket_stripe.spec ~rate_bps:4e6 ~prop_delay:0.01
            ~loss:(fun () -> Loss.bernoulli ~p:loss_p)
            ();
        |]
      in
      let delivered = ref 0 in
      let sock =
        Stripe_transport.Socket_stripe.create sim ~channels
          ~scheduler:(Scheduler.srr ~quanta:[| 1000; 1000 |] ())
          ~marker:(Marker.make ~every_rounds:4 ())
          ~flow_control:
            (if with_credits then
               Stripe_transport.Socket_stripe.Credit_based { buffer = 32 }
             else Stripe_transport.Socket_stripe.No_flow_control)
          ~rng:(Rng.create seed)
          ~deliver:(fun _ -> incr delivered)
          ()
      in
      let n = 600 in
      for seq = 0 to n - 1 do
        Sim.schedule sim ~at:(float_of_int seq *. 0.001) (fun () ->
            Stripe_transport.Socket_stripe.send sock
              (Packet.data ~seq ~size:1000 ()))
      done;
      Sim.run sim;
      let open Stripe_transport.Socket_stripe in
      let buffered = Resequencer.pending (resequencer sock) in
      (* channel_losses counts markers too, so data losses are bounded by
         it rather than equal to it. *)
      let unaccounted =
        sent_packets sock - !delivered - buffered - congestion_drops sock
      in
      sent_packets sock + app_queue_length sock = n
      && unaccounted >= 0
      && unaccounted <= channel_losses sock)

(* Burst (Gilbert-Elliott) loss: recovery must hold for bursty errors,
   not just independent ones - the paper models non-FIFO blips as burst
   errors too. *)
let prop_recovery_under_burst_loss =
  QCheck.Test.make ~name:"marker recovery survives bursty loss" ~count:30
    QCheck.(int_range 0 500)
    (fun seed ->
      let rng = Rng.create seed in
      let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
      let loss = Loss.gilbert ~p_good_to_bad:0.05 ~p_bad_to_good:0.3
          ~loss_good:0.0 ~loss_bad:0.8
      in
      let delivered = ref [] in
      let reseq =
        Resequencer.create ~deficit:(Deficit.clone_initial engine)
          ~deliver:(fun ~channel:_ p -> delivered := p.Packet.seq :: !delivered)
          ()
      in
      let wires = Array.init 2 (fun _ -> Queue.create ()) in
      let striper =
        Striper.create
          ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
          ~marker:(Marker.make ~every_rounds:3 ())
          ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
          ()
      in
      let n_lossy = 400 and n_clean = 400 in
      for seq = 0 to n_lossy + n_clean - 1 do
        Striper.push striper
          (Packet.data ~seq ~size:(100 + Rng.int rng 1300) ())
      done;
      let rec shuttle () =
        let live =
          Array.to_list wires
          |> List.mapi (fun i q -> (i, q))
          |> List.filter (fun (_, q) -> not (Queue.is_empty q))
        in
        match live with
        | [] -> ()
        | live ->
          let c, q = List.nth live (Rng.int rng (List.length live)) in
          let pkt = Queue.pop q in
          let drop =
            (not (Packet.is_marker pkt))
            && pkt.Packet.seq < n_lossy
            && Loss.drop loss rng
          in
          if not drop then Resequencer.receive reseq ~channel:c pkt;
          shuttle ()
      in
      shuttle ();
      let out = List.rev !delivered in
      let tail = List.filter (fun s -> s >= n_lossy + 150) out in
      List.sort compare tail = tail
      && List.length tail = n_clean - 150)

(* TCP over striping under loss: the byte stream the receiver assembles
   has no gaps and matches what the sender believes was acknowledged. *)
let run_tcp_over_striping ~seed ~loss_p =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let tcp_rx = ref None in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ pkt ->
        match !tcp_rx with
        | Some rx ->
          ignore
            (Stripe_transport.Tcp_lite.Receiver.rx rx ~off:(Packet.off pkt)
               ~len:pkt.Packet.size)
        | None -> ())
      ()
  in
  let links =
    Array.init 2 (fun i ->
        Link.create sim
          ~rate_bps:8e6
          ~prop_delay:(0.002 +. (0.004 *. float_of_int i))
          ~rng:(Rng.split rng)
          ~deliver:(fun pkt ->
            let drop =
              (not (Packet.is_marker pkt)) && Rng.bernoulli rng ~p:loss_p
            in
            if not drop then Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  let tcp_tx = ref None in
  let ack_wire =
    Link.create sim ~rate_bps:1e8 ~prop_delay:0.002
      ~deliver:(fun ack ->
        match !tcp_tx with
        | Some s -> Stripe_transport.Tcp_lite.Sender.on_ack s ack
        | None -> ())
      ()
  in
  let rx =
    Stripe_transport.Tcp_lite.Receiver.create
      ~send_ack:(fun a -> ignore (Link.send ack_wire ~size:40 a))
      ~deliver:(fun ~bytes:_ -> ())
      ()
  in
  tcp_rx := Some rx;
  let seq = ref 0 in
  let tx =
    Stripe_transport.Tcp_lite.Sender.create sim ~window:32768 ~rto:0.1
      ~next_segment_size:(fun () -> 400 + Rng.int rng 1000)
      ~transmit:(fun ~off ~size ->
        let pkt = Packet.data ~seq:!seq ~off ~size () in
        incr seq;
        Striper.push striper pkt)
      ()
  in
  tcp_tx := Some tx;
  Stripe_transport.Tcp_lite.Sender.start tx;
  Sim.run_until sim 1.0;
  Stripe_transport.Tcp_lite.Sender.stop tx;
  Sim.run_until sim 8.0;
  Stripe_transport.Tcp_lite.Sender.shutdown tx;
  Sim.run sim;
  ( Stripe_transport.Tcp_lite.Sender.bytes_acked tx,
    Stripe_transport.Tcp_lite.Receiver.bytes_delivered rx )

let prop_tcp_over_striping_integrity =
  QCheck.Test.make ~name:"tcp over striped lossy channels: stream integrity"
    ~count:15
    QCheck.(pair (int_range 0 100) (float_range 0.0 0.05))
    (fun (seed, loss_p) ->
      let acked, delivered = run_tcp_over_striping ~seed ~loss_p in
      acked = delivered && acked > 0)

(* Soak: a million packets through the full striper -> resequencer loop
   must complete quickly - the per-packet work is constant-time, the
   paper's "few more instructions" claim at scale. *)
let test_soak_million_packets () =
  let engine = Srr.create ~quanta:[| 1500; 1500; 1500; 1500 |] () in
  let delivered = ref 0 in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ _ -> incr delivered)
      ()
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:8 ())
      ~emit:(fun ~channel pkt -> Resequencer.receive reseq ~channel pkt)
      ()
  in
  let t0 = Sys.time () in
  let n = 1_000_000 in
  for seq = 0 to n - 1 do
    Striper.push striper (Packet.data ~seq ~size:(64 + (seq * 37 mod 1400)) ())
  done;
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "all delivered" n !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "1M packets in %.2f s" dt)
    true (dt < 30.0)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_socket_stripe_conservation;
        QCheck_alcotest.to_alcotest prop_recovery_under_burst_loss;
        QCheck_alcotest.to_alcotest prop_tcp_over_striping_integrity;
        Alcotest.test_case "soak: 1M packets" `Slow test_soak_million_packets;
      ] );
  ]
