(* B2: microbenchmarks of per-packet protocol costs with Bechamel. The
   paper argues SRR "requires only a few more instructions than the
   normal amount of processing needed to send a packet" and that the
   marker protocol "only involves keeping a counter and sending a
   marker" - these timings quantify that claim on today's hardware. *)

open Bechamel
open Toolkit

let deficit_bench name make =
  Test.make ~name
    (Staged.stage (fun () ->
         let d = make () in
         for _ = 1 to 256 do
           ignore (Stripe_core.Deficit.select d);
           Stripe_core.Deficit.consume d ~size:700
         done))

(* Round trip through striper + resequencer, parameterized on the
   observability sink: the null-sink run must cost the same as the
   unobserved baseline (call sites skip event construction entirely when
   the sink is inactive), while the counters run prices full telemetry. *)
let round_trip_bench ~name ~sink =
  Test.make ~name
    (Staged.stage (fun () ->
         let engine = Stripe_core.Srr.create ~quanta:[| 1500; 1500; 1500 |] () in
         let sink = sink () in
         let reseq =
           Stripe_core.Resequencer.create
             ~deficit:(Stripe_core.Deficit.clone_initial engine)
             ~sink
             ~deliver:(fun ~channel:_ _ -> ())
             ()
         in
         let striper =
           Stripe_core.Striper.create
             ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
             ~sink
             ~emit:(fun ~channel pkt ->
               Stripe_core.Resequencer.receive reseq ~channel pkt)
             ()
         in
         for seq = 0 to 255 do
           Stripe_core.Striper.push striper
             (Stripe_packet.Packet.data ~seq ~size:700 ())
         done))

let striper_resequencer_bench =
  round_trip_bench ~name:"striper+resequencer round trip, null sink (256 pkts)"
    ~sink:(fun () -> Stripe_obs.Sink.null)

let counters_sink_bench =
  round_trip_bench ~name:"round trip, counters sink (256 pkts)" ~sink:(fun () ->
      Stripe_obs.Counters.sink (Stripe_obs.Counters.create ~n:3))

let marker_bench =
  Test.make ~name:"marker emission + processing (256 pkts, every round)"
    (Staged.stage (fun () ->
         let engine = Stripe_core.Srr.create ~quanta:[| 1500; 1500 |] () in
         let reseq =
           Stripe_core.Resequencer.create
             ~deficit:(Stripe_core.Deficit.clone_initial engine)
             ~deliver:(fun ~channel:_ _ -> ())
             ()
         in
         let striper =
           Stripe_core.Striper.create
             ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
             ~marker:(Stripe_core.Marker.make ~every_rounds:1 ())
             ~emit:(fun ~channel pkt ->
               Stripe_core.Resequencer.receive reseq ~channel pkt)
             ()
         in
         for seq = 0 to 255 do
           Stripe_core.Striper.push striper
             (Stripe_packet.Packet.data ~seq ~size:700 ())
         done))

let seq_resequencer_bench =
  Test.make ~name:"seq-mode round trip, fast path (256 pkts)"
    (Staged.stage (fun () ->
         let engine = Stripe_core.Srr.create ~quanta:[| 1500; 1500 |] () in
         let reseq =
           Stripe_core.Seq_resequencer.create
             ~deficit:(Stripe_core.Deficit.clone_initial engine)
             ~n_channels:2
             ~deliver:(fun _ -> ())
             ()
         in
         let striper =
           Stripe_core.Striper.create
             ~scheduler:(Stripe_core.Scheduler.of_deficit ~name:"SRR" engine)
             ~emit:(fun ~channel pkt ->
               Stripe_core.Seq_resequencer.receive reseq ~channel pkt)
             ()
         in
         for seq = 0 to 255 do
           Stripe_core.Striper.push striper
             (Stripe_packet.Packet.data ~seq ~size:700 ())
         done))

let mppp_bench =
  Test.make ~name:"MPPP fragment+reassemble (256 pkts)"
    (Staged.stage (fun () ->
         let receiver = ref None in
         let sender =
           Stripe_core.Mppp.Sender.create
             ~scheduler:(Stripe_core.Scheduler.srr ~quanta:[| 1500; 1500 |] ())
             ~emit:(fun ~link f ->
               match !receiver with
               | Some r -> Stripe_core.Mppp.Receiver.receive r ~link f
               | None -> ())
             ()
         in
         receiver :=
           Some (Stripe_core.Mppp.Receiver.create ~n_links:2 ~deliver:(fun _ -> ()) ());
         for seq = 0 to 255 do
           Stripe_core.Mppp.Sender.push sender
             (Stripe_packet.Packet.data ~seq ~size:700 ())
         done))

let fragmenter_bench =
  Test.make ~name:"minipacket fragment+reassemble (256 pkts)"
    (Staged.stage (fun () ->
         let reasm = ref None in
         let sender =
           Stripe_core.Fragmenter.Sender.create ~shares:[| 1.0; 1.0 |]
             ~emit:(fun ~channel f ->
               match !reasm with
               | Some r -> Stripe_core.Fragmenter.Reassembler.receive r ~channel f
               | None -> ())
             ()
         in
         reasm :=
           Some
             (Stripe_core.Fragmenter.Reassembler.create ~n_channels:2
                ~deliver:(fun _ -> ())
                ());
         for seq = 0 to 255 do
           Stripe_core.Fragmenter.Sender.push sender
             (Stripe_packet.Packet.data ~seq ~size:700 ())
         done))

(* The fleet-churn event population is bimodal: a dense cluster of wire
   events within ~10 ms of now plus sparse bundle-lifetime timers
   seconds out. A span-derived calendar bucket width degenerates on this
   shape — the far timers stretch the span, the whole dense cluster
   lands in one bucket, and every insert pays a cluster-sized memmove —
   which is exactly the regression the quantile-derived width fixes.
   Each fired event reschedules itself with a fresh bimodal delay, so a
   steady ~4k-event population churns through schedule/pop pairs. *)
let calendar_churn_bench =
  Test.make ~name:"event queue, bimodal churn population: calendar (20k ev)"
    (Staged.stage (fun () ->
         let sim = Stripe_netsim.Sim.create () in
         let rng = Stripe_netsim.Rng.create 9 in
         let bimodal_delay () =
           if Stripe_netsim.Rng.bernoulli rng ~p:0.9 then
             Stripe_netsim.Rng.exponential rng ~mean:0.01
           else Stripe_netsim.Rng.uniform rng ~lo:1.0 ~hi:5.0
         in
         let ops = ref 16_384 in
         let rec fire () =
           if !ops > 0 then begin
             decr ops;
             Stripe_netsim.Sim.schedule_after sim ~delay:(bimodal_delay ()) fire
           end
         in
         for _ = 1 to 4096 do
           Stripe_netsim.Sim.schedule_after sim ~delay:(bimodal_delay ()) fire
         done;
         Stripe_netsim.Sim.run sim))

(* The go-back-N sender's outstanding set is a FIFO queue: appends at
   fill and prefix pops at each cumulative ACK are O(1), where the old
   list representation paid O(window) per segment. This prices the
   steady-state churn — a full window acknowledged one segment at a
   time. *)
let tcp_window_bench =
  Test.make ~name:"tcp_lite window churn, 64-seg window (256 acks)"
    (Staged.stage (fun () ->
         let sim = Stripe_netsim.Sim.create () in
         let tx =
           Stripe_transport.Tcp_lite.Sender.create sim ~window:64000
             ~next_segment_size:(fun () -> 1000)
             ~transmit:(fun ~off:_ ~size:_ -> ())
             ()
         in
         Stripe_transport.Tcp_lite.Sender.start tx;
         for k = 1 to 256 do
           Stripe_transport.Tcp_lite.Sender.on_ack tx (k * 1000)
         done;
         Stripe_transport.Tcp_lite.Sender.shutdown tx))

let tests =
  Test.make_grouped ~name:"per-packet costs"
    [
      deficit_bench "SRR select+consume x256" (fun () ->
          Stripe_core.Srr.create ~quanta:[| 1500; 1500; 1500; 1500 |] ());
      deficit_bench "RR select+consume x256" (fun () ->
          Stripe_core.Rr.create ~n:4 ());
      deficit_bench "GRR select+consume x256" (fun () ->
          Stripe_core.Grr.create ~ratios:[| 2; 1; 3; 1 |] ());
      striper_resequencer_bench;
      counters_sink_bench;
      marker_bench;
      seq_resequencer_bench;
      mppp_bench;
      fragmenter_bench;
      calendar_churn_bench;
      tcp_window_bench;
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let run () =
  Exp_common.section "B2 - per-packet scheduler cost microbenchmarks (Bechamel)";
  let results = benchmark () in
  Hashtbl.iter
    (fun measure_name result_by_test ->
      if measure_name = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun test_name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Printf.printf "  %-55s %10.1f ns/run (%.2f ns/pkt)\n" test_name est
                (est /. 256.0)
            | Some _ | None ->
              Printf.printf "  %-55s (no estimate)\n" test_name)
          result_by_test)
    results;
  print_newline ();
  print_endline
    "The SRR decision is tens of nanoseconds per packet - 'a few more";
  print_endline "instructions' over plain round robin, as the paper claims.\n"
