(* Tests for the skew-compensation baseline and the full-duplex session
   with credits piggybacked on markers. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
open Stripe_transport

(* --- Skew compensation ------------------------------------------------ *)

let skew_rig sim ~skews ~jitter ~deliver =
  let comp = Skew_comp.create sim ~skews ~deliver () in
  let rng = Rng.create 31 in
  let links =
    Array.mapi
      (fun i skew ->
        Link.create sim
          ~rate_bps:10e6 ~prop_delay:skew
          ?jitter:(if jitter > 0.0 then Some (fun r -> Rng.float r jitter) else None)
          ~rng:(Rng.split rng)
          ~deliver:(fun pkt -> Skew_comp.receive comp ~channel:i pkt)
          ())
      skews
  in
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  (comp, striper)

(* Send paced fixed-size packets so serialization does not reorder. *)
let drive sim striper ~n =
  let seq = ref 0 in
  let rec tick () =
    if !seq < n then begin
      Striper.push striper (Packet.data ~seq:!seq ~size:1000 ());
      incr seq;
      Sim.schedule_after sim ~delay:0.001 tick
    end
  in
  tick ()

let test_skew_comp_constant_skews () =
  let sim = Sim.create () in
  let out = ref [] in
  let comp, striper =
    skew_rig sim ~skews:[| 0.002; 0.030 |] ~jitter:0.0
      ~deliver:(fun pkt -> out := pkt.Packet.seq :: !out)
  in
  Alcotest.(check (float 1e-9)) "slow channel gets no extra delay" 0.0
    (Skew_comp.compensation comp 1);
  Alcotest.(check (float 1e-9)) "fast channel equalized" 0.028
    (Skew_comp.compensation comp 0);
  drive sim striper ~n:200;
  Sim.run sim;
  Alcotest.(check (list int)) "bounded constant skew -> FIFO"
    (List.init 200 Fun.id) (List.rev !out)

let test_skew_comp_breaks_under_jitter () =
  let sim = Sim.create () in
  let late = ref 0 in
  let max_seen = ref (-1) in
  let _, striper =
    skew_rig sim ~skews:[| 0.002; 0.030 |] ~jitter:0.040
      ~deliver:(fun pkt ->
        if pkt.Packet.seq < !max_seen then incr late;
        if pkt.Packet.seq > !max_seen then max_seen := pkt.Packet.seq)
  in
  drive sim striper ~n:400;
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "unbounded jitter leaks %d misorders" !late)
    true (!late > 0)

let test_logical_reception_same_jitter_is_fifo () =
  (* The same jittery channels, resequenced by logical reception: FIFO.
     This is the §2 argument for not depending on skew bounds. *)
  let sim = Sim.create () in
  let rng = Rng.create 31 in
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let out = ref [] in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~deliver:(fun ~channel:_ pkt -> out := pkt.Packet.seq :: !out)
      ()
  in
  let links =
    Array.mapi
      (fun i skew ->
        Link.create sim
          ~rate_bps:10e6 ~prop_delay:skew
          ~jitter:(fun r -> Rng.float r 0.040)
          ~rng:(Rng.split rng)
          ~deliver:(fun pkt -> Resequencer.receive reseq ~channel:i pkt)
          ())
      [| 0.002; 0.030 |]
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  drive sim striper ~n:400;
  Sim.run sim;
  Alcotest.(check (list int)) "logical reception unaffected by jitter"
    (List.init 400 Fun.id) (List.rev !out)

let test_skew_comp_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "no channels"
    (Invalid_argument "Skew_comp.create: no channels") (fun () ->
      ignore (Skew_comp.create sim ~skews:[||] ~deliver:ignore ()))

(* --- Duplex session with piggybacked credits -------------------------- *)

let duplex_rig sim ?(buffer = 16) () =
  let channels =
    [|
      Socket_stripe.spec ~rate_bps:4e6 ~prop_delay:0.004 ();
      Socket_stripe.spec ~rate_bps:2e6 ~prop_delay:0.010 ();
    |]
  in
  let got_a = ref [] and got_b = ref [] in
  let d =
    Duplex.create sim ~channels ~quanta:[| 1200; 1200 |] ~buffer
      ~deliver_to_a:(fun pkt -> got_a := pkt.Packet.seq :: !got_a)
      ~deliver_to_b:(fun pkt -> got_b := pkt.Packet.seq :: !got_b)
      ()
  in
  (d, got_a, got_b)

let test_duplex_both_directions_fifo () =
  let sim = Sim.create () in
  let d, got_a, got_b = duplex_rig sim () in
  for seq = 0 to 499 do
    Sim.schedule sim ~at:(float_of_int seq *. 0.002) (fun () ->
        Duplex.send_from_a d (Packet.data ~seq ~size:800 ());
        Duplex.send_from_b d (Packet.data ~seq:(10_000 + seq) ~size:500 ()))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "A->B stream FIFO and complete"
    (List.init 500 Fun.id) (List.rev !got_b);
  Alcotest.(check (list int)) "B->A stream FIFO and complete"
    (List.init 500 (fun i -> 10_000 + i))
    (List.rev !got_a)

let test_duplex_credits_prevent_overrun () =
  let sim = Sim.create () in
  let d, _, got_b = duplex_rig sim ~buffer:8 () in
  (* Blast A->B at 4x the bundle capacity; B sends a trickle so periodic
     B->A markers exist to carry credits. *)
  for seq = 0 to 1999 do
    Sim.schedule sim ~at:(float_of_int seq *. 0.0002) (fun () ->
        Duplex.send_from_a d (Packet.data ~seq ~size:1000 ()))
  done;
  for seq = 0 to 99 do
    Sim.schedule sim ~at:(float_of_int seq *. 0.01) (fun () ->
        Duplex.send_from_b d (Packet.data ~seq:(50_000 + seq) ~size:200 ()))
  done;
  Sim.run sim;
  let sa = Duplex.stats_a d and sb = Duplex.stats_b d in
  Alcotest.(check int) "no congestion drops at B" 0 sb.Duplex.congestion_drops;
  Alcotest.(check int) "everything delivered to B" 2000 (List.length !got_b);
  Alcotest.(check bool) "A was back-pressured" true (sa.Duplex.stalls > 0);
  Alcotest.(check bool) "credits rode markers" true (sb.Duplex.markers > 0)

let test_duplex_idle_reverse_direction () =
  (* B never sends data: standalone credit markers must keep A flowing
     anyway. *)
  let sim = Sim.create () in
  let d, _, got_b = duplex_rig sim ~buffer:8 () in
  for seq = 0 to 999 do
    Sim.schedule sim ~at:(float_of_int seq *. 0.0004) (fun () ->
        Duplex.send_from_a d (Packet.data ~seq ~size:1000 ()))
  done;
  Sim.run sim;
  let sb = Duplex.stats_b d in
  Alcotest.(check int) "complete despite idle reverse path" 1000
    (List.length !got_b);
  Alcotest.(check int) "still no drops" 0 sb.Duplex.congestion_drops;
  Alcotest.(check (list int)) "and in order" (List.init 1000 Fun.id)
    (List.rev !got_b)

let prop_duplex_lossy_channels_no_stall =
  QCheck.Test.make
    ~name:
      "duplex: lossy channels (markers included) never stall the sender or \
       overrun buffers"
    ~count:15
    QCheck.(pair (int_range 0 200) (float_range 0.0 0.1))
    (fun (seed, loss_p) ->
      let sim = Sim.create () in
      (* Loss applies to everything on the wire, credit markers
         included: the periodic re-advertisement must keep the sender
         from deadlocking on lost credits. *)
      let channels =
        [|
          Socket_stripe.spec ~rate_bps:4e6 ~prop_delay:0.003
            ~loss:(fun () -> Stripe_netsim.Loss.bernoulli ~p:loss_p)
            ();
          Socket_stripe.spec ~rate_bps:2e6 ~prop_delay:0.008
            ~loss:(fun () -> Stripe_netsim.Loss.bernoulli ~p:loss_p)
            ();
        |]
      in
      ignore seed;
      let delivered = ref 0 in
      let d =
        Duplex.create sim ~channels ~quanta:[| 1200; 1200 |] ~buffer:12
          ~deliver_to_a:(fun _ -> ())
          ~deliver_to_b:(fun _ -> incr delivered)
          ()
      in
      let n = 400 in
      for seq = 0 to n - 1 do
        Sim.schedule sim ~at:(float_of_int seq *. 0.002) (fun () ->
            Duplex.send_from_a d (Packet.data ~seq ~size:1000 ()))
      done;
      Sim.run sim;
      let sa = Duplex.stats_a d and sb = Duplex.stats_b d in
      (* No deadlock: the queue drains and everything is transmitted.
         Loss presumptions may overrun the peer by a handful of packets
         at most; with no loss the run must be perfect. *)
      sa.Duplex.app_queue = 0
      && sa.Duplex.sent = n
      && sb.Duplex.congestion_drops <= 4
      && (loss_p > 0.0 || (!delivered = n && sb.Duplex.congestion_drops = 0))
      && !delivered >= (n * 6) / 10)

let test_duplex_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "bad buffer"
    (Invalid_argument "Duplex.create: buffer must be positive") (fun () ->
      ignore
        (Duplex.create sim
           ~channels:[| Socket_stripe.spec ~rate_bps:1e6 () |]
           ~quanta:[| 1000 |] ~buffer:0 ~deliver_to_a:ignore
           ~deliver_to_b:ignore ()))

let suites =
  [
    ( "skew_comp",
      [
        Alcotest.test_case "constant skews" `Quick test_skew_comp_constant_skews;
        Alcotest.test_case "breaks under jitter" `Quick
          test_skew_comp_breaks_under_jitter;
        Alcotest.test_case "logical reception under jitter" `Quick
          test_logical_reception_same_jitter_is_fifo;
        Alcotest.test_case "validation" `Quick test_skew_comp_validation;
      ] );
    ( "duplex",
      [
        Alcotest.test_case "both directions fifo" `Quick
          test_duplex_both_directions_fifo;
        Alcotest.test_case "credits prevent overrun" `Quick
          test_duplex_credits_prevent_overrun;
        Alcotest.test_case "idle reverse direction" `Quick
          test_duplex_idle_reverse_direction;
        Alcotest.test_case "validation" `Quick test_duplex_validation;
        QCheck_alcotest.to_alcotest prop_duplex_lossy_channels_no_stall;
      ] );
  ]
