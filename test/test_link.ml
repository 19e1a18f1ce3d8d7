(* Tests for the FIFO link model: serialization timing, FIFO preservation
   under jitter, rate changes, transmit-queue overflow, counters, and
   the one pending landing event. *)

open Stripe_netsim

let make_link ?jitter ?rng ?loss ?txq_capacity_bytes ~rate_bps ~prop_delay () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~rate_bps ~prop_delay ?jitter ?rng ?loss ?txq_capacity_bytes
      ~deliver:(fun v -> arrivals := (Sim.now sim, v) :: !arrivals)
      ()
  in
  (sim, link, fun () -> List.rev !arrivals)

let test_serialization_timing () =
  (* 1000 bytes at 8 Mbps = 1 ms serialization; +2 ms propagation. *)
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.002 () in
  ignore (Link.send link ~size:1000 "p1");
  Sim.run sim;
  match arrivals () with
  | [ (t, "p1") ] -> Alcotest.(check (float 1e-9)) "arrival at 3 ms" 0.003 t
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_back_to_back_serialization () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:1000 1);
  ignore (Link.send link ~size:1000 2);
  Sim.run sim;
  match arrivals () with
  | [ (t1, 1); (t2, 2) ] ->
    Alcotest.(check (float 1e-9)) "first at 1 ms" 0.001 t1;
    Alcotest.(check (float 1e-9)) "second serialized after first" 0.002 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_fifo_under_jitter () =
  let rng = Rng.create 42 in
  let sim, link, arrivals =
    make_link ~rate_bps:1e6 ~prop_delay:0.001
      ~jitter:(fun r -> Rng.float r 0.050)
      ~rng ()
  in
  for i = 1 to 200 do
    ignore (Link.send link ~size:100 i)
  done;
  Sim.run sim;
  let vals = List.map snd (arrivals ()) in
  Alcotest.(check (list int)) "jitter never reorders a FIFO channel"
    (List.init 200 (fun i -> i + 1))
    vals;
  let times = List.map fst (arrivals ()) in
  let monotone = List.for_all2 (fun a b -> a <= b) times (List.tl times @ [ infinity ]) in
  Alcotest.(check bool) "arrival times non-decreasing" true monotone

let test_rate_change () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:1000 1);
  Sim.run sim;
  Link.set_rate_bps link 16e6;
  ignore (Link.send link ~size:1000 2);
  Sim.run sim;
  match arrivals () with
  | [ (t1, 1); (t2, 2) ] ->
    Alcotest.(check (float 1e-9)) "slow rate" 0.001 t1;
    Alcotest.(check (float 1e-9)) "fast rate" 0.0015 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_loss_counting () =
  let rng = Rng.create 9 in
  let sim, link, arrivals =
    make_link ~rate_bps:1e9 ~prop_delay:0.0 ~loss:(Loss.bernoulli ~p:0.5) ~rng ()
  in
  for i = 1 to 1000 do
    ignore (Link.send link ~size:100 i)
  done;
  Sim.run sim;
  let delivered = List.length (arrivals ()) in
  Alcotest.(check int) "sent counter" 1000 (Link.sent_packets link);
  Alcotest.(check int) "lost + delivered = sent" 1000
    (Link.lost_packets link + Link.delivered_packets link);
  Alcotest.(check int) "delivered counter matches callback" delivered
    (Link.delivered_packets link);
  Alcotest.(check bool) "roughly half lost" true
    (Link.lost_packets link > 400 && Link.lost_packets link < 600)

let test_bad_size () =
  let _, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  Alcotest.check_raises "zero size raises"
    (Invalid_argument "Link.send: size must be positive") (fun () ->
      ignore (Link.send link ~size:0 ()))

let test_txq_overflow () =
  let sim, link, arrivals =
    make_link ~rate_bps:1e6 ~prop_delay:0.0 ~txq_capacity_bytes:1000 ()
  in
  (* First packet starts serializing immediately (leaves the queue);
     then 1000 bytes of queue fill; the next is dropped. *)
  let results = List.init 4 (fun i -> Link.send link ~size:500 i) in
  Alcotest.(check (list bool)) "fourth packet tail-dropped"
    [ true; true; true; false ] results;
  Alcotest.(check int) "drop counted" 1 (Link.txq_drops link);
  Sim.run sim;
  Alcotest.(check int) "three delivered" 3 (List.length (arrivals ()))

let test_queue_accounting () =
  let sim, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:500 1);
  ignore (Link.send link ~size:300 2);
  ignore (Link.send link ~size:200 3);
  (* Packet 1 is being serialized; 2 and 3 wait in the queue. *)
  Alcotest.(check int) "queued bytes" 500 (Link.queue_bytes link);
  Alcotest.(check int) "queued packets" 2 (Link.queue_packets link);
  Alcotest.(check bool) "busy while serializing" true (Link.busy link);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Link.queue_bytes link);
  Alcotest.(check bool) "idle after drain" false (Link.busy link)

let test_byte_counters () =
  let sim, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:700 1);
  ignore (Link.send link ~size:300 2);
  Sim.run sim;
  Alcotest.(check int) "sent bytes" 1000 (Link.sent_bytes link);
  Alcotest.(check int) "delivered bytes" 1000 (Link.delivered_bytes link)

let test_invalid_create () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Link.create: rate_bps must be > 0") (fun () ->
      ignore
        (Link.create sim ~rate_bps:0.0 ~prop_delay:0.0 ~deliver:ignore ()));
  (* NaN fails every comparison, so each guard must be a negated
     [>]/[>=]. *)
  Alcotest.check_raises "NaN rate rejected"
    (Invalid_argument "Link.create: rate_bps must be > 0") (fun () ->
      ignore
        (Link.create sim ~rate_bps:Float.nan ~prop_delay:0.0 ~deliver:ignore ()));
  Alcotest.check_raises "NaN prop_delay rejected"
    (Invalid_argument "Link.create: prop_delay must be >= 0") (fun () ->
      ignore
        (Link.create sim ~rate_bps:1e6 ~prop_delay:Float.nan ~deliver:ignore ()));
  let link = Link.create sim ~rate_bps:1e6 ~prop_delay:0.0 ~deliver:ignore () in
  Alcotest.check_raises "NaN rate change rejected"
    (Invalid_argument "Link.set_rate_bps: rate must be > 0") (fun () ->
      Link.set_rate_bps link Float.nan);
  Alcotest.(check (float 0.0)) "rate unchanged" 1e6 (Link.rate_bps link)

(* Everything that perturbs the arrival path at once — jitter, Bernoulli
   loss, reordering, duplication, corruption (some copies caught by the
   CRC, some delivered mangled), and a carrier flap with packets queued
   and in flight — on an overloaded link. The counters and the digest of
   the (arrival time, payload) sequence are pinned: a change to how
   arrivals are scheduled must leave every arrival where it was. *)
let impaired_run () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~rate_bps:2e6 ~prop_delay:0.002
      ~jitter:(fun r -> Rng.float r 0.003)
      ~rng:(Rng.create 2024) ~loss:(Loss.bernoulli ~p:0.05)
      ~impair:
        (Impair.make ~reorder_p:0.1 ~reorder_window:0.01 ~dup_p:0.05
           ~corrupt_p:0.05 ())
      ~corrupt:(fun v -> if v mod 2 = 0 then Some (v + 100_000) else None)
      ~deliver:(fun v -> arrivals := (Sim.now sim, v) :: !arrivals)
      ()
  in
  let n = 400 in
  let rec tick i () =
    ignore (Link.send link ~size:(100 + (i mod 7 * 50)) i);
    if i + 1 < n then Sim.schedule_after sim ~delay:0.0005 (tick (i + 1))
  in
  Sim.schedule sim ~at:0.0 (tick 0);
  Sim.schedule sim ~at:0.05 (fun () -> Link.set_up link false);
  Sim.schedule sim ~at:0.056 (fun () -> Link.set_up link true);
  Sim.run sim;
  let b = Buffer.create 8192 in
  List.iter (fun (t, v) -> Printf.bprintf b "%h %d\n" t v) (List.rev !arrivals);
  (link, List.length !arrivals, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_impaired_arrivals_pinned () =
  let link, n_arrivals, digest = impaired_run () in
  let check = Alcotest.(check int) in
  check "arrivals" 321 n_arrivals;
  check "sent" 339 (Link.sent_packets link);
  check "delivered" 321 (Link.delivered_packets link);
  check "lost" 14 (Link.lost_packets link);
  check "down drops" 66 (Link.down_drops link);
  check "txq drops" 0 (Link.txq_drops link);
  check "reordered" 34 (Link.reordered_packets link);
  check "duplicated" 12 (Link.duplicated_packets link);
  check "corrupted" 18 (Link.corrupted_packets link);
  check "crc drops" 11 (Link.corrupt_drops link);
  Alcotest.(check string)
    "arrival digest" "2a258015362668a29874a492c3234835" digest

(* A [deliver] that sends on its own link again runs while the link is
   inside its arrival event: the arrival must already be off the
   in-flight ring, and everything must still come out in send order. *)
let test_reentrant_deliver_fifo () =
  let sim = Sim.create () in
  let sent = ref [] and arrived = ref [] in
  let link = ref None in
  let send v =
    sent := v :: !sent;
    ignore (Link.send (Option.get !link) ~size:(200 + (v mod 5 * 100)) v)
  in
  link :=
    Some
      (Link.create sim ~rate_bps:1e6 ~prop_delay:0.004
         ~jitter:(fun r -> Rng.float r 0.002)
         ~rng:(Rng.create 5)
         ~deliver:(fun v ->
           arrived := v :: !arrived;
           if v < 1000 then send (v + 1000))
         ());
  for v = 1 to 60 do
    send v
  done;
  Sim.run sim;
  Alcotest.(check int) "every packet and its echo arrived" 120
    (List.length !arrived);
  Alcotest.(check (list int)) "arrival order is send order" (List.rev !sent)
    (List.rev !arrived)

(* The closed-form wire: a link with no jitter, impairment or sink
   lands each packet in the event that decides it, one event per
   packet. *)
let test_one_event_per_packet () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.002 () in
  for i = 1 to 50 do
    ignore (Link.send link ~size:(100 + (i mod 4 * 300)) i)
  done;
  Sim.run sim;
  (* A second burst onto an idle link. *)
  for i = 51 to 80 do
    ignore (Link.send link ~size:500 i)
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 80 (List.length (arrivals ()));
  Alcotest.(check int) "one event per packet" 80 (Sim.events sim)

(* A FIFO wire has one next arrival, so a backlogged link holds one
   pending event, at its head's landing, and a watched link one more,
   at the [fin] of the packet serializing; neither a rate change nor a
   cable pull mid-queue schedules another. 1000 packets of 100 B at
   1 Mbps take 0.8 ms each. *)
let test_one_pending_event () =
  List.iter
    (fun (sink, expected) ->
      let sim = Sim.create () in
      let arrived = ref 0 in
      let link =
        Link.create sim ~rate_bps:1e6 ~prop_delay:0.001 ~sink
          ~deliver:(fun (_ : int) -> incr arrived)
          ()
      in
      let check what = Alcotest.(check int) what expected (Sim.pending sim) in
      for i = 1 to 1000 do
        ignore (Link.send link ~size:100 i)
      done;
      check "backlogged";
      Sim.run_until sim 0.1005;
      Link.set_rate_bps link 2e6;
      check "after a rate change mid-queue";
      Sim.run_until sim 0.2005;
      Link.set_up link false;
      check "after a cable pull";
      Sim.run sim;
      Alcotest.(check int) "drained" 0 (Sim.pending sim);
      Alcotest.(check int) "delivered counter" !arrived
        (Link.delivered_packets link);
      Alcotest.(check int) "every packet delivered or downed" 1000
        (!arrived + Link.down_drops link))
    [ (Stripe_obs.Sink.null, 1); (Stripe_obs.Sink.collector (), 2) ]

(* A rate change with one packet serializing and two queued: the packet
   on the wire keeps its departure, each queued one starts when its
   predecessor ends, at the new rate. By hand, 1000 B packets, 1 ms
   propagation: at 8 Mbps each takes 1 ms, at 16 Mbps 0.5 ms and at
   4 Mbps 2 ms, so the change at 0.5 ms moves the second and third
   arrivals from 3 and 4 ms to 2.5 and 3 ms (16 Mbps) or to 4 and 6 ms
   (4 Mbps). *)
let test_rate_change_mid_queue () =
  List.iter
    (fun (rate, expected) ->
      let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.001 () in
      for i = 1 to 3 do
        ignore (Link.send link ~size:1000 i)
      done;
      Sim.schedule sim ~at:0.0005 (fun () ->
          Link.set_rate_bps link rate;
          Alcotest.(check bool) "still serializing" true (Link.busy link);
          Alcotest.(check int) "two queued" 2 (Link.queue_packets link);
          Alcotest.(check int) "queued bytes" 2000 (Link.queue_bytes link));
      Sim.run sim;
      let got = arrivals () in
      Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.map snd got);
      List.iter2
        (fun e (t, i) ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "rate %g: packet %d arrival" rate i)
            e t)
        expected got;
      Alcotest.(check int) "sent" 3 (Link.sent_packets link))
    [ (16e6, [ 0.002; 0.0025; 0.003 ]); (4e6, [ 0.002; 0.004; 0.006 ]) ]

(* A loss process swapped in and out while packets wait: each packet
   meets the process in force when its serialization ends. 1000 B at
   8 Mbps end at 1, 2, 3 and 4 ms; drop-all is in force from 2.5 to
   3.5 ms, so only the third is lost, though all four are on the ring
   when the swaps happen (10 ms propagation). *)
let test_loss_change_mid_queue () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.010 () in
  for i = 1 to 4 do
    ignore (Link.send link ~size:1000 i)
  done;
  Sim.schedule sim ~at:0.0025 (fun () ->
      Link.set_loss link (Loss.deterministic_every 1));
  Sim.schedule sim ~at:0.0035 (fun () ->
      Alcotest.(check int) "lost by 3.5 ms" 1 (Link.lost_packets link);
      Link.set_loss link (Loss.none ()));
  Sim.run sim;
  let got = arrivals () in
  Alcotest.(check (list int)) "third lost" [ 1; 2; 4 ] (List.map snd got);
  List.iter2
    (fun e (t, _) -> Alcotest.(check (float 1e-12)) "arrival" e t)
    [ 0.011; 0.012; 0.014 ] got;
  Alcotest.(check int) "sent" 4 (Link.sent_packets link);
  Alcotest.(check int) "lost" 1 (Link.lost_packets link)

(* A watched link reports [Dequeue] and [Drop] when serialization
   starts and ends, not when the packet would land, in time order, also
   across a rate change. Six 1000 B packets at 8 Mbps, 16 Mbps from
   0.5 ms: serializations end at 1, 1.5, 2, 2.5, 3 and 3.5 ms; every
   second packet is lost; the rest land 10 ms after they end. *)
let test_sink_event_times () =
  let sim = Sim.create () in
  let sink = Stripe_obs.Sink.collector () in
  let link =
    Link.create sim ~rate_bps:8e6 ~prop_delay:0.010
      ~loss:(Loss.deterministic_every 2) ~sink ~deliver:ignore ()
  in
  for i = 1 to 6 do
    ignore (Link.send link ~size:1000 i)
  done;
  Sim.schedule sim ~at:0.0005 (fun () -> Link.set_rate_bps link 16e6);
  Sim.run sim;
  let open Stripe_obs.Event in
  let expected =
    [
      (Dequeue, 0.0); (Dequeue, 0.001); (Drop, 0.0015); (Dequeue, 0.0015);
      (Dequeue, 0.002); (Drop, 0.0025); (Dequeue, 0.0025); (Dequeue, 0.003);
      (Drop, 0.0035); (Arrival, 0.011); (Arrival, 0.012); (Arrival, 0.013);
    ]
  in
  let got = Stripe_obs.Sink.events sink in
  Alcotest.(check int) "event count" (List.length expected) (List.length got);
  List.iter2
    (fun (kind, time) (e : Stripe_obs.Event.t) ->
      Alcotest.(check string) "kind" (kind_name kind) (kind_name e.kind);
      Alcotest.(check (float 1e-12)) (kind_name kind ^ " time") time e.time)
    expected got

(* Table 1's address-hashing setup: 2 x 8 Mbps, 1 and 20 ms, alternating
   large and small packets hashed to a channel, everything sent at t = 0,
   so arrivals on the two links share instants. A sink observes; it must
   not move a delivery, not even within an instant. *)
let hashed_run sink =
  let sim = Sim.create () in
  let got = ref [] in
  let links =
    Array.init 2 (fun i ->
        Link.create sim ~rate_bps:8e6
          ~prop_delay:(if i = 0 then 0.001 else 0.020)
          ~rng:(Rng.create (1000 + i))
          ~loss:(if i = 1 then Loss.bernoulli ~p:0.005 else Loss.none ())
          ~channel:i ~sink
          ~deliver:(fun seq -> got := (Sim.now sim, i, seq) :: !got)
          ())
  in
  for seq = 0 to 3999 do
    let size =
      if seq mod 2 = 0 then Stripe_packet.Sizes.large_packet
      else Stripe_packet.Sizes.small_packet
    in
    ignore (Link.send links.(Hashtbl.hash (seq mod 3) mod 2) ~size seq)
  done;
  Sim.run sim;
  List.rev !got

let test_sink_keeps_deliveries () =
  let plain = hashed_run Stripe_obs.Sink.null in
  let sink = Stripe_obs.Sink.collector () in
  let watched = hashed_run sink in
  let rec shared_instants = function
    | (t1, c1, _) :: ((t2, c2, _) :: _ as rest) ->
      (if t1 = t2 && c1 <> c2 then 1 else 0) + shared_instants rest
    | [ _ ] | [] -> 0
  in
  Alcotest.(check bool) "arrivals share instants across links" true
    (shared_instants plain > 0);
  Alcotest.(check bool) "the sink saw the run" true
    (List.length (Stripe_obs.Sink.events sink) > List.length plain);
  Alcotest.(check bool) "same deliveries, same order" true (plain = watched)

let suites =
  [
    ( "link",
      [
        Alcotest.test_case "serialization timing" `Quick test_serialization_timing;
        Alcotest.test_case "back-to-back" `Quick test_back_to_back_serialization;
        Alcotest.test_case "fifo under jitter" `Quick test_fifo_under_jitter;
        Alcotest.test_case "rate change" `Quick test_rate_change;
        Alcotest.test_case "loss counting" `Quick test_loss_counting;
        Alcotest.test_case "bad size" `Quick test_bad_size;
        Alcotest.test_case "txq overflow" `Quick test_txq_overflow;
        Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
        Alcotest.test_case "byte counters" `Quick test_byte_counters;
        Alcotest.test_case "invalid create" `Quick test_invalid_create;
        Alcotest.test_case "impaired arrivals pinned" `Quick
          test_impaired_arrivals_pinned;
        Alcotest.test_case "re-entrant deliver keeps fifo" `Quick
          test_reentrant_deliver_fifo;
        Alcotest.test_case "one event per packet" `Quick
          test_one_event_per_packet;
        Alcotest.test_case "one pending event per link" `Quick
          test_one_pending_event;
        Alcotest.test_case "rate change mid-queue" `Quick
          test_rate_change_mid_queue;
        Alcotest.test_case "loss change mid-queue" `Quick
          test_loss_change_mid_queue;
        Alcotest.test_case "sink event times" `Quick test_sink_event_times;
        Alcotest.test_case "sink keeps deliveries" `Quick
          test_sink_keeps_deliveries;
      ] );
  ]
