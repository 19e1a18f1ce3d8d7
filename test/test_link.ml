(* Tests for the FIFO link model: serialization timing, FIFO preservation
   under jitter, rate changes, MTU, transmit-queue overflow, and
   counters. *)

open Stripe_netsim

let make_link ?jitter ?rng ?loss ?txq_capacity_bytes ?mtu ~rate_bps ~prop_delay
    () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~name:"test" ~rate_bps ~prop_delay ?jitter ?rng ?loss
      ?txq_capacity_bytes ?mtu
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

let test_mtu_enforcement () =
  let _, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 ~mtu:1500 () in
  Alcotest.check_raises "oversize send raises"
    (Invalid_argument "Link.send: size 1501 exceeds MTU 1500 on test")
    (fun () -> ignore (Link.send link ~size:1501 ()))

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
   arrivals are scheduled must leave every arrival where it was. Both
   event engines must agree on them. *)
let impaired_run engine =
  let sim = Sim.create ~engine () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~name:"pin" ~rate_bps:2e6 ~prop_delay:0.002
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
  List.iter
    (fun engine ->
      let link, n_arrivals, digest = impaired_run engine in
      let check what expected actual =
        Alcotest.(check int) (Sim.engine_name engine ^ ": " ^ what) expected actual
      in
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
        (Sim.engine_name engine ^ ": arrival digest")
        "2a258015362668a29874a492c3234835" digest)
    [ Sim.Heap; Sim.Calendar ]

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

let suites =
  [
    ( "link",
      [
        Alcotest.test_case "serialization timing" `Quick test_serialization_timing;
        Alcotest.test_case "back-to-back" `Quick test_back_to_back_serialization;
        Alcotest.test_case "fifo under jitter" `Quick test_fifo_under_jitter;
        Alcotest.test_case "rate change" `Quick test_rate_change;
        Alcotest.test_case "loss counting" `Quick test_loss_counting;
        Alcotest.test_case "mtu" `Quick test_mtu_enforcement;
        Alcotest.test_case "bad size" `Quick test_bad_size;
        Alcotest.test_case "txq overflow" `Quick test_txq_overflow;
        Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
        Alcotest.test_case "byte counters" `Quick test_byte_counters;
        Alcotest.test_case "invalid create" `Quick test_invalid_create;
        Alcotest.test_case "impaired arrivals pinned" `Quick
          test_impaired_arrivals_pinned;
        Alcotest.test_case "re-entrant deliver keeps fifo" `Quick
          test_reentrant_deliver_fifo;
      ] );
  ]
