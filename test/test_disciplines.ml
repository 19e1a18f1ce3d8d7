(* Per-discipline end-to-end coverage (PROTOCOL.md §14): every
   discipline's seeded delivery trace is pinned to the digest the
   binary-heap engine produced, the new disciplines' fairness behavior
   pins to the analytic values, and the engine-less schedulers keep a
   sender and a seed-sharing replica aligned across suspensions and §5
   resets. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool

let n = 3
let rates = [| 10e6; 10e6; 10e6 |]
let delays = [| 0.008; 0.001; 0.004 |]
let seed = 0x5eed
let run_until = 0.4
let max_packet = 1500

(* A miniature of the bench rig: 3 delay-skewed links, the striper over
   the discipline under test, a resequencer for the engine-backed
   disciplines, arrival-order delivery for the engine-less ones, and a
   mid-run carrier failover so the §5 barrier (and, for Sprinklers, the
   permutation reseed) is part of what determinism is asserted over.
   Returns the full delivery trace — time, sequence, channel — plus the
   delivered byte count: "byte-identical" means this whole trace. *)
let run_e2e disc =
  let sim = Sim.create () in
  let trace = ref [] in
  let bytes = ref 0 in
  let la_debt = ref (fun (_ : int) -> 0.0) in
  let scheduler =
    Scheduler.of_discipline disc ~rates_bps:rates ~seed
      ~debt:(fun c -> !la_debt c)
  in
  let engine_opt = Scheduler.deficit scheduler in
  let deliver ~channel (pkt : Packet.t) =
    trace := (Sim.now sim, pkt.Packet.seq, channel) :: !trace;
    bytes := !bytes + pkt.Packet.size
  in
  let reseq =
    match engine_opt with
    | Some e ->
      Some
        (Resequencer.create ~deficit:(Deficit.clone_initial e)
           ~now:(fun () -> Sim.now sim)
           ~deliver ())
    | None -> None
  in
  let ingest c pkt =
    match reseq with
    | Some r -> Resequencer.receive r ~channel:c pkt
    | None -> if not (Packet.is_marker pkt) then deliver ~channel:c pkt
  in
  let master = Rng.create 4242 in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~rate_bps:rates.(i) ~prop_delay:delays.(i) ~rng:(Rng.split master)
          ~deliver:(fun pkt -> ingest i pkt)
          ())
  in
  la_debt := (fun c -> float_of_int (Link.queue_bytes links.(c)));
  let striper =
    Striper.create ~scheduler
      ?marker:
        (match engine_opt with
        | Some _ -> Some (Marker.make ~every_rounds:4 ())
        | None -> None)
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  Sim.schedule sim ~at:0.1 (fun () ->
      Link.set_up links.(2) false;
      Striper.suspend_channel striper 2);
  Sim.schedule sim ~at:0.25 (fun () ->
      Link.set_up links.(2) true;
      Striper.resume_channel striper 2);
  let seq = ref 0 in
  let rec burst () =
    if Sim.now sim < run_until then begin
      for _ = 1 to 6 do
        Striper.push striper
          (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:1000 ());
        incr seq
      done;
      Sim.schedule_after sim ~delay:0.012 burst
    end
  in
  burst ();
  Sim.run sim;
  (List.rev !trace, !bytes)

(* Per discipline: the delivery count, the delivered bytes and the MD5
   of the trace (time in hex, seq and channel, one line per delivery)
   as the binary-heap engine produced them the last time [Sim] could
   run on it. The calendar must reproduce each trace byte for byte. *)
let heap_traces =
  [
    ("srr", (201, "d8fc3b1c1e64c6e852f0b8a127d0a2eb"));
    ("rr", (202, "cf2183d514735c807e91bd31693ae35e"));
    ("grr", (202, "cf2183d514735c807e91bd31693ae35e"));
    ("sprinklers", (198, "d7d9d68a63a6c32462acb43afb10ae22"));
    ("rfq", (202, "ec875c11d5f36f9b40026d22522affbf"));
    ("load-aware", (202, "4376bb09ec9cac96608b91c04c45a37d"));
    ("random", (202, "ec875c11d5f36f9b40026d22522affbf"));
  ]

let test_engines_agree (slug, disc) () =
  let trace, bytes = run_e2e disc in
  let n, digest = List.assoc slug heap_traces in
  let b = Buffer.create 8192 in
  List.iter (fun (t, s, c) -> Printf.bprintf b "%h %d %d\n" t s c) trace;
  Alcotest.(check int) (slug ^ ": delivery count, as on the heap") n
    (List.length trace);
  Alcotest.(check int) (slug ^ ": delivered bytes, as on the heap") (n * 1000)
    bytes;
  Alcotest.(check string)
    (slug ^ ": delivery digest, as on the heap")
    digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_seeded_rerun_identical (slug, disc) () =
  let a, ab = run_e2e disc in
  let b, bb = run_e2e disc in
  Alcotest.(check bool) (slug ^ ": reruns byte-identical") true
    (ab = bb && a = b)

(* Sprinklers fairness pins. The bound is analytic: SRR's
   Max + 2*Quantum over the stripe-scaled quanta, i.e. exactly
   2*(stripe_scale - 1)*Quantum wider than SRR's on the same rates. *)
let test_sprinklers_fairness_bound_pin () =
  let spr =
    Sprinklers.for_rates ~max_packet ~seed ~rates_bps:rates ~quantum_unit:1500
      ()
  in
  let srr = Srr.for_rates ~max_packet ~rates_bps:rates ~quantum_unit:1500 () in
  (* 3 x 10 Mbps, unit 1500: SRR quanta 1500 each; Sprinklers scales by
     default_stripe_scale = 4 -> 6000 each. *)
  Alcotest.(check int) "srr bound = Max + 2*1500" 4500
    (Srr.fairness_bound srr);
  Alcotest.(check int) "sprinklers bound = Max + 2*6000" 13500
    (Sprinklers.fairness_bound spr);
  Alcotest.(check int) "widened by 2*(scale-1)*quantum"
    (Srr.fairness_bound srr + (2 * (Sprinklers.default_stripe_scale - 1) * 1500))
    (Sprinklers.fairness_bound spr)

(* One backlogged dispatch of a [size]-byte packet, as the striper makes
   it. *)
let dispatch sched size =
  let pkt = Packet.data ~seq:0 ~size () in
  let c = Scheduler.choose sched pkt in
  Scheduler.account sched pkt c;
  c

(* And empirical: a backlogged Sprinklers run must keep every channel's
   byte total within the bound of its proportional share, whatever
   orders the permutations deal (Thm 3.2 holds verbatim because every
   round still visits every channel exactly once). *)
let test_sprinklers_fairness_empirical () =
  let spr =
    Sprinklers.for_rates ~max_packet ~seed ~rates_bps:rates ~quantum_unit:1500
      ()
  in
  let bound = Sprinklers.fairness_bound spr in
  let sched = Scheduler.of_deficit ~name:"Sprinklers" spr in
  let rng = Rng.create 99 in
  let per_chan = Array.make n 0 in
  let total = ref 0 in
  for _ = 1 to 3000 do
    let size = 64 + Rng.int rng (max_packet - 63) in
    let c = dispatch sched size in
    per_chan.(c) <- per_chan.(c) + size;
    total := !total + size
  done;
  let share = float_of_int !total /. float_of_int n in
  Array.iteri
    (fun c bytes ->
      let dev = Float.abs (float_of_int bytes -. share) in
      if dev > float_of_int bound then
        Alcotest.failf "channel %d deviates %.0f B > bound %d B" c dev bound)
    per_chan

(* Load-aware fairness pin: with equal weights, pure min-load selection
   keeps the per-channel assigned totals within one maximum packet of
   each other at every prefix (assign-to-argmin can never push the
   chosen channel more than Max past the current minimum). *)
let test_load_aware_spread_pin () =
  let sched = Scheduler.min_load ~n () in
  let rng = Rng.create 7 in
  let per_chan = Array.make n 0 in
  for _ = 1 to 3000 do
    let size = 64 + Rng.int rng (max_packet - 63) in
    let c = dispatch sched size in
    per_chan.(c) <- per_chan.(c) + size;
    let mx = Array.fold_left max per_chan.(0) per_chan in
    let mn = Array.fold_left min per_chan.(0) per_chan in
    if mx - mn > max_packet then
      Alcotest.failf "spread %d B exceeds one max packet" (mx - mn)
  done

(* Selection minimizes debt over weight: equal debt ties to the lowest
   index, and a channel of ten times the capacity carries the same debt
   as the least normalized load. *)
let test_load_aware_weights_steer () =
  let debt = [| 100.0; 100.0; 100.0 |] in
  let pkt = Packet.data ~seq:0 ~born:0.0 ~size:100 () in
  let equal = Scheduler.load_aware ~debt:(fun c -> debt.(c)) ~n () in
  Alcotest.(check bool) "no deficit engine" true
    (Scheduler.deficit equal = None);
  Alcotest.(check int) "tie to channel 0" 0 (Scheduler.choose equal pkt);
  let weighted =
    Scheduler.load_aware ~weights:[| 1.0; 1.0; 10.0 |]
      ~debt:(fun c -> debt.(c))
      ~n ()
  in
  Alcotest.(check int) "weights steer selection" 2
    (Scheduler.choose weighted pkt);
  Alcotest.(check_raises) "width mismatch rejected"
    (Invalid_argument "Scheduler.load_aware: weight vector width mismatch")
    (fun () ->
      ignore
        (Scheduler.load_aware ~weights:[| 1.0 |] ~debt:(fun _ -> 0.0) ~n ()));
  Alcotest.(check_raises) "non-positive weight rejected"
    (Invalid_argument "Scheduler.load_aware: weights must be positive")
    (fun () ->
      ignore
        (Scheduler.load_aware ~weights:[| 1.0; 0.0; 1.0 |]
           ~debt:(fun _ -> 0.0)
           ~n ()))

(* The all-but-one-suspended degenerate membership for the seeded RFQ
   scheduler: a receiver replica that shares the seed and learns the
   suspension set (via the §5 barrier) must keep producing the sender's
   exact choices — including the deterministic remap to the one live
   channel — and stay aligned through resume and reset. *)
let test_rfq_suspension_replay_aligned () =
  let pkt = Packet.data ~seq:0 ~born:0.0 ~size:100 () in
  let mk () = Scheduler.seeded_rfq ~n ~seed:31 in
  let sender = ref (mk ()) and replica = ref (mk ()) in
  let both f = f !sender; f !replica in
  let step label =
    let cs = Scheduler.choose !sender pkt in
    let cr = Scheduler.choose !replica pkt in
    Alcotest.(check int) label cs cr;
    Scheduler.account !sender pkt cs;
    Scheduler.account !replica pkt cr;
    cs
  in
  for _ = 1 to 20 do ignore (step "pre-suspension aligned") done;
  (* All but channel 2 suspended: every choice must remap to 2, on both
     sides, consuming draws in lockstep. *)
  both (fun s -> Scheduler.suspend_channel s 0);
  both (fun s -> Scheduler.suspend_channel s 1);
  for _ = 1 to 20 do
    Alcotest.(check int) "remap to the one live channel" 2
      (step "suspended aligned")
  done;
  both (fun s -> Scheduler.resume_channel s 0);
  both (fun s -> Scheduler.resume_channel s 1);
  for _ = 1 to 20 do ignore (step "post-resume aligned") done;
  (* §5 reset: both sides restart from s0 (a fresh scheduler from the
     same construction), with the suspension set re-learned from the
     barrier. *)
  sender := Scheduler.reset !sender;
  replica := Scheduler.reset !replica;
  both (fun s -> Scheduler.suspend_channel s 1);
  for _ = 1 to 20 do
    let c = step "post-reset aligned" in
    Alcotest.(check bool) "suspended channel never chosen" true (c <> 1)
  done

(* Fleet-level smoke: a Bundle_pool run under each pool discipline
   delivers the traffic through the resequencer (FIFO). *)
let fleet_config discipline =
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta = Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ();
    marker_every = 4;
    guard = false;
    discipline;
  }

let test_fleet_disciplines () =
  List.iter
    (fun disc ->
      let sim = Sim.create () in
      let pool =
        Bundle_pool.create ~stamp_seq:true ~sim
          (fleet_config disc)
      in
      let b0 = Bundle_pool.acquire pool in
      let b1 = Bundle_pool.acquire pool in
      for i = 0 to 199 do
        Bundle_pool.push pool b0 ~size:(200 + (97 * i mod 1300));
        Bundle_pool.push pool b1 ~size:1000
      done;
      Sim.run sim;
      List.iter
        (fun b ->
          Alcotest.(check int) "all pushed packets delivered"
            (Bundle_pool.pushed_packets pool b)
            (Bundle_pool.delivered_packets pool b);
          Alcotest.(check int) "no FIFO violations" 0
            (Bundle_pool.fifo_violations pool b))
        [ b0; b1 ])
    [ Bundle_pool.Sprinklers 0x5eed; Bundle_pool.Srr ]

let suites =
  [
    ( "disciplines",
      List.map
        (fun d ->
          Alcotest.test_case
            (fst d ^ ": heap/calendar byte-identical")
            `Quick (test_engines_agree d))
        Scheduler.disciplines
      @ List.map
          (fun d ->
            Alcotest.test_case
              (fst d ^ ": seeded rerun identical")
              `Quick (test_seeded_rerun_identical d))
          Scheduler.disciplines
      @ [
          Alcotest.test_case "sprinklers fairness bound pin" `Quick
            test_sprinklers_fairness_bound_pin;
          Alcotest.test_case "sprinklers empirical fairness" `Quick
            test_sprinklers_fairness_empirical;
          Alcotest.test_case "load-aware spread pin" `Quick
            test_load_aware_spread_pin;
          Alcotest.test_case "load-aware weights steer" `Quick
            test_load_aware_weights_steer;
          Alcotest.test_case "rfq suspension replay aligned" `Quick
            test_rfq_suspension_replay_aligned;
          Alcotest.test_case "fleet disciplines deliver" `Quick
            test_fleet_disciplines;
        ] );
  ]
