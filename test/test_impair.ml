(* Misbehaving channels and their containment:
   - the Impair module's profiles and spec parser;
   - link-level reordering / duplication / corruption semantics;
   - marker integrity (checksum, mangling, validation);
   - the receiver channel guard (dedup, bounded reorder restore,
     corrupt-marker discard with tag consumption, window shedding);
   - the resequencer's byte budget (hard invariant under both overflow
     policies, backpressure hysteresis, never blocks forever);
   - end-to-end rigs: determinism from one seed, Theorem 4.1 under a
     guarded reordering channel, Theorem 5.1 resync after impairments
     stop, and a qcheck sweep over random impairment profiles;
   - a seeded randomized impairment soak (suite "impair-soak", seed from
     STRIPE_IMPAIR_SEED) for the CI impairment matrix. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
module Obs = Stripe_obs

(* ------------------------------------------------------------------ *)
(* Impair module                                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_spec () =
  match Impair.parse_spec "1:reorder=0.2/0.01,dup=0.05,corrupt=0.01" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (ch, imp) ->
    Alcotest.(check int) "channel" 1 ch;
    Alcotest.(check (float 1e-9)) "reorder_p" 0.2 imp.Impair.reorder_p;
    Alcotest.(check (float 1e-9)) "window" 0.01 imp.Impair.reorder_window;
    Alcotest.(check (float 1e-9)) "dup_p" 0.05 imp.Impair.dup_p;
    Alcotest.(check (float 1e-9)) "corrupt_p" 0.01 imp.Impair.corrupt_p

let test_parse_spec_single () =
  match Impair.parse_spec "0:dup=0.5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (ch, imp) ->
    Alcotest.(check int) "channel" 0 ch;
    Alcotest.(check (float 1e-9)) "dup only" 0.5 imp.Impair.dup_p;
    Alcotest.(check bool) "others off" true
      (imp.Impair.reorder_p = 0.0 && imp.Impair.corrupt_p = 0.0)

let test_parse_spec_errors () =
  List.iter
    (fun s ->
      match Impair.parse_spec s with
      | Ok _ -> Alcotest.failf "spec %S should not parse" s
      | Error _ -> ())
    [
      ""; "1"; "x:dup=0.1"; "0:frob=0.1"; "0:dup"; "0:dup=x"; "0:dup=1.5";
      "0:reorder=0.2"; "0:reorder=0.2/0"; "0:reorder=0.2/x";
    ]

let test_make_validates () =
  let expect_invalid f =
    match f () with
    | (_ : Impair.t) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Impair.make ~dup_p:1.5 ());
  expect_invalid (fun () -> Impair.make ~corrupt_p:(-0.1) ());
  expect_invalid (fun () -> Impair.make ~reorder_p:0.2 ());
  Alcotest.(check bool) "none is none" true (Impair.is_none Impair.none);
  Alcotest.(check bool) "make () is none" true (Impair.is_none (Impair.make ()));
  Alcotest.(check bool) "dup profile is not none" false
    (Impair.is_none (Impair.make ~dup_p:0.1 ()))

(* ------------------------------------------------------------------ *)
(* Link-level impairment semantics                                     *)
(* ------------------------------------------------------------------ *)

(* Pace [n] integer payloads through a link and return arrival order. *)
let run_link ?impair ?corrupt ~n () =
  let sim = Sim.create () in
  let arrived = ref [] in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~rng:(Rng.create 5) ?impair ?corrupt
      ~deliver:(fun x -> arrived := x :: !arrived)
      ()
  in
  for i = 0 to n - 1 do
    Sim.schedule sim
      ~at:(0.001 *. float_of_int i)
      (fun () -> ignore (Link.send link ~size:100 i))
  done;
  Sim.run sim;
  (link, List.rev !arrived)

let test_link_duplication () =
  let link, arrived =
    run_link ~impair:(Impair.make ~dup_p:1.0 ()) ~n:5 ()
  in
  Alcotest.(check int) "every packet delivered twice" 10 (List.length arrived);
  Alcotest.(check int) "duplications counted" 5 (Link.duplicated_packets link);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "packet %d twice" i)
        2
        (List.length (List.filter (( = ) i) arrived)))
    [ 0; 1; 2; 3; 4 ]

let test_link_reordering () =
  let link, arrived =
    run_link ~impair:(Impair.make ~reorder_p:0.5 ~reorder_window:0.01 ()) ~n:30 ()
  in
  Alcotest.(check int) "nothing lost or duplicated" 30 (List.length arrived);
  Alcotest.(check bool) "reordered draws counted" true
    (Link.reordered_packets link > 0);
  Alcotest.(check bool) "arrival order differs from send order" true
    (arrived <> List.sort compare arrived)

let test_link_jitter_stays_fifo () =
  (* Control: plain jitter is clamped to FIFO; only the reorder
     impairment may overtake. *)
  let sim = Sim.create () in
  let arrived = ref [] in
  let rng = Rng.create 9 in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~jitter:(fun r -> Rng.float r 0.01)
      ~rng
      ~deliver:(fun x -> arrived := x :: !arrived)
      ()
  in
  for i = 0 to 29 do
    Sim.schedule sim
      ~at:(0.001 *. float_of_int i)
      (fun () -> ignore (Link.send link ~size:100 i))
  done;
  Sim.run sim;
  let arrived = List.rev !arrived in
  Alcotest.(check bool) "jittered arrivals still FIFO" true
    (arrived = List.sort compare arrived)

let test_link_corruption_default_drops () =
  (* No [corrupt] hook: the simulated CRC catches the damage and the
     packet is treated as loss. *)
  let link, arrived = run_link ~impair:(Impair.make ~corrupt_p:1.0 ()) ~n:5 () in
  Alcotest.(check int) "nothing delivered" 0 (List.length arrived);
  Alcotest.(check int) "corruptions counted" 5 (Link.corrupted_packets link);
  Alcotest.(check int) "all dropped as CRC failures" 5 (Link.corrupt_drops link)

let test_link_corruption_hook_mangles () =
  let link, arrived =
    run_link
      ~impair:(Impair.make ~corrupt_p:1.0 ())
      ~corrupt:(fun x -> if x mod 2 = 0 then Some (x + 1000) else None)
      ~n:6 ()
  in
  (* Even payloads slip past the CRC mangled; odd ones are caught. *)
  Alcotest.(check (list int)) "mangled survivors" [ 1000; 1002; 1004 ] arrived;
  Alcotest.(check int) "corruptions counted" 6 (Link.corrupted_packets link);
  Alcotest.(check int) "CRC catches counted" 3 (Link.corrupt_drops link)

let test_link_set_impairments () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~deliver:(fun (_ : int) -> ())
      ()
  in
  Alcotest.(check bool) "default is none" true
    (Impair.is_none (Link.impairments link));
  Link.set_impairments link (Impair.make ~dup_p:0.5 ());
  Alcotest.(check (float 1e-9)) "profile installed" 0.5
    (Link.impairments link).Impair.dup_p;
  Link.set_impairments link Impair.none;
  Alcotest.(check bool) "cleared" true (Impair.is_none (Link.impairments link))

(* ------------------------------------------------------------------ *)
(* Marker integrity                                                    *)
(* ------------------------------------------------------------------ *)

let test_marker_checksum () =
  let pkt = Packet.marker ~channel:1 ~round:7 ~dc:300 ~born:0.0 () in
  Alcotest.(check bool) "constructor-built marker is valid" true
    (Packet.marker_valid pkt);
  match pkt.Packet.kind with
  | Packet.Data -> Alcotest.fail "marker built a data packet"
  | Packet.Marker m ->
    Alcotest.(check bool) "tampered round detected" false
      (Packet.marker_valid
         { pkt with kind = Marker { m with m_round = m.m_round + 1 } });
    Alcotest.(check bool) "tampered dc detected" false
      (Packet.marker_valid
         { pkt with kind = Marker { m with m_dc = m.m_dc + 1 } });
    Alcotest.(check bool) "tampered reset flag detected" false
      (Packet.marker_valid { pkt with kind = Marker { m with m_reset = true } })

let test_mangle_marker () =
  let pkt = Packet.marker ~channel:2 ~round:5 ~dc:100 ~born:0.0 () in
  let mangled = Packet.mangle_marker ~salt:12345 pkt in
  Alcotest.(check bool) "mangled marker fails validation" false
    (Packet.marker_valid mangled);
  (match mangled.Packet.kind with
  | Packet.Marker m ->
    Alcotest.(check int) "channel field untouched" 2 m.m_channel
  | Data -> Alcotest.fail "mangling made a data packet");
  let data = Packet.data ~seq:3 ~size:100 () in
  Alcotest.(check bool) "data passes through unchanged" true
    (Packet.equal data (Packet.mangle_marker ~salt:12345 data));
  (* Deterministic in the salt. *)
  Alcotest.(check bool) "same salt, same damage" true
    (Packet.equal mangled (Packet.mangle_marker ~salt:12345 pkt))

(* ------------------------------------------------------------------ *)
(* Channel guard                                                       *)
(* ------------------------------------------------------------------ *)

let mk_guard ?(n = 2) ?window () =
  let out = ref [] in
  let g =
    Channel_guard.create ~n ?window
      ~deliver:(fun ~channel pkt -> out := (channel, pkt.Packet.seq) :: !out)
      ()
  in
  (g, fun () -> List.rev !out)

let rx g ~tag seq =
  Channel_guard.receive g ~channel:0 ~tag (Packet.data ~seq ~size:100 ())

let test_guard_in_order_passthrough () =
  let g, out = mk_guard () in
  List.iter (fun t -> rx g ~tag:t t) [ 0; 1; 2; 3 ];
  Alcotest.(check (list (pair int int))) "forwarded in order"
    [ (0, 0); (0, 1); (0, 2); (0, 3) ]
    (out ());
  Alcotest.(check int) "forwarded" 4 (Channel_guard.forwarded g);
  Alcotest.(check int) "no restores" 0 (Channel_guard.reorder_restores g);
  Alcotest.(check int) "nothing held" 0 (Channel_guard.held_packets g)

let test_guard_restores_reordering () =
  let g, out = mk_guard () in
  List.iter (fun t -> rx g ~tag:t t) [ 0; 2; 3; 1; 4 ];
  Alcotest.(check (list (pair int int))) "released in tag order"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    (out ());
  Alcotest.(check int) "two held packets restored" 2
    (Channel_guard.reorder_restores g);
  Alcotest.(check int) "high water" 2 (Channel_guard.max_held_packets g)

let test_guard_discards_duplicates () =
  let g, out = mk_guard () in
  List.iter (fun t -> rx g ~tag:t t) [ 0; 1; 1; 0; 2 ];
  Alcotest.(check (list (pair int int))) "each tag delivered once"
    [ (0, 0); (0, 1); (0, 2) ]
    (out ());
  Alcotest.(check int) "duplicates discarded" 2 (Channel_guard.dup_discards g);
  (* A duplicate of a packet still held is also caught. *)
  rx g ~tag:5 5;
  rx g ~tag:5 5;
  Alcotest.(check int) "held duplicate discarded" 3
    (Channel_guard.dup_discards g)

let test_guard_channels_independent () =
  let g, out = mk_guard ~n:2 () in
  Channel_guard.receive g ~channel:1 ~tag:0 (Packet.data ~seq:100 ~size:10 ());
  rx g ~tag:0 0;
  Channel_guard.receive g ~channel:1 ~tag:1 (Packet.data ~seq:101 ~size:10 ());
  Alcotest.(check (list (pair int int))) "tags are per channel"
    [ (1, 100); (0, 0); (1, 101) ]
    (out ())

let test_guard_corrupt_marker_consumes_tag () =
  let g, out = mk_guard () in
  let bad =
    Packet.mangle_marker ~salt:99
      (Packet.marker ~channel:0 ~round:1 ~dc:50 ~born:0.0 ())
  in
  rx g ~tag:0 0;
  Channel_guard.receive g ~channel:0 ~tag:1 bad;
  rx g ~tag:2 2;
  (* The bad marker is gone but its tag was consumed: tag 2 is next in
     line and flows without waiting for a gap that will never fill. *)
  Alcotest.(check (list (pair int int))) "stream advances past the discard"
    [ (0, 0); (0, 2) ]
    (out ());
  Alcotest.(check int) "corrupt discard counted" 1
    (Channel_guard.corrupt_discards g);
  (* Out-of-order corrupt marker: consumed as a held gap entry. *)
  Channel_guard.receive g ~channel:0 ~tag:4 bad;
  rx g ~tag:3 3;
  rx g ~tag:5 5;
  Alcotest.(check (list (pair int int))) "held discard releases the line"
    [ (0, 0); (0, 2); (0, 3); (0, 5) ]
    (out ())

let test_guard_valid_marker_passes () =
  let g, out = mk_guard () in
  let ok = Packet.marker ~channel:0 ~round:1 ~dc:50 ~born:0.0 () in
  rx g ~tag:0 0;
  Channel_guard.receive g ~channel:0 ~tag:1 ok;
  Alcotest.(check int) "marker forwarded" 2 (Channel_guard.forwarded g);
  Alcotest.(check (list (pair int int))) "marker kept its FIFO slot"
    [ (0, 0); (0, -1) ]
    (out ())

let test_guard_window_shed () =
  let g, out = mk_guard ~window:2 () in
  rx g ~tag:0 0;
  (* Tag 1 lost. Held grows past the window: gap declared lost. *)
  List.iter (fun t -> rx g ~tag:t t) [ 2; 3; 4 ];
  Alcotest.(check (list (pair int int))) "shed releases in tag order"
    [ (0, 0); (0, 2); (0, 3); (0, 4) ]
    (out ());
  Alcotest.(check int) "nothing held after shed" 0
    (Channel_guard.held_packets g);
  (* A straggler for the abandoned gap must not be delivered late. *)
  rx g ~tag:1 1;
  Alcotest.(check int) "straggler discarded" 1 (Channel_guard.dup_discards g);
  Alcotest.(check bool) "straggler not delivered" true
    (List.for_all (fun (_, s) -> s <> 1) (out ()))

let test_guard_flush () =
  let g, out = mk_guard ~window:16 () in
  rx g ~tag:0 0;
  rx g ~tag:2 2;
  rx g ~tag:3 3;
  Alcotest.(check int) "held while the gap is open" 2
    (Channel_guard.held_packets g);
  Channel_guard.flush g;
  Alcotest.(check (list (pair int int))) "flush releases in tag order"
    [ (0, 0); (0, 2); (0, 3) ]
    (out ());
  Alcotest.(check int) "nothing held" 0 (Channel_guard.held_packets g)

let test_guard_tx_tags () =
  let tx = Channel_guard.Tx.create ~n:2 in
  Alcotest.(check (list int)) "sequential per channel" [ 0; 1; 2 ]
    (List.map (fun _ -> Channel_guard.Tx.next_tag tx ~channel:0) [ (); (); () ]);
  Alcotest.(check int) "channels independent" 0
    (Channel_guard.Tx.next_tag tx ~channel:1);
  Channel_guard.Tx.reset tx;
  Alcotest.(check int) "reset restarts at 0" 0
    (Channel_guard.Tx.next_tag tx ~channel:0)

(* ------------------------------------------------------------------ *)
(* Resequencer byte budget                                             *)
(* ------------------------------------------------------------------ *)

let mk_reseq ?budget ?overflow ?on_pressure () =
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let delivered = ref [] in
  let r =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ?budget_bytes:budget ?overflow ?on_pressure
      ~deliver:(fun ~channel:_ pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  (r, fun () -> List.rev !delivered)

let feed r ~channel ~seq ~size =
  Resequencer.receive r ~channel (Packet.data ~seq ~size ())

let test_budget_drop_newest () =
  let r, out = mk_reseq ~budget:2500 ~overflow:Resequencer.Drop_newest () in
  (* The receiver blocks on channel 0; channel-1 arrivals buffer until
     the budget refuses them. *)
  for i = 0 to 4 do
    feed r ~channel:1 ~seq:i ~size:1000
  done;
  Alcotest.(check int) "buffered stops at the budget" 2000
    (Resequencer.buffered_bytes r);
  Alcotest.(check int) "overflows counted" 3 (Resequencer.overflows r);
  Alcotest.(check int) "drop-newest refuses each overflow" 3
    (Resequencer.overflow_drops r);
  Alcotest.(check bool) "budget is a hard ceiling" true
    (Resequencer.max_buffered_bytes r <= 2500);
  (* The budget is global, so even an arrival on the blocked channel is
     refused — drop-newest wedges here and relies on the marker
     machinery to recover the stream position. *)
  feed r ~channel:0 ~seq:10 ~size:1000;
  Alcotest.(check int) "blocked-channel arrival refused too" 4
    (Resequencer.overflow_drops r);
  Alcotest.(check int) "nothing delivered yet" 0 (Resequencer.delivered r);
  (* The next marker on channel 0 stamps its lost data's (round, DC):
     ahead of the receiver's round, so the scan skips channel 0 and the
     buffered channel-1 data drains — the wedge clears. *)
  Resequencer.receive r ~channel:0
    (Packet.marker ~channel:0 ~round:2 ~dc:1500 ~born:0.0 ());
  Alcotest.(check (list int)) "marker recovered the buffered data" [ 0; 1 ]
    (out ());
  Alcotest.(check int) "buffers drained" 0 (Resequencer.buffered_bytes r);
  Alcotest.(check bool) "still under budget" true
    (Resequencer.max_buffered_bytes r <= 2500)

let test_budget_force_flush_makes_room () =
  let r, _ = mk_reseq ~budget:2500 ~overflow:Resequencer.Force_flush () in
  for i = 0 to 5 do
    feed r ~channel:1 ~seq:i ~size:1000
  done;
  (* Rather than refuse fresh data, the scan was forced through the
     blocked channel and drained old data quasi-FIFO. *)
  Alcotest.(check bool) "budget never exceeded" true
    (Resequencer.max_buffered_bytes r <= 2500);
  Alcotest.(check int) "no packets refused" 0 (Resequencer.overflow_drops r);
  Alcotest.(check bool) "overflow episodes recorded" true
    (Resequencer.overflows r >= 1);
  Alcotest.(check int) "everything accepted was delivered or buffered" 6
    (Resequencer.delivered r + Resequencer.pending r)

let test_budget_force_flush_oversized_packet () =
  let r, _ = mk_reseq ~budget:2500 ~overflow:Resequencer.Force_flush () in
  feed r ~channel:1 ~seq:0 ~size:4000;
  (* Bigger than the whole budget: nothing to evict can make it fit. *)
  Alcotest.(check int) "oversized packet refused" 1
    (Resequencer.overflow_drops r);
  Alcotest.(check int) "nothing buffered" 0 (Resequencer.buffered_bytes r)

let test_budget_markers_always_accepted () =
  let r, _ = mk_reseq ~budget:1000 ~overflow:Resequencer.Drop_newest () in
  feed r ~channel:1 ~seq:0 ~size:600;
  feed r ~channel:1 ~seq:1 ~size:600;
  Alcotest.(check int) "data refused at the budget" 1 (Resequencer.overflows r);
  (* The marker arrives with the budget effectively full: accepted
     anyway — it is tiny and carries the resynchronization state. *)
  Resequencer.receive r ~channel:1
    (Packet.marker ~channel:1 ~round:0 ~dc:1500 ~born:0.0 ());
  Alcotest.(check int) "no overflow charged for the marker" 1
    (Resequencer.overflows r);
  (* Drive the scan through channel 0 until its quantum is exhausted and
     the buffered channel-1 stream (data, then marker) is absorbed. *)
  for i = 10 to 24 do
    feed r ~channel:0 ~seq:i ~size:100
  done;
  Alcotest.(check int) "buffered marker reached and applied" 1
    (Resequencer.markers_seen r)

let test_budget_pressure_hysteresis () =
  let transitions = ref [] in
  let r, _ =
    mk_reseq ~budget:4000
      ~on_pressure:(fun ~high -> transitions := high :: !transitions)
      ()
  in
  for i = 0 to 3 do
    feed r ~channel:1 ~seq:i ~size:1000
  done;
  Alcotest.(check (list bool)) "high fired once past 3/4" [ true ] !transitions;
  Alcotest.(check bool) "pressure visible" true (Resequencer.pressure_high r);
  ignore (Resequencer.drain r);
  Alcotest.(check (list bool)) "cleared once below 1/2" [ false; true ]
    !transitions;
  Alcotest.(check bool) "signal lowered" false (Resequencer.pressure_high r)

let test_corrupt_marker_discarded_by_resequencer () =
  let r, _ = mk_reseq () in
  let bad =
    Packet.mangle_marker ~salt:7
      (Packet.marker ~channel:1 ~round:3 ~dc:200 ~born:0.0 ())
  in
  Resequencer.receive r ~channel:1 bad;
  Alcotest.(check int) "discarded, not applied" 0 (Resequencer.markers_seen r);
  Alcotest.(check int) "counted" 1 (Resequencer.corrupt_marker_discards r)

(* ------------------------------------------------------------------ *)
(* End-to-end rigs                                                     *)
(* ------------------------------------------------------------------ *)

(* A 3-channel SRR bundle with markers, a paced source, impaired links
   (profile applied to every channel until [impair_stop]), optional
   channel guard, and a budgeted resequencer; everything seeds from
   [seed] alone. *)
type rig = {
  sim : Sim.t;
  striper : Striper.t;
  reseq : Resequencer.t;
  guard : Channel_guard.t option;
  collector : Obs.Sink.t;
  pushed : int ref;
}

let rig_budget = 32 * 1024

let make_rig ?(seed = 11) ?(guarded = true) ?(window = 48)
    ?(overflow = Resequencer.Drop_newest) ?impair_stop ~impair () =
  let n = 3 in
  let sim = Sim.create () in
  let master = Rng.create seed in
  let collector = Obs.Sink.collector () in
  let engine = Srr.create ~quanta:(Array.make n 1500) () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ~sink:collector ~budget_bytes:rig_budget ~overflow
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  let guard =
    if guarded then
      Some
        (Channel_guard.create ~n ~window
           ~now:(fun () -> Sim.now sim)
           ~sink:collector
           ~deliver:(fun ~channel pkt -> Resequencer.receive reseq ~channel pkt)
           ())
    else None
  in
  let mangle_rng = Rng.split master in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~rate_bps:10e6 ~prop_delay:0.002
          ~rng:(Rng.split master)
          ~impair
          ~corrupt:(fun (tag, pkt) ->
            if Packet.is_marker pkt then
              Some
                (tag, Packet.mangle_marker ~salt:(Rng.int mangle_rng 0x3fffffff) pkt)
            else None)
          ~deliver:(fun (tag, pkt) ->
            match guard with
            | Some g -> Channel_guard.receive g ~channel:i ~tag pkt
            | None -> Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let tx = Channel_guard.Tx.create ~n in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        let tag =
          if guarded then Channel_guard.Tx.next_tag tx ~channel else -1
        in
        ignore (Link.send links.(channel) ~size:pkt.Packet.size (tag, pkt)))
      ()
  in
  (match impair_stop with
  | Some at ->
    Sim.schedule sim ~at (fun () ->
        Array.iter (fun l -> Link.set_impairments l Impair.none) links)
  | None -> ());
  { sim; striper; reseq; guard; collector; pushed = ref 0 }

let drive rig ~until_ =
  let rng = Rng.create 7 in
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  let rec tick () =
    if Sim.now rig.sim < until_ then begin
      for _ = 1 to 2 do
        Striper.push rig.striper
          (Packet.data ~seq:!(rig.pushed) ~born:(Sim.now rig.sim)
             ~size:(gen ()) ());
        incr rig.pushed
      done;
      Sim.schedule_after rig.sim ~delay:0.0006 tick
    end
  in
  tick ()

let full_impair =
  Impair.make ~reorder_p:0.15 ~reorder_window:0.005 ~dup_p:0.05 ~corrupt_p:0.02
    ()

let test_e2e_deterministic () =
  let trace () =
    let rig = make_rig ~seed:21 ~impair_stop:0.3 ~impair:full_impair () in
    drive rig ~until_:0.5;
    Sim.run rig.sim;
    Obs.Sink.events rig.collector
  in
  let t1 = trace () and t2 = trace () in
  Alcotest.(check bool) "a run produces events" true (List.length t1 > 100);
  Alcotest.(check bool) "identical seed, identical trace" true (t1 = t2)

let test_e2e_guard_restores_fifo () =
  (* Reordering and duplication but no loss: the guard fills every gap
     eventually, so delivery is FIFO end to end (Theorem 4.1 holds even
     though the channels broke its hypothesis). *)
  let impair = Impair.make ~reorder_p:0.15 ~reorder_window:0.005 ~dup_p:0.05 () in
  let rig = make_rig ~seed:31 ~impair () in
  drive rig ~until_:0.5;
  Sim.run rig.sim;
  let events = Obs.Sink.events rig.collector in
  Alcotest.(check (list (pair int int))) "no FIFO violations" []
    (Obs.Check.fifo_violations events);
  Alcotest.(check bool) "impairments actually bit" true
    (Obs.Check.count Obs.Event.Reorder_restore events > 0
    && Obs.Check.count Obs.Event.Dup_discard events > 0);
  Alcotest.(check bool) "everything pushed was delivered" true
    (Resequencer.delivered rig.reseq = !(rig.pushed))

let test_e2e_unguarded_reordering_violates_fifo () =
  (* Control: the same profile without the guard misorders delivery. *)
  let impair = Impair.make ~reorder_p:0.15 ~reorder_window:0.005 ~dup_p:0.05 () in
  let rig = make_rig ~seed:31 ~guarded:false ~impair () in
  drive rig ~until_:0.5;
  Sim.run rig.sim;
  Alcotest.(check bool) "FIFO violated without the guard" true
    (Obs.Check.fifo_violations (Obs.Sink.events rig.collector) <> [])

let test_e2e_resync_after_impairments_stop () =
  (* Corruption drops data (CRC) and mangles markers: real loss. Once
     the impairments stop, markers restore FIFO within a marker interval
     — Theorem 5.1, checked on the trace. *)
  let rig = make_rig ~seed:41 ~impair_stop:0.5 ~impair:full_impair () in
  drive rig ~until_:0.9;
  Sim.run rig.sim;
  let events = Obs.Sink.events rig.collector in
  Alcotest.(check bool) "substantial delivery" true
    (float_of_int (Resequencer.delivered rig.reseq)
    > 0.5 *. float_of_int !(rig.pushed));
  Alcotest.(check bool) "FIFO restored after impairments stop" true
    (Obs.Check.fifo_from ~time:0.75 events);
  Alcotest.(check bool) "budget held throughout" true
    (Resequencer.max_buffered_bytes rig.reseq <= rig_budget);
  Alcotest.(check bool) "receiver not wedged" true
    (Resequencer.blocked_on rig.reseq = None || Resequencer.pending rig.reseq = 0)

(* Random impairment profiles: whatever the channels do, the budget
   holds, the run terminates, and FIFO returns after they stop. *)
let prop_impair_containment =
  QCheck.Test.make ~name:"random impairments: bounded memory + resync"
    ~count:8
    QCheck.(
      quad (int_range 0 1000) (float_range 0.0 0.25) (float_range 0.0 0.1)
        (float_range 0.0 0.04))
    (fun (seed, reorder_p, dup_p, corrupt_p) ->
      let impair =
        Impair.make ~reorder_p ~reorder_window:0.005 ~dup_p ~corrupt_p ()
      in
      let overflow =
        if seed mod 2 = 0 then Resequencer.Drop_newest
        else Resequencer.Force_flush
      in
      let rig = make_rig ~seed ~overflow ~impair_stop:0.5 ~impair () in
      drive rig ~until_:0.9;
      Sim.run rig.sim;
      Resequencer.max_buffered_bytes rig.reseq <= rig_budget
      && Resequencer.delivered rig.reseq > 0
      && Obs.Check.fifo_from ~time:0.75 (Obs.Sink.events rig.collector))

(* ------------------------------------------------------------------ *)
(* Randomized impairment soak (CI matrix reads STRIPE_IMPAIR_SEED)      *)
(* ------------------------------------------------------------------ *)

let soak_seed () =
  match Sys.getenv_opt "STRIPE_IMPAIR_SEED" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> Alcotest.failf "bad STRIPE_IMPAIR_SEED %S" s)
  | None -> 1

let test_impair_soak () =
  let seed = soak_seed () in
  let r = Rng.create seed in
  let impair =
    Impair.make ~reorder_p:(Rng.float r 0.3) ~reorder_window:0.008
      ~dup_p:(Rng.float r 0.1) ~corrupt_p:(Rng.float r 0.05) ()
  in
  let overflow =
    if Rng.bool r then Resequencer.Drop_newest else Resequencer.Force_flush
  in
  let stop = 1.0 in
  let rig = make_rig ~seed ~overflow ~impair_stop:stop ~impair () in
  drive rig ~until_:(stop +. 0.5);
  Sim.run rig.sim;
  (match rig.guard with Some g -> Channel_guard.flush g | None -> ());
  let delivered = Resequencer.delivered rig.reseq in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: substantial delivery (%d of %d)" seed delivered
       !(rig.pushed))
    true
    (float_of_int delivered > 0.5 *. float_of_int !(rig.pushed));
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: budget held (%d <= %d)" seed
       (Resequencer.max_buffered_bytes rig.reseq)
       rig_budget)
    true
    (Resequencer.max_buffered_bytes rig.reseq <= rig_budget);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: FIFO restored after impairments stopped" seed)
    true
    (Obs.Check.fifo_from
       ~time:(stop +. 0.3)
       (Obs.Sink.events rig.collector));
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: receiver not wedged" seed)
    true
    (Resequencer.blocked_on rig.reseq = None
    || Resequencer.pending rig.reseq = 0)

(* External input raises nothing: any string, and any small edit of a
   valid spec, parses to [Ok] or [Error]. *)
let prop_parse_spec_total =
  Spec_fuzz.total ~name:"impair: parse_spec never raises"
    ~valid:"1:reorder=0.2/0.01,dup=0.05,corrupt=0.01"
    (fun s -> ignore (Impair.parse_spec s))

let suites =
  [
    ( "impair",
      [
        Alcotest.test_case "parse combined spec" `Quick test_parse_spec;
        Alcotest.test_case "parse single impairment" `Quick
          test_parse_spec_single;
        Alcotest.test_case "parse spec errors" `Quick test_parse_spec_errors;
        QCheck_alcotest.to_alcotest prop_parse_spec_total;
        Alcotest.test_case "make validates" `Quick test_make_validates;
      ] );
    ( "link-impair",
      [
        Alcotest.test_case "duplication delivers twice" `Quick
          test_link_duplication;
        Alcotest.test_case "reordering overtakes" `Quick test_link_reordering;
        Alcotest.test_case "jitter stays FIFO" `Quick
          test_link_jitter_stays_fifo;
        Alcotest.test_case "corruption drops by default" `Quick
          test_link_corruption_default_drops;
        Alcotest.test_case "corruption hook mangles" `Quick
          test_link_corruption_hook_mangles;
        Alcotest.test_case "set/clear impairments" `Quick
          test_link_set_impairments;
      ] );
    ( "marker-integrity",
      [
        Alcotest.test_case "checksum detects tampering" `Quick
          test_marker_checksum;
        Alcotest.test_case "mangle invalidates markers only" `Quick
          test_mangle_marker;
      ] );
    ( "guard",
      [
        Alcotest.test_case "in-order passthrough" `Quick
          test_guard_in_order_passthrough;
        Alcotest.test_case "restores reordering" `Quick
          test_guard_restores_reordering;
        Alcotest.test_case "discards duplicates" `Quick
          test_guard_discards_duplicates;
        Alcotest.test_case "channels independent" `Quick
          test_guard_channels_independent;
        Alcotest.test_case "corrupt marker consumes its tag" `Quick
          test_guard_corrupt_marker_consumes_tag;
        Alcotest.test_case "valid marker passes" `Quick
          test_guard_valid_marker_passes;
        Alcotest.test_case "window shed declares the gap lost" `Quick
          test_guard_window_shed;
        Alcotest.test_case "flush releases everything" `Quick test_guard_flush;
        Alcotest.test_case "tx tag stamper" `Quick test_guard_tx_tags;
      ] );
    ( "rx-budget",
      [
        Alcotest.test_case "drop-newest hard ceiling" `Quick
          test_budget_drop_newest;
        Alcotest.test_case "force-flush makes room" `Quick
          test_budget_force_flush_makes_room;
        Alcotest.test_case "force-flush oversized packet" `Quick
          test_budget_force_flush_oversized_packet;
        Alcotest.test_case "markers always accepted" `Quick
          test_budget_markers_always_accepted;
        Alcotest.test_case "backpressure hysteresis" `Quick
          test_budget_pressure_hysteresis;
        Alcotest.test_case "corrupt marker discarded" `Quick
          test_corrupt_marker_discarded_by_resequencer;
      ] );
    ( "impair-e2e",
      [
        Alcotest.test_case "deterministic from one seed" `Quick
          test_e2e_deterministic;
        Alcotest.test_case "guard restores FIFO (thm 4.1)" `Quick
          test_e2e_guard_restores_fifo;
        Alcotest.test_case "control: unguarded violates FIFO" `Quick
          test_e2e_unguarded_reordering_violates_fifo;
        Alcotest.test_case "resync after impairments stop (thm 5.1)" `Quick
          test_e2e_resync_after_impairments_stop;
        QCheck_alcotest.to_alcotest prop_impair_containment;
      ] );
    ( "impair-soak",
      [ Alcotest.test_case "randomized impairment soak" `Slow test_impair_soak ] );
  ]
