(* Impairment containment experiment: a 3 x 10 Mbps SRR bundle (markers
   every 4 rounds, ~80% offered load) where channel 1 violates the
   loss-only FIFO assumption — intra-channel reordering, duplication,
   wire corruption that mangles markers past the link CRC — in
   escalating combinations. Impairments stop at 1.5 s of a 2.0 s run so
   resynchronization (Theorem 5.1) can be measured.

   Each profile runs twice: with the resequencer exposed directly to the
   misbehaving channel, and with the channel guard in front (sequence
   tags: duplicate discard + bounded reorder restore + marker-checksum
   verification). Both receivers run under a finite byte budget, so the
   table also shows that memory stays bounded (peak <= budget) whatever
   the channel does.

   The whole scenario runs in virtual time on seeded randomness, so the
   containment metrics are deterministic — which makes them a CI gate:

     dune exec bench/exp_impair.exe --                  # table
     dune exec bench/exp_impair.exe -- --json FILE      # machine output
     dune exec bench/exp_impair.exe -- --check FILE [--max-regress F]
       # exit 1 if delivery drops, resync regresses more than F
       # (default 0.05) against FILE's committed numbers, or any run's
       # peak buffering exceeds the byte budget *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let impair_stop = 1.5
let run_until = 2.0
let budget = 64 * 1024
let guard_window = 48

type rig = {
  sim : Sim.t;
  striper : Striper.t;
  reseq : Resequencer.t;
  guard : Channel_guard.t option;
  recovery : Stripe_metrics.Recovery.t;
  reorder : Reorder.t;
}

let make_rig ~impair ~guarded () =
  let sim = Sim.create () in
  let master = Rng.create 4242 in
  let recovery = Stripe_metrics.Recovery.create () in
  let reorder = Reorder.create () in
  let engine = Srr.create ~quanta:(Array.make n 1500) () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ~budget_bytes:budget ~overflow:Resequencer.Drop_newest
      ~deliver:(fun ~channel:_ pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq;
        Reorder.observe reorder ~seq:pkt.Packet.seq)
      ()
  in
  let guard =
    if guarded then
      Some
        (Channel_guard.create ~n ~window:guard_window
           ~now:(fun () -> Sim.now sim)
           ~deliver:(fun ~channel pkt -> Resequencer.receive reseq ~channel pkt)
           ())
    else None
  in
  let mangle_rng = Rng.split master in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:10e6
          ~prop_delay:(0.002 +. (0.001 *. float_of_int i))
          ~rng:(Rng.split master)
          ~impair:(if i = 1 then impair else Impair.none)
          ~corrupt:(fun (tag, pkt) ->
            (* Only marker damage slips past the simulated CRC; corrupted
               data is dropped like loss. *)
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
  let tx_tags = Channel_guard.Tx.create ~n in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        let tag =
          if guarded then Channel_guard.Tx.next_tag tx_tags ~channel else -1
        in
        ignore (Link.send links.(channel) ~size:pkt.Packet.size (tag, pkt)))
      ()
  in
  Sim.schedule sim ~at:impair_stop (fun () ->
      Array.iter (fun l -> Link.set_impairments l Impair.none) links);
  { sim; striper; reseq; guard; recovery; reorder }

(* Paced bimodal source at ~80% of the aggregate. *)
let drive rig =
  let rng = Rng.create 77 in
  let gen =
    Stripe_workload.Genpkt.bimodal ~rng ~small:Sizes.small_packet
      ~large:Sizes.large_packet ()
  in
  let seq = ref 0 in
  let rec tick () =
    if Sim.now rig.sim < run_until then begin
      for _ = 1 to 2 do
        Striper.push rig.striper
          (Packet.data ~seq:!seq ~born:(Sim.now rig.sim) ~size:(gen ()) ());
        incr seq
      done;
      Sim.schedule_after rig.sim ~delay:0.0006 tick
    end
  in
  tick ();
  fun () -> !seq

let profiles =
  [
    ("clean", "clean", Impair.none);
    ("reorder", "reorder", Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ());
    ( "reorder_dup",
      "reorder+dup",
      Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ~dup_p:0.05 () );
    ( "reorder_dup_corrupt",
      "reorder+dup+corrupt",
      Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ~dup_p:0.05
        ~corrupt_p:0.02 () );
  ]

type result = {
  slug : string;  (* profile slug + "_raw" | "_guard" *)
  label : string;
  guarded : bool;
  delivered : int;
  rate : float;  (* delivered / offered; duplicates can push it past 1 *)
  ooo : int;
  dup_disc : int;
  crpt_disc : int;
  overflows : int;
  peak_buf : int;
  resync_ms : float;  (* negative = FIFO never restored *)
}

let run_config (profile_slug, label, impair) guarded =
  let rig = make_rig ~impair ~guarded () in
  let offered = drive rig in
  Sim.run rig.sim;
  (match rig.guard with Some g -> Channel_guard.flush g | None -> ());
  let offered = offered () in
  let delivered = Stripe_metrics.Recovery.deliveries rig.recovery in
  let resync_ms =
    match
      Stripe_metrics.Recovery.resync_time rig.recovery ~errors_stop:impair_stop
    with
    | Some dt -> 1000.0 *. dt
    | None -> -1.0
  in
  let dup_disc, crpt_disc =
    match rig.guard with
    | Some g ->
      ( Channel_guard.dup_discards g,
        Channel_guard.corrupt_discards g
        + Resequencer.corrupt_marker_discards rig.reseq )
    | None -> (0, Resequencer.corrupt_marker_discards rig.reseq)
  in
  {
    slug = profile_slug ^ if guarded then "_guard" else "_raw";
    label;
    guarded;
    delivered;
    rate = float_of_int delivered /. float_of_int offered;
    ooo = Reorder.out_of_order rig.reorder;
    dup_disc;
    crpt_disc;
    overflows = Resequencer.overflows rig.reseq;
    peak_buf = Resequencer.max_buffered_bytes rig.reseq;
    resync_ms;
  }

let fmt_ms v = if v < 0.0 then "never" else Printf.sprintf "%.1f" v

let print_table results =
  let tbl =
    Stripe_metrics.Table.create ~title:"Impairment containment"
      ~columns:
        [
          "impairment"; "guard"; "delivered"; "rate"; "ooo"; "dup disc";
          "crpt disc"; "ovfl"; "peak buf"; "resync (ms)";
        ]
  in
  List.iter
    (fun r ->
      Stripe_metrics.Table.add_row tbl
        [
          r.label;
          (if r.guarded then "yes" else "no");
          string_of_int r.delivered;
          Printf.sprintf "%.1f%%" (100.0 *. r.rate);
          string_of_int r.ooo;
          string_of_int r.dup_disc;
          string_of_int r.crpt_disc;
          string_of_int r.overflows;
          Printf.sprintf "%dB" r.peak_buf;
          fmt_ms r.resync_ms;
        ])
    results;
  Stripe_metrics.Table.print tbl;
  print_endline
    "The guard turns a lying channel back into the loss-only FIFO pipe the";
  print_endline
    "protocol assumes: duplicates are discarded by tag, reordering is undone";
  print_endline
    "within the hold window, and a marker whose checksum fails is dropped";
  print_endline
    "before its (round, DC) stamp can poison the receiver's simulation.";
  print_endline
    "Unguarded, duplicates inflate delivery past 100% and reordering defeats";
  print_endline
    "logical reception until the next marker. Corrupt-dropped data (damage";
  print_endline
    "the CRC does catch) leaves tag gaps the guard waits out for a hold";
  print_endline
    "window before declaring them plain loss - the containment delay shows";
  print_endline
    "up as buffer occupancy, which presses against the byte budget but never";
  print_endline
    "exceeds it. FIFO returns within a marker interval of the impairments";
  print_endline "stopping (Theorem 5.1).\n"

let fields_of_result r =
  Bench_gate.
    [
      ("config", Str r.slug);
      ("delivered", Int r.delivered);
      ("rate", Num (4, r.rate));
      ("ooo", Int r.ooo);
      ("dup_disc", Int r.dup_disc);
      ("crpt_disc", Int r.crpt_disc);
      ("overflows", Int r.overflows);
      ("peak_buf", Int r.peak_buf);
      ("resync_ms", Num (3, r.resync_ms));
    ]

(* The run is virtual-time deterministic, so a tight default tolerance
   holds; the slack absorbs deliberate small protocol changes without
   baseline churn. Resync times get 1 ms absolute headroom on top so a
   0 ms committed value does not demand exact zeros forever. The byte
   budget is a hard invariant, not a regression band: the resequencer
   may never buffer past it whatever channel 1 does. *)
let check ~max_regress ~file results =
  let gate = Bench_gate.load ~key:"config" file in
  List.iter
    (fun r ->
      Bench_gate.check gate ~tag:r.slug ~field:"delivered" (Floor max_regress)
        (float_of_int r.delivered);
      Bench_gate.check gate ~tag:r.slug ~field:"resync_ms"
        (Time_ceiling max_regress) r.resync_ms;
      if r.peak_buf > budget then
        Bench_gate.fail gate "%s peak buffering %dB exceeds the %dB budget"
          r.slug r.peak_buf budget)
    results;
  Bench_gate.finish gate

let usage = "exp_impair [--json FILE] [--check FILE] [--max-regress F]"

let () =
  let json_out = ref None in
  let check_file = ref None in
  let max_regress = ref 0.05 in
  Bench_gate.Flag.(
    parse ~usage
      [
        ("--json", String (fun file -> json_out := Some file));
        ("--check", String (fun file -> check_file := Some file));
        ("--max-regress", Float (( := ) max_regress));
      ]);
  print_endline
    "Impairments - channel 1 reorders/duplicates/corrupts until 1.5 s (3 x 10 \
     Mbps SRR, markers every 4 rounds, 64 KiB receive budget)";
  let results =
    List.concat_map
      (fun profile -> List.map (run_config profile) [ false; true ])
      profiles
  in
  print_table results;
  (match !json_out with
  | None -> ()
  | Some file ->
    Bench_gate.(
      write file
        ~header:
          [
            ( "scenario",
              Str
                "impairments: 3x10Mbps SRR markers=4, channel 1 \
                 reorder/dup/corrupt until 1.5s, 64KiB budget, 80% offered \
                 load" );
          ]
        ~array:"configs"
        (List.map fields_of_result results)));
  match !check_file with
  | None -> ()
  | Some file -> check ~max_regress:!max_regress ~file results
