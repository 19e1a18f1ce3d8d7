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
   containment metrics are deterministic: test/baselines.t holds the
   committed BENCH_impair.json byte for byte. The byte budget is a hard
   invariant, held on every run: the binary exits 1 if any run's peak
   buffering exceeds it, whatever channel 1 does.

     dune exec bench/exp_impair.exe --                  # table
     dune exec bench/exp_impair.exe -- --json FILE      # machine output *)

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
  source : Bundle.source;
}

let make_rig ~impair ~guarded () =
  let sim = Sim.create () in
  let master = Rng.create 4242 in
  let recovery = Stripe_metrics.Recovery.create () in
  let engine = Srr.create ~quanta:(Array.make n 1500) () in
  let corrupt_rng = Rng.split master in
  let rig (type w) (wire : w Bundle.wire) =
    let b =
      Bundle.create sim
        ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
        ~channels:(Array.init n (fun i -> (10e6, 0.002 +. (0.001 *. float_of_int i))))
        ~wire ~receiver:Logical
        ~marker:(Marker.make ~every_rounds:4 ())
        ~rng:master
        ~impair:(fun i -> if i = 1 then impair else Impair.none)
        ~corrupt_rng ~budget_bytes:budget ~overflow:Resequencer.Drop_newest
        ~deliver:(fun pkt ->
          Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
            ~seq:pkt.Packet.seq)
        ()
    in
    Sim.schedule sim ~at:impair_stop (fun () ->
        Array.iter (fun l -> Link.set_impairments l Impair.none) (Bundle.links b));
    (* Paced bimodal source at ~80% of the aggregate. *)
    let gen =
      Stripe_workload.Genpkt.bimodal ~rng:(Rng.create 77)
        ~small:Sizes.small_packet ~large:Sizes.large_packet ()
    in
    {
      sim;
      striper = Bundle.striper b;
      reseq = Bundle.resequencer b;
      guard = Bundle.guard b;
      recovery;
      source = Bundle.pace b ~burst:2 ~every:0.0006 ~until:run_until gen;
    }
  in
  if guarded then rig (Bundle.Guarded guard_window) else rig Bundle.Plain

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
  Sim.run rig.sim;
  (match rig.guard with Some g -> Channel_guard.flush g | None -> ());
  let offered = rig.source.offered in
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
    ooo = Stripe_metrics.Recovery.out_of_order rig.recovery;
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

let usage = "exp_impair [--json FILE]"

let () =
  let json_out = ref None in
  Bench_gate.Flag.(
    parse ~usage [ ("--json", String (fun file -> json_out := Some file)) ]);
  print_endline
    "Impairments - channel 1 reorders/duplicates/corrupts until 1.5 s (3 x 10 \
     Mbps SRR, markers every 4 rounds, 64 KiB receive budget)";
  let results =
    List.concat_map
      (fun profile -> List.map (run_config profile) [ false; true ])
      profiles
  in
  print_table results;
  List.iter
    (fun r ->
      Bench_gate.require (r.peak_buf <= budget)
        "%s peak buffering %dB exceeds the %dB budget" r.slug r.peak_buf budget)
    results;
  match !json_out with
  | None -> ()
  | Some file ->
    Bench_gate.(
      write file ~key:"config"
        ~header:
          [
            ( "scenario",
              Str
                "impairments: 3x10Mbps SRR markers=4, channel 1 \
                 reorder/dup/corrupt until 1.5s, 64KiB budget, 80% offered \
                 load" );
          ]
        ~array:"configs"
        (List.map fields_of_result results))
