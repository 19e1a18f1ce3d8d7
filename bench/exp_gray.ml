(* Gray-failure experiment: channel 1 of a 3 x 10 Mbps SRR bundle does
   not die — it gets {e worse}. From t=1.0 s to t=3.0 s a Gilbert–
   Elliott loss process (bursty, ~45% mean loss) sits on the link while
   carrier stays up, so the §5/§8 failure machinery (carrier watchers,
   crash barriers) never triggers. Three protection levels are compared
   against a clean baseline:

   - none:      the base protocol; the striper keeps feeding the gray
                member and delivery blocks on every burst until markers
                resynchronize (Thm 5.1);
   - watchdog:  the receiver's marker-cadence watchdog skips the channel
                whenever a burst swallows its markers, restoring service
                but still losing everything striped into the gray link;
   - health:    the watchdog plus the PROTOCOL.md §13 health engine: a
                periodic tick fuses per-channel loss and goodput
                evidence, cuts the member's quantum at a round boundary
                on probation, quarantines it through suspend + the §5
                reset barrier when evidence worsens, and reinstates it
                on a timed exponential backoff that the still-gray link
                flaps back into quarantine — until the episode ends and
                the member recovers to full quantum.

   Reported per configuration: deliveries, goodput retained against the
   clean baseline, misordering, watchdog skips, quarantine entries and
   peak flap count, detection latency (gray onset to the engine's first
   transition), and liveness violations from the always-on monitor
   (the health engine must never zero the live membership).

   The whole scenario runs in virtual time on seeded randomness, so the
   numbers are deterministic: test/baselines.t holds the committed
   BENCH_gray.json byte for byte. The binary itself enforces the §13
   acceptance bar on every run: the health engine must retain strictly
   more goodput than the watchdog alone, with zero liveness violations.

     dune exec bench/exp_gray.exe --                  # table
     dune exec bench/exp_gray.exe -- --json FILE      # machine output *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let gray_at = 1.0
let gray_stop = 3.0
let src_stop = 4.0
let run_end = 4.5
let tick_every = 0.05
let nominal_quantum = 4000
let max_packet = Sizes.large_packet

let gray_loss () =
  Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
    ~loss_bad:0.9

type outcome = {
  delivered : int;
  bytes : int;
  ooo : int;
  wd_skips : int;
  quarantines : int;
  flaps : int;
  detect_ms : float;  (* negative = the engine never reacted *)
  deferred : int;
  violations : int;
}

let run_config ~gray ~watchdog ~with_health () =
  let sim = Sim.create () in
  let master = Rng.create 9091 in
  let recovery = Stripe_metrics.Recovery.create () in
  let delivered_bytes = ref 0 in
  let engine =
    Srr.create ~max_packet ~quanta:(Array.make n nominal_quantum) ()
  in
  let wd =
    if watchdog then Some { Resequencer.intervals = 3; fallback = 0.01 }
    else None
  in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~channels:(Array.make n (10e6, 0.002))
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~rng:master ?watchdog:wd
      ~deliver:(fun pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq;
        delivered_bytes := !delivered_bytes + pkt.Packet.size)
      ()
  in
  let links = Bundle.links b in
  if gray then begin
    Sim.schedule sim ~at:gray_at (fun () ->
        Link.set_loss links.(1) (gray_loss ()));
    Sim.schedule sim ~at:gray_stop (fun () ->
        Link.set_loss links.(1) (Loss.none ()))
  end;
  let monitor = Stripe_obs.Monitor.create ~live_channels:n () in
  let quarantines = ref 0 in
  let max_flaps = ref 0 in
  let detect_at = ref (-1.0) in
  let health =
    if not with_health then None
    else begin
      let h =
        Health.create
          ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
          ~sink:(Stripe_obs.Monitor.sink monitor)
          ~n ()
      in
      let _, step =
        Bundle_control.health_loop h b ~floor:max_packet
      in
      let rec tick () =
        let now = Sim.now sim in
        let trs = (step ~now).transitions in
        if trs <> [] && !detect_at < 0.0 && now >= gray_at then
          detect_at := now;
        List.iter
          (function
            | Health.To_quarantine { channel; _ } ->
              incr quarantines;
              max_flaps := max !max_flaps (Health.flaps h channel)
            | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _
              -> ())
          trs;
        if now < run_end then Sim.schedule_after sim ~delay:tick_every tick
      in
      Sim.schedule sim ~at:tick_every tick;
      Some h
    end
  in
  (* Paced bimodal source at ~53% of the healthy aggregate — the two
     survivors can carry all of it when the gray member is out. *)
  let gen =
    Stripe_workload.Genpkt.bimodal ~rng:(Rng.create 77)
      ~small:Sizes.small_packet ~large:Sizes.large_packet ()
  in
  ignore (Bundle.pace b ~burst:2 ~every:0.0006 ~until:src_stop gen);
  Sim.run sim;
  {
    delivered = Stripe_metrics.Recovery.deliveries recovery;
    bytes = !delivered_bytes;
    ooo = Stripe_metrics.Recovery.out_of_order recovery;
    wd_skips = Resequencer.watchdog_skips (Bundle.resequencer b);
    quarantines = !quarantines;
    flaps = !max_flaps;
    detect_ms =
      (if !detect_at < 0.0 then -1.0 else 1000.0 *. (!detect_at -. gray_at));
    deferred = (match health with Some h -> Health.deferred_quarantines h | None -> 0);
    violations = Stripe_obs.Monitor.violations monitor;
  }

type result = { slug : string; label : string; retained : float; o : outcome }

let configs =
  [
    ("clean", "clean baseline (no gray)", false, false, false);
    ("none", "no protection", true, false, false);
    ("watchdog", "receiver watchdog", true, true, false);
    ("health", "health engine + watchdog", true, true, true);
  ]

let fmt_ms v = if v < 0.0 then "never" else Printf.sprintf "%.1f" v

let print_table results =
  let tbl =
    Stripe_metrics.Table.create ~title:"Gray-failure protection"
      ~columns:
        [
          "configuration"; "delivered"; "goodput"; "ooo"; "wd skips"; "quar";
          "flaps"; "detect (ms)"; "viol";
        ]
  in
  List.iter
    (fun r ->
      Stripe_metrics.Table.add_row tbl
        [
          r.label;
          string_of_int r.o.delivered;
          Printf.sprintf "%.1f%%" (100.0 *. r.retained);
          string_of_int r.o.ooo;
          string_of_int r.o.wd_skips;
          string_of_int r.o.quarantines;
          string_of_int r.o.flaps;
          fmt_ms r.o.detect_ms;
          string_of_int r.o.violations;
        ])
    results;
  Stripe_metrics.Table.print tbl;
  print_endline
    "A gray member defeats fail-stop protection: carrier never drops, so";
  print_endline
    "only the evidence — bursty loss, goodput shortfall — gives it away.";
  print_endline
    "Unprotected, every burst stalls logical reception until the next";
  print_endline
    "marker; the watchdog restores service but the striper keeps paying";
  print_endline
    "the gray link's loss rate on a third of the traffic. The health";
  print_endline
    "engine detects within a few evidence windows, cuts the member's";
  print_endline
    "quantum on probation, quarantines it outright as evidence worsens,";
  print_endline
    "and probes it back on an exponential backoff — each flap doubling";
  print_endline
    "the wait — until the episode ends and the member earns its full";
  print_endline
    "quantum back. The last-live-channel guard and the liveness monitor";
  print_endline "agree throughout: the bundle never heals itself to death.\n"

let fields_of_result r =
  Bench_gate.
    [
      ("config", Str r.slug);
      ("delivered", Int r.o.delivered);
      ("retained", Num (4, r.retained));
      ("ooo", Int r.o.ooo);
      ("wd_skips", Int r.o.wd_skips);
      ("quarantines", Int r.o.quarantines);
      ("flaps", Int r.o.flaps);
      ("detect_ms", Num (3, r.o.detect_ms));
      ("deferred", Int r.o.deferred);
      ("violations", Int r.o.violations);
    ]

let usage = "exp_gray [--json FILE]"

let () =
  let json_out = ref None in
  Bench_gate.Flag.(
    parse ~usage [ ("--json", String (fun file -> json_out := Some file)) ]);
  print_endline
    "Gray failure - channel 1 at ~45% bursty loss 1.0-3.0 s, carrier up (3 x \
     10 Mbps SRR, markers every 4 rounds)";
  let results =
    let raw =
      List.map
        (fun (slug, label, gray, watchdog, with_health) ->
          (slug, label, run_config ~gray ~watchdog ~with_health ()))
        configs
    in
    let clean_bytes =
      match raw with (_, _, o) :: _ -> float_of_int o.bytes | [] -> 1.0
    in
    List.map
      (fun (slug, label, o) ->
        { slug; label; retained = float_of_int o.bytes /. clean_bytes; o })
      raw
  in
  print_table results;
  (* The §13 acceptance bar holds on every run: the health engine must
     strictly beat the watchdog alone, and self-healing must never zero
     the live membership. *)
  let find slug = List.find (fun r -> r.slug = slug) results in
  let health = find "health" and watchdog = find "watchdog" in
  Bench_gate.require
    (health.retained > watchdog.retained)
    "health engine retained %.4f <= watchdog-only %.4f" health.retained
    watchdog.retained;
  List.iter
    (fun r ->
      Bench_gate.require (r.o.violations = 0) "%s saw %d liveness violations"
        r.slug r.o.violations)
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
                "gray failure: 3x10Mbps SRR markers=4, channel 1 Gilbert ~45% \
                 loss 1.0-3.0s carrier up, 53% offered load" );
          ]
        ~array:"configs"
        (List.map fields_of_result results))
