(* Failover experiment: one member of a 3 x 10 Mbps SRR bundle loses
   carrier at t=1.0 s and recovers at t=2.0 s (markers every 4 rounds,
   ~80% offered load). Four protection configurations are compared:

   - sender-aware:    the striper suspends the dead member on carrier
                      loss (load moves to the survivors) and resumes it
                      with the §5 reset barrier on recovery;
   - receiver watchdog: the sender keeps striping into the dead link;
                      the receiver's marker-cadence watchdog declares
                      the channel dead and skips it (quasi-FIFO);
   - both combined;
   - unprotected:     the paper's base protocol, which assumes members
                      stay up — logical reception blocks on the dead
                      channel until it revives.

   Reported per configuration: deliveries, misordering, the longest
   service outage, time to the first delivery after the member returns,
   resynchronization time after the outage ends (Theorem 5.1 applies
   once markers flow again), and availability in 10 ms slots.

   The whole scenario runs in virtual time on seeded randomness, so the
   recovery metrics are deterministic — which makes them a CI gate:

     dune exec bench/exp_failover.exe --                  # table
     dune exec bench/exp_failover.exe -- --json FILE      # machine output
     dune exec bench/exp_failover.exe -- --check FILE [--max-regress F]
       # exit 1 if availability drops, or failback/resync regress,
       # more than F (default 0.05) against FILE's committed numbers *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let down_at = 1.0
let up_at = 2.0
let run_until = 3.0

type rig = {
  sim : Sim.t;
  striper : Striper.t;
  reseq : Resequencer.t;
  recovery : Stripe_metrics.Recovery.t;
  reorder : Reorder.t;
  links : Packet.t Link.t array;
}

let make_rig ~sender_aware ~watchdog () =
  let sim = Sim.create () in
  let recovery = Stripe_metrics.Recovery.create () in
  let reorder = Reorder.create () in
  let engine = Srr.create ~quanta:(Array.make n 1500) () in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ?watchdog
      ~deliver:(fun ~channel:_ pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq;
        Reorder.observe reorder ~seq:pkt.Packet.seq)
      ()
  in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:10e6 ~prop_delay:0.002
          ~deliver:(fun pkt -> Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let sched = Scheduler.of_deficit ~name:"SRR" engine in
  let striper =
    Striper.create ~scheduler:sched
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  if sender_aware then
    Array.iteri
      (fun i link ->
        Link.on_carrier link (fun ~up ->
            if up then Striper.resume_channel striper i
            else Striper.suspend_channel striper i))
      links;
  { sim; striper; reseq; recovery; reorder; links }

(* Paced bimodal source at ~80% of the healthy aggregate. *)
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
  tick ()

type result = {
  slug : string;
  label : string;
  delivered : int;
  ooo : int;
  wd_skips : int;
  longest_outage_ms : float;
  failback_ms : float;  (* negative = service never came back *)
  resync_ms : float;  (* negative = FIFO never restored *)
  availability : float;
}

let configs =
  [
    ("full", "sender-aware + watchdog", true, true);
    ("sender_aware", "sender-aware", true, false);
    ("watchdog", "receiver watchdog", false, true);
    ("unprotected", "unprotected", false, false);
  ]

let run_config (slug, label, sender_aware, with_wd) =
  let watchdog =
    if with_wd then Some { Resequencer.intervals = 3; fallback = 0.01 }
    else None
  in
  let rig = make_rig ~sender_aware ~watchdog () in
  drive rig;
  Fault.down_up rig.sim rig.links.(1) ~down_at ~up_at;
  Sim.run rig.sim;
  let failback_ms =
    match Stripe_metrics.Recovery.first_after rig.recovery ~time:up_at with
    | Some t -> 1000.0 *. (t -. up_at)
    | None -> -1.0
  in
  let resync_ms =
    (* The channel outage is the error episode: once the member is back
       and the reset barrier / markers have flowed, delivery must be
       FIFO again (Theorem 5.1). *)
    match Stripe_metrics.Recovery.resync_time rig.recovery ~errors_stop:up_at with
    | Some dt -> 1000.0 *. dt
    | None -> -1.0
  in
  {
    slug;
    label;
    delivered = Stripe_metrics.Recovery.deliveries rig.recovery;
    ooo = Reorder.out_of_order rig.reorder;
    wd_skips = Resequencer.watchdog_skips rig.reseq;
    longest_outage_ms =
      1000.0
      *. Stripe_metrics.Recovery.max_gap rig.recovery ~from_:down_at
           ~until_:run_until;
    failback_ms;
    resync_ms;
    availability =
      Stripe_metrics.Recovery.availability rig.recovery ~from_:0.0
        ~until_:run_until ~bucket:0.01;
  }

let fmt_ms v = if v < 0.0 then "never" else Printf.sprintf "%.1f" v

let print_table results =
  let tbl =
    Stripe_metrics.Table.create ~title:"Protection configurations"
      ~columns:
        [
          "configuration"; "delivered"; "ooo"; "wd skips";
          "longest outage (ms)"; "failback (ms)"; "resync (ms)"; "avail";
        ]
  in
  List.iter
    (fun r ->
      Stripe_metrics.Table.add_row tbl
        [
          r.label;
          string_of_int r.delivered;
          string_of_int r.ooo;
          string_of_int r.wd_skips;
          Printf.sprintf "%.1f" r.longest_outage_ms;
          fmt_ms r.failback_ms;
          fmt_ms r.resync_ms;
          Printf.sprintf "%.1f%%" (100.0 *. r.availability);
        ])
    results;
  Stripe_metrics.Table.print tbl;
  print_endline
    "Full protection needs both ends. Sender-side suspension alone keeps";
  print_endline
    "packets off the dead member (zero misordering, instant resync at";
  print_endline
    "failback via the reset barrier) but the receiver still blocks for the";
  print_endline
    "whole outage: suspension is invisible to its simulation of the sender.";
  print_endline
    "The receiver watchdog alone restores service after the dead-channel";
  print_endline
    "timeout, at the cost of losing what was striped into the dead link";
  print_endline "(quasi-FIFO). Combined, the survivors carry everything and delivery";
  print_endline "never reorders.\n"

let fields_of_result r =
  Bench_gate.
    [
      ("config", Str r.slug);
      ("delivered", Int r.delivered);
      ("ooo", Int r.ooo);
      ("wd_skips", Int r.wd_skips);
      ("longest_outage_ms", Num (3, r.longest_outage_ms));
      ("failback_ms", Num (3, r.failback_ms));
      ("resync_ms", Num (3, r.resync_ms));
      ("availability", Num (4, r.availability));
    ]

(* The run is virtual-time deterministic, so a tight default tolerance
   holds; the slack absorbs deliberate small protocol changes without
   baseline churn. Recovery times get 1 ms absolute headroom on top so
   a 0 ms committed value does not demand exact zeros forever. *)
let check ~max_regress ~file results =
  let gate = Bench_gate.load ~key:"config" file in
  List.iter
    (fun r ->
      let check_field field rule v =
        Bench_gate.check gate ~tag:r.slug ~field rule v
      in
      check_field "availability" (Floor max_regress) r.availability;
      check_field "delivered" (Floor max_regress) (float_of_int r.delivered);
      check_field "failback_ms" (Time_ceiling max_regress) r.failback_ms;
      check_field "resync_ms" (Time_ceiling max_regress) r.resync_ms)
    results;
  Bench_gate.finish gate

let usage = "exp_failover [--json FILE] [--check FILE] [--max-regress F]"

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
    "Failover - member down at 1.0 s, back at 2.0 s (3 x 10 Mbps SRR, markers \
     every 4 rounds)";
  let results = List.map run_config configs in
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
                "failover: 3x10Mbps SRR markers=4, member 1 down 1.0-2.0s, \
                 80% offered load" );
          ]
        ~array:"configs"
        (List.map fields_of_result results)));
  match !check_file with
  | None -> ()
  | Some file -> check ~max_regress:!max_regress ~file results
