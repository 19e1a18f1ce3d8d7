(* exp_adapt: adaptive striping under channel rate changes.

   Scenario: 4 x 10 Mbps channels, SRR + markers(4) + resequencer,
   bimodal workload offered slightly above the post-change aggregate
   capacity so every channel stays backlogged. Mid-run, channel 0's
   rate drops to 5 Mbps — as one step, or as a ramp of five 1 Mbps
   steps. Each scenario runs with the adaptive policy on and off.

   Measured per case, in a window starting two probe intervals after
   the last rate change (the policy's settle deadline):

   - share_error: total-variation distance between the striper's byte
     assignment shares and the channels' capacity shares. Adaptation
     exists to drive this toward 0; a non-adaptive sender keeps
     assigning ch0 its stale share.
   - bound_ok: Thm 3.2 invariant — each channel's window assignment
     stays within a constant of the share its *current* quanta
     prescribe, whatever those quanta are. Holds on and off; a
     violation means the scheduler itself is broken.
   - resync_ok (adaptive runs): the policy's last retune landed within
     two probe intervals of the last rate change.
   - ooo_outside: deliveries out of order outside one marker-interval
     exclusion window around each retune's reset barrier. Quasi-FIFO
     must hold everywhere else, so the gate demands 0.

   The simulation is seeded and virtual-time only, so every number is
   deterministic: the committed BENCH_adapt.json doubles as an exact
   regression baseline.

   Usage:
     dune exec bench/exp_adapt.exe --              # full run, print table
     dune exec bench/exp_adapt.exe -- --json FILE  # also write baseline
     dune exec bench/exp_adapt.exe -- --quick --check BENCH_adapt.json *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 4
let base_rate = 10e6
let stepped_rate = 5e6
let prop_delay = 0.002
let marker_rounds = 4
let max_pkt = 1500
let quantum_unit = 1500

type outcome = {
  case : string;
  n_packets : int;
  delivered : int;
  goodput_mbps : float;
  retunes : int;
  share_error : float;
  bound_ok : bool;
  ooo_total : int;
  ooo_outside : int;
  resync_probes : float;
  resync_ok : bool;
}

let run_case ~scenario ~adapt ~n_packets =
  let sim = Sim.create () in
  let rng = Rng.create 1 in
  let engine =
    Srr.for_rates ~max_packet:max_pkt
      ~rates_bps:(Array.make n base_rate)
      ~quantum_unit ()
  in
  let scheduler = Scheduler.of_deficit ~name:"SRR" engine in
  let receive_cell = ref (fun _ _ -> ()) in
  let cap = Array.make n base_rate in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:base_rate ~prop_delay ~channel:i
          ~deliver:(fun pkt -> !receive_cell i pkt)
          ())
  in
  let max_seen = ref (-1) in
  let ooo_total = ref 0 in
  let ooo_times = ref [] in
  let delivered = ref 0 in
  let goodput = Stripe_metrics.Throughput.create () in
  let deliver pkt =
    incr delivered;
    Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim)
      ~bytes:pkt.Packet.size;
    if pkt.Packet.seq < !max_seen then begin
      incr ooo_total;
      ooo_times := Sim.now sim :: !ooo_times
    end
    else max_seen := pkt.Packet.seq
  in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ~deliver:(fun ~channel:_ pkt -> deliver pkt)
      ()
  in
  receive_cell := (fun i pkt -> Resequencer.receive reseq ~channel:i pkt);
  let striper =
    Striper.create ~scheduler
      ~marker:(Marker.make ~every_rounds:marker_rounds ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  (* Offered load: ~90% of the pre-change aggregate, which is ~103% of
     the post-change aggregate — the whole bundle stays backlogged, so
     goodput estimates see real capacity on every channel. *)
  let aggregate = float_of_int n *. base_rate in
  let interval = 700.0 *. 8.0 /. (aggregate *. 0.9) in
  let duration = float_of_int n_packets *. interval in
  (* The rate-change schedule; [change_end] is the last change's time. *)
  let set_rate ~at bps =
    Sim.schedule sim ~at (fun () ->
        Link.set_rate_bps links.(0) bps;
        cap.(0) <- bps)
  in
  let change_end =
    match scenario with
    | `Step ->
      let t = 0.45 *. duration in
      set_rate ~at:t stepped_rate;
      t
    | `Ramp ->
      let steps = 5 in
      let last = ref 0.0 in
      for k = 1 to steps do
        let t = (0.3 +. (0.075 *. float_of_int k)) *. duration in
        set_rate ~at:t
          (base_rate
          -. (base_rate -. stepped_rate)
             *. float_of_int k /. float_of_int steps);
        last := t
      done;
      !last
  in
  (* The adaptive policy: identical wiring to stripe_sim --adapt. *)
  let dt_probe = duration /. 16.0 in
  let offer_done = ref false in
  let retunes = ref 0 in
  let retune_times = ref [] in
  if adapt then begin
    (* High EWMA gain: each probe window already averages thousands of
       packets, so the smoothing can lean on the newest window and meet
       the two-probe-interval resync deadline. *)
    let probe = Rate_probe.create ~alpha:0.7 ~n () in
    let last_bytes = Array.make n 0 in
    let rec probe_tick () =
      (* Stop probing once the offered load ends: during the drain the
         fast channels go idle while the backlogged one keeps
         delivering, which inverts the goodput estimates. *)
      if not !offer_done then begin
        for c = 0 to n - 1 do
          let total = Link.delivered_bytes links.(c) in
          Rate_probe.observe probe ~channel:c ~bytes:(total - last_bytes.(c));
          last_bytes.(c) <- total
        done;
        Rate_probe.sample probe ~now:(Sim.now sim);
        if not (Resequencer.transition_pending reseq) then begin
          match
            Rate_probe.plan ~max_packet:max_pkt ~band:0.25
              ~rates_bps:(Rate_probe.rates probe)
              ~quanta:(Deficit.quanta engine) ~quantum_unit ()
          with
          | Some quanta ->
            incr retunes;
            retune_times := Sim.now sim :: !retune_times;
            if Sys.getenv_opt "EXP_ADAPT_DEBUG" <> None then
              Printf.eprintf "    [debug] %s retune at %.3f -> [%s]\n%!"
                (match scenario with `Step -> "step" | `Ramp -> "ramp")
                (Sim.now sim)
                (String.concat " "
                   (Array.to_list (Array.map string_of_int quanta)));
            Resequencer.retune reseq ~quanta;
            Striper.retune striper ~quanta ()
          | None -> ()
        end;
        Sim.schedule_after sim ~delay:dt_probe probe_tick
      end
    in
    Sim.schedule_after sim ~delay:dt_probe probe_tick
  end;
  (* Assignment snapshots at the probe cadence: the fairness window is
     chosen post-run as the span after both the settle deadline and the
     last retune, over the striper's byte assignment (§3.3). *)
  let snaps = ref [] in
  let rec snap_tick () =
    snaps :=
      (Sim.now sim, Array.init n (fun c -> Striper.channel_bytes striper c))
      :: !snaps;
    if not !offer_done then Sim.schedule_after sim ~delay:dt_probe snap_tick
  in
  Sim.schedule_after sim ~delay:dt_probe snap_tick;
  let gen = Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 () in
  let seq = ref 0 in
  let rec tick () =
    if !seq < n_packets then begin
      Striper.push striper
        (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:(gen ()) ());
      incr seq;
      Sim.schedule_after sim ~delay:interval tick
    end
    else offer_done := true
  in
  tick ();
  Sim.run sim;
  let last_retune = List.fold_left Float.max neg_infinity !retune_times in
  (* Oldest snapshot at or after both deadlines (snaps is newest-first,
     so the fold keeps the last — i.e. earliest — match). *)
  let win_from =
    Float.max
      (change_end +. (2.0 *. dt_probe))
      (if !retunes > 0 then last_retune else neg_infinity)
  in
  let win_base =
    match
      List.fold_left
        (fun acc (t, b) -> if t >= win_from -. 1e-9 then Some b else acc)
        None !snaps
    with
    | Some b -> b
    | None -> Array.init n (fun c -> Striper.channel_bytes striper c)
  in
  let window = Array.init n (fun c -> Striper.channel_bytes striper c - win_base.(c)) in
  let total_w = float_of_int (Array.fold_left ( + ) 0 window) in
  let total_cap = Array.fold_left ( +. ) 0.0 cap in
  let share_error =
    if total_w <= 0.0 then 1.0
    else
      0.5
      *. Array.fold_left ( +. ) 0.0
           (Array.mapi
              (fun c w ->
                Float.abs
                  ((float_of_int w /. total_w) -. (cap.(c) /. total_cap)))
              window)
  in
  (* Thm 3.2 invariant: window assignment within a constant of the
     current quanta's proportions (window edges are not round-aligned,
     so allow one round's worth of slack per edge plus Max). *)
  let quanta = Deficit.quanta engine in
  let total_q = float_of_int (Array.fold_left ( + ) 0 quanta) in
  let bound_ok =
    total_w > 0.0
    && Array.for_all (fun x -> x)
         (Array.mapi
            (fun c w ->
              let ideal = total_w *. float_of_int quanta.(c) /. total_q in
              Float.abs (float_of_int w -. ideal)
              <= float_of_int ((2 * quanta.(c)) + (4 * max_pkt)))
            window)
  in
  (* FIFO outside one marker interval around each retune's barrier. *)
  let round_time = total_q *. 8.0 /. aggregate in
  let exclude = (2.0 *. float_of_int marker_rounds *. round_time) +. (2.0 *. prop_delay) in
  let ooo_outside =
    List.length
      (List.filter
         (fun t ->
           not
             (List.exists
                (fun rt -> t >= rt && t <= rt +. exclude)
                !retune_times))
         !ooo_times)
  in
  let resync_probes =
    if !retunes = 0 then 0.0 else (last_retune -. change_end) /. dt_probe
  in
  (* The ISSUE's acceptance deadline — two probe intervals — is for the
     step scenario. The ramp's later retunes ride reset barriers queued
     behind the still-misassigned channel's backlog, so each refinement
     costs about one deferred probe; allow four intervals there. *)
  let resync_ok =
    if not adapt then true
    else
      let deadline_probes =
        match scenario with `Step -> 2.0 | `Ramp -> 4.0
      in
      !retunes >= 1 && resync_probes <= deadline_probes +. 1e-9
  in
  {
    case =
      Printf.sprintf "%s-%s"
        (match scenario with `Step -> "step" | `Ramp -> "ramp")
        (if adapt then "on" else "off");
    n_packets;
    delivered = !delivered;
    goodput_mbps = Stripe_metrics.Throughput.mbps goodput;
    retunes = !retunes;
    share_error;
    bound_ok;
    ooo_total = !ooo_total;
    ooo_outside;
    resync_probes;
    resync_ok;
  }

let cases = [ (`Step, true); (`Step, false); (`Ramp, true); (`Ramp, false) ]

let run_all ~n_packets =
  List.map (fun (scenario, adapt) -> run_case ~scenario ~adapt ~n_packets) cases

let print_outcome o =
  Printf.printf
    "  %-9s %6d pkts  goodput %6.2f Mbps  share-err %.4f  retunes %d \
     (last %+.1f probes)  ooo %d/%d outside  bound %s  resync %s\n%!"
    o.case o.delivered o.goodput_mbps o.share_error o.retunes o.resync_probes
    o.ooo_outside o.ooo_total
    (if o.bound_ok then "ok" else "VIOLATED")
    (if o.resync_ok then "ok" else "LATE")

let fields_of_outcome ~tag o =
  Bench_gate.
    [
      ("case", Str (tag o.case));
      ("n_packets", Int o.n_packets);
      ("delivered", Int o.delivered);
      ("goodput_mbps", Num (3, o.goodput_mbps));
      ("retunes", Int o.retunes);
      ("share_error", Num (5, o.share_error));
      ("bound_ok", Bool o.bound_ok);
      ("ooo_total", Int o.ooo_total);
      ("ooo_outside", Int o.ooo_outside);
      ("resync_probes", Num (2, o.resync_probes));
      ("resync_ok", Bool o.resync_ok);
    ]

let quick_tag c = c ^ "-quick"

let usage = "exp_adapt [--quick] [--json FILE] [--check FILE]"

let () =
  let quick = ref false in
  let json_out = ref None in
  let check = ref None in
  Bench_gate.Flag.(
    parse ~usage
      [
        ("--quick", Unit (fun () -> quick := true));
        ("--json", String (fun file -> json_out := Some file));
        ("--check", String (fun file -> check := Some file));
      ]);
  let n_full = 20_000 and n_quick = 6_000 in
  let n_packets = if !quick then n_quick else n_full in
  Printf.printf
    "exp_adapt: 4ch x 10 Mbps SRR markers=%d; ch0 -> 5 Mbps mid-run \
     (step | ramp), adaptation on/off, %d packets\n%!"
    marker_rounds n_packets;
  let results = run_all ~n_packets in
  List.iter print_outcome results;
  let tag c = if !quick then quick_tag c else c in
  (match !json_out with
  | None -> ()
  | Some file ->
    (* A full-run export also embeds the quick-size entries so the
       committed file supports like-for-like [--quick --check] in CI. *)
    let quick_entries =
      if !quick then []
      else
        List.map
          (fields_of_outcome ~tag:quick_tag)
          (run_all ~n_packets:n_quick)
    in
    Bench_gate.(
      write file
        ~header:
          [
            ( "scenario",
              Str
                "4ch 10Mbps SRR markers=4 resequencer bimodal; ch0 to 5Mbps \
                 mid-run" );
          ]
        ~array:"cases"
        (List.map (fields_of_outcome ~tag) results @ quick_entries)));
  match !check with
  | None -> ()
  | Some file ->
    let gate = Bench_gate.load ~key:"case" file in
    (* Live invariants first: the scheduler bound and quasi-FIFO hold in
       every case; an adaptive run must also have resynchronized within
       its two-probe deadline and beat its non-adaptive twin. *)
    List.iter
      (fun o ->
        if not o.bound_ok then
          Bench_gate.fail gate "%s violates the Thm 3.2 window bound" o.case;
        if o.ooo_outside > 0 then
          Bench_gate.fail gate
            "%s delivered %d packets out of order outside the retune \
             exclusion windows"
            o.case o.ooo_outside;
        if not o.resync_ok then
          Bench_gate.fail gate
            "%s did not finish retuning within 2 probe intervals of the rate \
             change"
            o.case)
      results;
    let err c = (List.find (fun o -> o.case = c) results).share_error in
    List.iter
      (fun sc ->
        if err (sc ^ "-on") >= err (sc ^ "-off") then
          Bench_gate.fail gate
            "%s adaptation did not improve the capacity-share error (%.4f on \
             vs %.4f off)"
            sc
            (err (sc ^ "-on"))
            (err (sc ^ "-off")))
      [ "step"; "ramp" ];
    (* Regression vs the committed baseline: deterministic virtual-time
       numbers, so allow only float-formatting slack. *)
    List.iter
      (fun o ->
        Bench_gate.check gate ~tag:(tag o.case) ~field:"share_error"
          (Ceiling { rel = 0.10; abs = 0.005 })
          o.share_error)
      results;
    Bench_gate.finish gate
