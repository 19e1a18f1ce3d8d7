(* stripe-sim: run a configurable striping scenario and report load
   sharing, ordering and recovery metrics.

   Examples:
     dune exec bin/stripe_sim.exe -- \
       --channel 10e6:0.001 --channel 4e6:0.020 \
       --scheduler srr --packets 5000 --workload bimodal

     dune exec bin/stripe_sim.exe -- \
       --channel 8e6:0.005:0.2 --channel 8e6:0.005:0.2 \
       --scheduler srr --markers 4 --packets 20000 --loss-stop 0.5

     dune exec bin/stripe_sim.exe -- --mode mppp --packets 5000
     dune exec bin/stripe_sim.exe -- --mode fragment --packets 5000 *)

open Cmdliner
open Stripe_netsim
open Stripe_packet
open Stripe_core

(* Numeric flag domains. Each converter rejects a value outside its
   domain, so a bad value is a usage error (exit 124) naming the domain,
   never an exception from deep inside the run. NaN fails every
   comparison, so no domain admits it. *)
let finite_positive x = Float.is_finite x && x > 0.0
let finite_non_negative x = Float.is_finite x && x >= 0.0
let probability x = x >= 0.0 && x <= 1.0

(* [Ok v] when [s] parses to a [v] inside the domain [ok]; otherwise an
   error naming the domain. *)
let in_domain of_string ~what ok s =
  match of_string s with
  | Some v when ok v -> Ok v
  | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))

let checked of_string pp ~what ok = Arg.conv (in_domain of_string ~what ok, pp)
let int_in = checked int_of_string_opt Format.pp_print_int
let float_in = checked float_of_string_opt Format.pp_print_float
let positive_int = int_in ~what:"an integer > 0" (fun n -> n > 0)
let non_negative_int = int_in ~what:"an integer >= 0" (fun n -> n >= 0)
let positive_float = float_in ~what:"a finite number > 0" finite_positive

let non_negative_float =
  float_in ~what:"a finite number >= 0" finite_non_negative

let fraction = float_in ~what:"a fraction in [0, 1]" probability

type channel_conf = { rate : float; delay : float; loss : float }

let parse_channel s =
  let ( let* ) = Result.bind in
  let field = in_domain float_of_string_opt in
  let fields =
    match String.split_on_char ':' s with
    | [ rate; delay ] -> Some (rate, delay, "0")
    | [ rate; delay; loss ] -> Some (rate, delay, loss)
    | _ -> None
  in
  match fields with
  | None -> Error (`Msg ("channel spec must be RATE:DELAY[:LOSS], got " ^ s))
  | Some (rate, delay, loss) ->
    let* rate = field ~what:"a finite RATE > 0" finite_positive rate in
    let* delay = field ~what:"a finite DELAY >= 0" finite_non_negative delay in
    let* loss = field ~what:"a LOSS in [0, 1]" probability loss in
    Ok { rate; delay; loss }

let channel_conv =
  Arg.conv (parse_channel, fun fmt c ->
      Format.fprintf fmt "%g:%g:%g" c.rate c.delay c.loss)

let channels =
  Arg.(
    value
    & opt_all channel_conv
        [
          { rate = 10e6; delay = 0.001; loss = 0.0 };
          { rate = 10e6; delay = 0.010; loss = 0.0 };
        ]
    & info [ "c"; "channel" ] ~docv:"RATE:DELAY[:LOSS]"
        ~doc:
          "Add a channel: bits/s, one-way delay in seconds, optional loss \
           probability. Repeatable.")

let scheduler_arg =
  Arg.(
    value
    & opt (enum Scheduler.disciplines) Scheduler.Srr
    & info [ "s"; "scheduler"; "discipline" ] ~docv:"SCHED"
        ~doc:
          "Striping discipline: $(b,srr), $(b,rr), $(b,grr), \
           $(b,sprinklers) (randomized variable-size stripes — SRR quanta \
           scaled to burst granularity with a seeded per-round permuted \
           visit order; causal, works with quasi mode), $(b,rfq) (seeded \
           randomized fair queuing, §3.4 — causal but engine-less), \
           $(b,load-aware) (min-load selection by transmit-queue debt \
           over relative rate; non-causal), or $(b,random). Engine-less \
           disciplines deliver in arrival order under $(b,--mode quasi).")

let mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("quasi", `Quasi); ("seq", `Seq); ("none", `None);
             ("mppp", `Mppp); ("fragment", `Fragment);
           ])
        `Quasi
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Resequencing mode: $(b,quasi) = logical reception + markers (the \
           paper's strIPe), $(b,seq) = sequence-number headers (guaranteed \
           FIFO), $(b,none) = arrival order, $(b,mppp) = Multilink PPP \
           fragments (RFC 1717), $(b,fragment) = OSIRIS-style minipackets.")

let packets =
  Arg.(
    value & opt non_negative_int 10_000
    & info [ "n"; "packets" ] ~docv:"N" ~doc:"Number of packets to stripe.")

let workload =
  Arg.(
    value
    & opt
        (enum
           [
             ("bimodal", `Bimodal); ("alternating", `Alternating);
             ("uniform", `Uniform); ("imix", `Imix); ("fixed", `Fixed);
           ])
        `Bimodal
    & info [ "w"; "workload" ] ~docv:"DIST"
        ~doc:
          "Packet size distribution: $(b,bimodal) 200/1000, \
           $(b,alternating) 1000/200, $(b,uniform) 64..1500, $(b,imix), or \
           $(b,fixed) 1000.")

let markers =
  Arg.(
    value & opt non_negative_int 4
    & info [ "m"; "markers" ] ~docv:"K"
        ~doc:"Send resynchronization markers every K rounds; 0 disables them.")

let loss_stop =
  Arg.(
    value & opt (some fraction) None
    & info [ "loss-stop" ] ~docv:"FRACTION"
        ~doc:
          "Stop all channel loss after this fraction of the run, to measure \
           resynchronization (e.g. 0.5).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let replay_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a stored packet trace (see Trace_file; one packet per \
           line: time seq size flow frame) instead of generating a \
           workload. Overrides $(b,--packets) and $(b,--workload).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured event trace of the run to $(docv) (one event \
           per line, see $(b,--trace-format)) and report per-channel \
           counters. Events cover the whole pipeline: transmit, dequeue, \
           drop, arrival, enqueue, skip, block/unblock, marker and \
           delivery.")

let trace_format =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("csv", `Csv) ]) `Json
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Structured trace format: $(b,json) (JSON lines) or $(b,csv).")

let fault_conv =
  Arg.conv
    ( (fun s ->
        match Fault.parse_spec s with
        | Ok actions -> Ok actions
        | Error e -> Error (`Msg e)),
      fun fmt actions ->
        Format.pp_print_list Fault.pp_action fmt actions )

let fault_specs =
  Arg.(
    value
    & opt_all fault_conv []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject link faults: $(b,CH:EVENT@T[,EVENT@T...]) where EVENT is \
           $(b,down), $(b,up), $(b,rate=BPS) or $(b,burst=P/DUR) (Bernoulli \
           loss probability P for DUR seconds). Example: \
           $(b,1:down@0.5,up@1.5). Repeatable.")

let impair_conv =
  Arg.conv
    ( (fun s ->
        match Impair.parse_spec s with
        | Ok v -> Ok v
        | Error e -> Error (`Msg e)),
      fun fmt (ch, imp) -> Format.fprintf fmt "%d:%a" ch Impair.pp imp )

let impair_specs =
  Arg.(
    value
    & opt_all impair_conv []
    & info [ "impair" ] ~docv:"SPEC"
        ~doc:
          "Impair a channel inside its FIFO contract: \
           $(b,CH:reorder=P/WINDOW,dup=P,corrupt=P) gives each packet on \
           channel CH probability P of an unclamped extra delay uniform in \
           [0,WINDOW] seconds (breaking FIFO), of being delivered twice, \
           and of wire corruption. Example: \
           $(b,1:reorder=0.2/0.01,dup=0.05,corrupt=0.01). Repeatable. \
           $(b,--loss-stop) also stops impairments.")

let chaos_conv =
  Arg.conv
    ( (fun s ->
        match Chaos.parse_spec s with
        | Ok actions -> Ok actions
        | Error e -> Error (`Msg e)),
      fun fmt actions ->
        Format.pp_print_list Chaos.pp_action fmt actions )

let chaos_specs =
  Arg.(
    value
    & opt_all chaos_conv []
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Run a chaos plan against the bundle: comma-separated \
           $(b,storm=C1+C2+.../DUR@T) (correlated carrier loss on every \
           listed channel for DUR seconds), $(b,crash=tx/0/DUR@T) and \
           $(b,crash=rx/0/DUR@T) (endpoint crash + restart, PROTOCOL.md \
           §12), and $(b,violate=0@T) (poison the FIFO monitor — a \
           detection self-test, not a protocol event). The bundle id must \
           be 0: this simulator runs a single bundle. While a chaos plan \
           runs, always-on invariant monitors (FIFO order past the quiet \
           line, buffer budget, progress) shadow the delivery stream and \
           any violation is reported with the seed and the chaos event \
           index. Quasi mode with a CFQ scheduler only. Repeatable.")

let guard_window =
  Arg.(
    value
    & opt ~vopt:(Some 32) (some positive_int) None
    & info [ "guard" ] ~docv:"WINDOW"
        ~doc:
          "Enable the receiver channel guard: per-channel sequence tags \
           (out of band of the payload) discard duplicates and restore \
           FIFO within a window of $(docv) held packets (default 32) \
           before the resequencer sees the stream. Quasi mode with a CFQ \
           scheduler only.")

let rx_buffer =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "rx-buffer" ] ~docv:"BYTES"
        ~doc:
          "Bound the resequencer's buffered data bytes across all \
           channels (default: unbounded). Overflow behavior is set by \
           $(b,--overflow-policy). Quasi mode only.")

let overflow_policy =
  Arg.(
    value
    & opt
        (enum
           [
             ("drop-newest", Resequencer.Drop_newest);
             ("force-flush", Resequencer.Force_flush);
           ])
        Resequencer.Drop_newest
    & info [ "overflow-policy" ] ~docv:"POLICY"
        ~doc:
          "What a full $(b,--rx-buffer) does to an arriving data packet: \
           $(b,drop-newest) refuses it (a tail-drop loss the marker \
           machinery recovers from), $(b,force-flush) evicts buffered \
           data quasi-FIFO to make room, keeping the freshest data.")

let crash_at =
  Arg.(
    value
    & opt (some non_negative_float) None
    & info [ "crash-at" ] ~docv:"T"
        ~doc:
          "Crash the sender at time $(docv): its striping state is \
           corrupted on the spot and, 20 ms later (the reboot), the §5 \
           reset barrier is emitted so the receiver resynchronizes. Quasi \
           mode with a CFQ scheduler only.")

let watchdog_k =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "watchdog" ] ~docv:"K"
        ~doc:
          "Receiver dead-channel watchdog: declare a channel dead after \
           $(docv) marker intervals of silence and skip it (quasi-FIFO) \
           instead of blocking. Quasi mode only.")

let no_auto_suspend =
  Arg.(
    value & flag
    & info [ "no-auto-suspend" ]
        ~doc:
          "Do not suspend channels in the striper on carrier loss: model a \
           sender that cannot see link state (receiver-only recovery).")

let adapt_interval =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "adapt" ] ~docv:"SECONDS"
        ~doc:
          "Adaptive striping: every $(docv), fold each channel's delivered \
           bytes into an EWMA goodput estimate and, when the estimates \
           drift outside the $(b,--adapt-band) hysteresis, retune the \
           quantum vector live through the §5 reset barrier (sender \
           retune + staged receiver retune). Recovers bandwidth \
           proportionality after mid-run rate changes (e.g. \
           $(b,--fault 0:rate=5e6@1)). Quasi mode with a CFQ scheduler \
           only.")

let adapt_band =
  Arg.(
    value & opt non_negative_float 0.25
    & info [ "adapt-band" ] ~docv:"FRACTION"
        ~doc:
          "Relative hysteresis for $(b,--adapt): only retune when some \
           channel's target quantum differs from its current one by more \
           than $(docv) of the current value.")

let health_conv =
  Arg.conv
    ( (fun s ->
        match Health.parse_spec s with
        | Ok v -> Ok v
        | Error e -> Error (`Msg e)),
      fun fmt (_, every) ->
        Format.fprintf fmt "health every=%g" (Option.value every ~default:0.05)
    )

let health_spec =
  Arg.(
    value
    & opt (some health_conv) None
    & info [ "health" ] ~docv:"SPEC"
        ~doc:
          "Gray-failure health engine (PROTOCOL.md §13): every tick, fold \
           each channel's wire loss and goodput into an EWMA badness score \
           and walk the Healthy/Suspect/Probation/Quarantined state machine \
           with hysteresis. Probation cuts the channel's quantum to a \
           fraction of nominal through the §5 reset barrier (floored at the \
           max packet, keeping Thm 5.1); quarantine suspends the channel \
           and reinstates it on an exponential backoff. $(docv) is \
           comma-separated $(b,KEY=VALUE) over the defaults: $(b,every) \
           (tick seconds, default 0.05), $(b,alpha), $(b,suspect), \
           $(b,quarantine), $(b,exit), $(b,escalate), $(b,recover), \
           $(b,frac), $(b,backoff), $(b,factor), $(b,maxbackoff). Example: \
           $(b,every=0.05,frac=0.25,backoff=0.5). Quasi mode with a CFQ \
           scheduler only.")

let domains_arg =
  Arg.(
    value & opt non_negative_int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run $(docv) independent replicas of the scenario in parallel, one \
           per OCaml 5 domain. Replica 0 keeps $(b,--seed) (and the \
           $(b,--trace) path) so its report is exactly the single-domain \
           output; the others draw seeds from indexed substreams of the \
           master seed and write $(b,FILE.dK) traces. A merged summary \
           (delivered/goodput sums, merged monitor verdicts, merged \
           per-channel table when tracing) follows the per-replica reports. \
           $(b,0) means auto: one replica per recommended domain.")

(* One delivery sink shared by every mode. *)
type sink = {
  recovery : Stripe_metrics.Recovery.t;
  goodput : Stripe_metrics.Throughput.t;
}

let make_sink () =
  {
    recovery = Stripe_metrics.Recovery.create ();
    goodput = Stripe_metrics.Throughput.create ();
  }

let sink_deliver sink sim pkt =
  Stripe_metrics.Recovery.observe sink.recovery ~now:(Sim.now sim)
    ~seq:pkt.Packet.seq;
  Stripe_metrics.Throughput.account sink.goodput ~now:(Sim.now sim)
    ~bytes:pkt.Packet.size

(* What one scenario replica hands back to the main domain: its whole
   report as text (buffered so parallel replicas never interleave on
   stdout), plus the pieces the merged summary aggregates. *)
type replica_out = {
  text : string;
  delivered : int;
  ooo : int;
  goodput_mbps : float;
  verdict : Stripe_obs.Monitor.verdict option;
  counters : Stripe_obs.Counters.t option;
}

let run channel_confs sched_kind mode n_packets workload_kind marker_rounds
    loss_stop seed replay_file trace_out trace_format fault_specs
    impair_specs chaos_specs guard_window rx_buffer overflow_policy crash_at
    watchdog_k no_auto_suspend adapt_interval adapt_band health_spec domains =
  let n = List.length channel_confs in
  (* A malformed replay trace is a usage error, reported before any
     replica starts. *)
  let replay =
    match Option.map Stripe_workload.Trace_file.load replay_file with
    | entries -> Ok entries
    | exception Failure msg -> Error msg
  in
  match replay with
  | _ when n = 0 -> `Error (false, "need at least one channel")
  | Error msg -> `Error (false, msg)
  | Ok replay ->
    let confs = Array.of_list channel_confs in
    (* One self-contained scenario replica: its own sim, its own RNG
       chain seeded below, its own report text. Replica 0 with the
       master seed is the legacy run — with --domains 1 its text is
       printed verbatim, so the single-domain output is unchanged. *)
    let run_replica ~replica ~seed ~trace_out () =
      let buf = Buffer.create 4096 in
      let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let warn s = if replica = 0 then prerr_endline s in
    let sim = Sim.create () in
    let rng = Rng.create seed in
    (* Structured observability: when --trace is given, every instrumented
       component shares one sink that tees into a per-channel counter
       registry and the trace file. Otherwise the null sink keeps the hot
       paths allocation-free. *)
    let module Obs = Stripe_obs in
    let obs_counters, obs_sink, obs_close =
      match trace_out with
      | None -> (None, Obs.Sink.null, fun () -> ())
      | Some path ->
        let counters = Obs.Counters.create ~n in
        let oc = open_out path in
        let file_sink =
          match trace_format with
          | `Json -> Obs.Sink.jsonl oc
          | `Csv -> Obs.Sink.csv oc
        in
        let sink = Obs.Sink.tee (Obs.Counters.sink counters) file_sink in
        ( Some counters,
          sink,
          fun () ->
            Obs.Sink.flush sink;
            close_out oc )
    in
    (* A chaos plan arms the always-on invariant monitors: they ride the
       same event stream as --trace, teed in front of whatever sink the
       user asked for (the null sink when tracing is off). *)
    let chaos_actions = List.concat chaos_specs in
    let monitor =
      if chaos_actions = [] then None
      else Some (Obs.Monitor.create ?budget_bytes:rx_buffer ())
    in
    let obs_sink =
      match monitor with
      | Some m -> Obs.Sink.tee (Obs.Monitor.sink m) obs_sink
      | None -> obs_sink
    in
    let rates = Array.map (fun c -> c.rate) confs in
    (* Load-aware's debt oracle: outstanding transmit-queue bytes per
       link. The links are built after the scheduler (per mode), so the
       oracle reads through a cell that [make_links] fills in. *)
    let la_debt = ref (fun (_ : int) -> 0.0) in
    let scheduler =
      Scheduler.of_discipline sched_kind ~rates_bps:rates ~seed
        ~debt:(fun c -> !la_debt c)
    in
    let engine_opt = Scheduler.deficit scheduler in
    let sink = make_sink () in
    let lossy = ref true in
    let errors_stop = ref None in
    let aggregate = Array.fold_left (fun a c -> a +. c.rate) 0.0 confs in
    let interval = 700.0 *. 8.0 /. (aggregate *. 0.9) in
    (* Fault application and crash recovery are wired up per mode (the
       link payload type differs); the refs let the generic tail of [run]
       trigger them. *)
    let fault_ref = ref (fun (_ : Fault.action list) -> ()) in
    let crash_ref = ref None in
    (* The --chaos driver (set up by quasi mode) and its endpoint-down
       gates: a crashed sender drops offered packets, a crashed receiver
       drops arrivals on the floor until its restart. *)
    let chaos_ref = ref None in
    let tx_crashed = ref false in
    let rx_crashed = ref false in
    let tx_crash_drops = ref 0 in
    let rx_crash_drops = ref 0 in
    let rx_crash_wiped = ref 0 in
    let last_chaos_event = ref (-1) in
    (* The FIFO monitor's quiet line: chaos legally degrades delivery to
       quasi-FIFO while its effects drain (Thm 5.1), so strict FIFO
       resumes a grace after the last planned event. A health tick moves
       it past the wire backlog when it acted (its §5 barrier's reset
       markers queue behind that backlog) or, before the line, whenever
       real backlog remains. *)
    let grace = Float.max 0.25 (100.0 *. interval) in
    let max_prop = Array.fold_left (fun a c -> Float.max a c.delay) 0.0 confs in
    let quiet_line = ref neg_infinity in
    let push_quiet q =
      if q > !quiet_line then begin
        quiet_line := q;
        Option.iter (fun m -> Obs.Monitor.set_quiet_after m q) monitor
      end
    in
    let track_quiet ~acted ~now links =
      let drain_end a l =
        Float.max a
          (now +. (float_of_int (Link.queue_bytes l * 8) /. Link.rate_bps l))
      in
      let drained = Array.fold_left drain_end now links in
      if acted || (now < !quiet_line && drained -. now > 0.05) then
        push_quiet (drained +. max_prop +. grace)
    in
    let impairs = impair_specs in
    List.iter
      (fun (c, _) ->
        if c >= n then
          warn (Printf.sprintf "warning: --impair names channel %d of %d" c n))
      impairs;
    let impair_for i =
      List.fold_left
        (fun acc (c, imp) -> if c = i then imp else acc)
        Impair.none impairs
    in
    let clear_impair = ref (fun () -> ()) in
    let stop_errors () =
      lossy := false;
      !clear_impair ()
    in
    (* End-of-run hook (e.g. flushing the channel guard's held packets
       once no more arrivals can fill their gaps). *)
    let finish_ref = ref (fun () -> ()) in
    (* Set when the workload has offered its last packet: recurring
       policy timers (the --adapt probe) stop rescheduling so the
       simulation can drain and terminate. *)
    let offer_done = ref false in
    (* Channel loss is applied at the receive edge, past the link model,
       while the run is lossy; markers are spared. The wire's own Drop
       instrumentation never sees it, so it is recorded here. Loss is
       drawn from the master RNG, each link's other draws from its own
       split of it, so the whole run reproduces from one --seed. *)
    let lost_at_edge i ~marker =
      let loss = confs.(i).loss in
      let dropped =
        !lossy && loss > 0.0 && (not marker) && Rng.bernoulli rng ~p:loss
      in
      if dropped && Obs.Sink.active obs_sink then
        Obs.Sink.emit obs_sink
          (Obs.Event.v ~time:(Sim.now sim) ~channel:i Obs.Event.Drop);
      dropped
    in
    let use_links links =
      la_debt := (fun c -> float_of_int (Link.queue_bytes links.(c)));
      fault_ref := (fun schedule -> Fault.apply sim ~links schedule);
      clear_impair :=
        (fun () ->
          Array.iter (fun l -> Link.set_impairments l Impair.none) links)
    in
    (* The hand-wired links of the mppp and fragment modes, whose
       payloads are fragments rather than packets. *)
    let make_links receive =
      let links =
        Array.mapi
          (fun i conf ->
            Link.create sim
              ~rate_bps:conf.rate ~prop_delay:conf.delay ~channel:i
              ~rng:(Rng.split rng) ~impair:(impair_for i) ~sink:obs_sink
              ~deliver:(fun payload ->
                if not (lost_at_edge i ~marker:false) then receive i payload)
              ())
          confs
      in
      use_links links;
      links
    in
    (* Per-mode plumbing returns: push, describe (extra stats lines). *)
    let push, describe =
      match mode with
      | `Quasi | `None | `Seq ->
        if Obs.Sink.active obs_sink then
          Scheduler.observe scheduler ~now:(fun () -> Sim.now sim) obs_sink;
        (* Wire damage the link CRC missed mangles markers only: that is
           the damage the protocol-level checksum exists to catch;
           corrupted data is CRC-dropped like loss. *)
        let corrupt_rng = Rng.split rng in
        let logical = mode = `Quasi && engine_opt <> None in
        let watchdog =
          Option.map
            (fun k ->
              (* Fallback cadence estimate for the start-up window, before
                 the channel's own inter-marker gap has been observed: a
                 round moves ~n quanta of wire, markers come every
                 [marker_rounds] rounds. *)
              let round_time = float_of_int n *. 1500.0 *. 8.0 /. (aggregate *. 0.9) in
              {
                Resequencer.intervals = k;
                fallback = float_of_int (max 1 marker_rounds) *. round_time;
              })
            watchdog_k
        in
        let pressure_episodes = ref 0 in
        (* The rest of the set-up, for either wire: the plain one, or the
           channel guard's tagged one. *)
        let wire_up : type w.
            w Bundle.wire -> (Packet.t -> unit) * (unit -> string list) =
         fun wire ->
          let b =
            Bundle.create sim ~scheduler
              ~channels:(Array.map (fun c -> (c.rate, c.delay)) confs)
              ~wire
              ~receiver:
                (match mode with
                | `Seq -> Bundle.Seq
                | _ -> if logical then Bundle.Logical else Bundle.Unordered)
              ?marker:
                (if logical && marker_rounds > 0 then
                   Some (Marker.make ~every_rounds:marker_rounds ())
                 else None)
              ~rng ~impair:impair_for ~corrupt_rng
              ~drop:(fun ~channel pkt ->
                lost_at_edge channel ~marker:(Packet.is_marker pkt)
                || !rx_crashed
                   && begin
                     (* Data only, as the fleet counts it: markers carry
                        no payload to conserve. *)
                     if not (Packet.is_marker pkt) then incr rx_crash_drops;
                     true
                   end)
              ?watchdog ?budget_bytes:rx_buffer ~overflow:overflow_policy
              ~on_pressure:(fun ~high -> if high then incr pressure_episodes)
              ~auto_suspend:(not no_auto_suspend)
              ~sink:obs_sink
              ~deliver:(fun pkt -> sink_deliver sink sim pkt)
              ()
          in
          let links = Bundle.links b and striper = Bundle.striper b in
          use_links links;
          let reseq_stats () =
            match mode with
            | `Seq ->
              let r = Bundle.seq_resequencer b in
              [
                Printf.sprintf
                  "seq mode: fast-path=%d detected-losses=%d (guaranteed FIFO)"
                  (Seq_resequencer.fast_deliveries r)
                  (Seq_resequencer.detected_losses r);
              ]
            | _ when not logical -> []
            | _ ->
              let r = Bundle.resequencer b in
              [
                Printf.sprintf
                  "resequencer: skips=%d wd-skips=%d dead-declared=%d \
                   round-realigns=%d buffered-high-water=%d pkts"
                  (Resequencer.skips r)
                  (Resequencer.watchdog_skips r)
                  (Resequencer.dead_declarations r)
                  (Resequencer.round_realigns r)
                  (Resequencer.buffer_high_water_packets r);
              ]
              @ (match rx_buffer with
                | Some b ->
                  [
                    Printf.sprintf
                      "rx-buffer: budget=%dB max-buffered=%dB overflows=%d \
                       dropped=%d forced=%d pressure-episodes=%d"
                      b
                      (Resequencer.max_buffered_bytes r)
                      (Resequencer.overflows r)
                      (Resequencer.overflow_drops r)
                      (Resequencer.forced_deliveries r)
                      !pressure_episodes;
                  ]
                | None -> [])
              @ (if Resequencer.corrupt_marker_discards r > 0 then
                   [
                     Printf.sprintf "corrupt markers discarded: %d"
                       (Resequencer.corrupt_marker_discards r);
                   ]
                 else [])
              @ (match Bundle.guard b with
                | Some g ->
                  [
                    Printf.sprintf
                      "guard: dup-discards=%d reorder-restores=%d \
                       corrupt-discards=%d max-held=%d pkts"
                      (Channel_guard.dup_discards g)
                      (Channel_guard.reorder_restores g)
                      (Channel_guard.corrupt_discards g)
                      (Channel_guard.max_held_packets g);
                  ]
                | None -> [])
          in
          Option.iter
            (fun g -> finish_ref := fun () -> Channel_guard.flush g)
            (Bundle.guard b);
          (* Adaptive striping (PROTOCOL.md §11) and the gray-failure
             health engine (§13): recurring ticks until the offer ends. *)
          let adapt_stats = ref (fun () -> []) in
          (match adapt_interval, engine_opt with
          | Some dt, Some e when logical ->
            let probe = Rate_probe.create ~n () in
            let counts, step =
              Bundle_control.adapt_loop probe b ~band:adapt_band
                ~max_packet:1500
            in
            let rec probe_tick () =
              ignore (step ~now:(Sim.now sim));
              if not !offer_done then Sim.schedule_after sim ~delay:dt probe_tick
            in
            Sim.schedule_after sim ~delay:dt probe_tick;
            adapt_stats :=
              (fun () ->
                let join f a =
                  String.concat " " (Array.to_list (Array.map f a))
                in
                [
                  Printf.sprintf "adaptive: probes=%d retunes=%d deferred=%d"
                    (Rate_probe.samples probe)
                    counts.retunes counts.deferred;
                  Printf.sprintf "  goodput-est: [%s] Mbps  quanta: [%s]"
                    (join
                       (fun r -> Printf.sprintf "%.2f" (r /. 1e6))
                       (Rate_probe.rates probe))
                    (join string_of_int (Deficit.quanta e));
                ])
          | Some _, _ ->
            warn "warning: --adapt needs quasi mode with a CFQ scheduler"
          | None, _ -> ());
          let health_stats = ref (fun () -> []) in
          (match health_spec with
          | Some (hconfig, every) when logical ->
            let tick_every = Option.value every ~default:0.05 in
            let h =
              Health.create ~config:hconfig
                ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
                ~sink:obs_sink ~n ()
            in
            let counts, step = Bundle_control.health_loop h b ~floor:1500 in
            let rec health_tick () =
              let now = Sim.now sim in
              let { Bundle_control.transitions; retuned } = step ~now in
              track_quiet ~acted:(transitions <> [] || retuned) ~now links;
              if not !offer_done then
                Sim.schedule_after sim ~delay:tick_every health_tick
            in
            Sim.schedule_after sim ~delay:tick_every health_tick;
            health_stats :=
              (fun () ->
                let per f =
                  String.concat " " (List.init n f)
                in
                [
                  Printf.sprintf
                    "health: quarantines=%d reinstates=%d retunes=%d \
                     deferred=%d guard-deferrals=%d"
                    counts.quarantines counts.reinstates counts.retunes
                    counts.deferred
                    (Health.deferred_quarantines h);
                  Printf.sprintf "  states: [%s]  scores: [%s]"
                    (per (fun c -> Health.state_name (Health.state h c)))
                    (per (fun c -> Printf.sprintf "%.2f" (Health.score h c)));
                ])
          | Some _ ->
            warn "warning: --health needs quasi mode with a CFQ scheduler"
          | None -> ());
          (match engine_opt with
          | Some e when logical ->
            crash_ref :=
              Some
                (fun () ->
                  (* State loss first (the receiver starts drifting), reboot
                     with the reset barrier 20 ms later. *)
                  Deficit.set_round e (Deficit.round e + 7);
                  Sim.schedule_after sim ~delay:0.02 (fun () ->
                      Striper.send_reset striper));
            (* Chaos driver: storms toggle link carrier (the carrier
               watchers above do sender-side suspend/resume), crashes map
               onto the PROTOCOL.md §12 endpoint crash/restart entry
               points (a crashed receiver's arrivals are dropped at the
               receive edge), and violate poisons the FIFO monitor's
               high-water so the very next delivery registers — proving
               the detection path fires. *)
            chaos_ref :=
              Some
                {
                  Chaos.set_channel_up =
                    (fun c up -> if c >= 0 && c < n then Link.set_up links.(c) up);
                  crash =
                    (fun side b' ->
                      if b' = 0 then
                        match side with
                        | Chaos.Tx -> tx_crashed := true
                        | Chaos.Rx ->
                          rx_crashed := true;
                          rx_crash_wiped :=
                            !rx_crash_wiped
                            + Resequencer.crash_restart (Bundle.resequencer b));
                  restart =
                    (fun side b' ->
                      if b' = 0 then
                        match side with
                        | Chaos.Tx ->
                          tx_crashed := false;
                          Striper.crash_restart striper
                        | Chaos.Rx -> rx_crashed := false);
                  violate =
                    (fun _ ->
                      match monitor with
                      | Some m ->
                        (* No later push may hide the poisoned delivery. *)
                        quiet_line := infinity;
                        Obs.Monitor.set_quiet_after m (Sim.now sim);
                        Obs.Sink.emit (Obs.Monitor.sink m)
                          (Obs.Event.v ~time:(Sim.now sim) ~size:0 ~seq:max_int
                             Obs.Event.Deliver)
                      | None -> ());
                  set_loss =
                    (fun c l -> if c >= 0 && c < n then Link.set_loss links.(c) l);
                  scale_rate =
                    (fun c f ->
                      if c >= 0 && c < n then
                        Link.set_rate_bps links.(c) (confs.(c).rate *. f));
                }
          | _ -> ());
          ( (fun pkt ->
              if !tx_crashed then incr tx_crash_drops else Striper.push striper pkt),
            fun () ->
              List.concat
                [
                  Array.to_list
                    (Array.mapi
                       (fun i _ ->
                         Printf.sprintf "  ch%d: %7d pkts %9d bytes" i
                           (Striper.channel_packets striper i)
                           (Striper.channel_bytes striper i))
                       links);
                  [ Printf.sprintf "markers: %d" (Striper.markers_sent striper) ];
                  (if Striper.undispatched_drops striper > 0 then
                     [
                       Printf.sprintf "dropped with no live channel: %d"
                         (Striper.undispatched_drops striper);
                     ]
                   else []);
                  (if impairs <> [] then begin
                     let sum f = Array.fold_left (fun a l -> a + f l) 0 links in
                     [
                       Printf.sprintf
                         "impairments: reordered=%d duplicated=%d corrupted=%d \
                          crc-dropped=%d"
                         (sum Link.reordered_packets)
                         (sum Link.duplicated_packets)
                         (sum Link.corrupted_packets)
                         (sum Link.corrupt_drops);
                     ]
                   end
                   else []);
                  reseq_stats ();
                  !adapt_stats ();
                  !health_stats ();
                ] )
        in
        (match guard_window with
        | Some w when logical -> wire_up (Bundle.Guarded w)
        | Some _ ->
          warn "warning: --guard needs quasi mode with a CFQ scheduler";
          wire_up Bundle.Plain
        | None -> wire_up Bundle.Plain)
      | `Mppp ->
        let receiver = ref None in
        let links =
          make_links (fun i frag ->
              match !receiver with
              | Some r -> Mppp.Receiver.receive r ~link:i frag
              | None -> ())
        in
        let rx =
          Mppp.Receiver.create ~n_links:n
            ~deliver:(fun pkt -> sink_deliver sink sim pkt)
            ()
        in
        receiver := Some rx;
        let sender =
          Mppp.Sender.create ~scheduler
            ~emit:(fun ~link f ->
              ignore (Link.send links.(link) ~size:(Mppp.wire_size f) f))
            ()
        in
        ( Mppp.Sender.push sender,
          fun () ->
            [
              Printf.sprintf "mppp: fragments=%d header-bytes=%d lost=%d discarded=%d"
                (Mppp.Sender.fragments_sent sender)
                (Mppp.Sender.header_bytes_sent sender)
                (Mppp.Receiver.lost_fragments rx)
                (Mppp.Receiver.discarded_datagrams rx);
            ] )
      | `Fragment ->
        let reasm = ref None in
        let links =
          make_links (fun i frag ->
              match !reasm with
              | Some r -> Fragmenter.Reassembler.receive r ~channel:i frag
              | None -> ())
        in
        let rx =
          Fragmenter.Reassembler.create ~n_channels:n
            ~deliver:(fun pkt -> sink_deliver sink sim pkt)
            ()
        in
        reasm := Some rx;
        let sender =
          Fragmenter.Sender.create ~shares:rates
            ~emit:(fun ~channel f ->
              ignore
                (Link.send links.(channel) ~size:(Fragmenter.wire_size f) f))
            ()
        in
        ( Fragmenter.Sender.push sender,
          fun () ->
            [
              Printf.sprintf "fragmenting: %d minipackets/datagram, dropped=%d"
                n
                (Fragmenter.Reassembler.dropped_incomplete rx);
            ] )
    in
    let gen =
      match workload_kind with
      | `Bimodal -> Stripe_workload.Genpkt.bimodal ~rng ~small:200 ~large:1000 ()
      | `Alternating -> Stripe_workload.Genpkt.alternating ~small:200 ~large:1000
      | `Uniform -> Stripe_workload.Genpkt.uniform ~rng ~lo:64 ~hi:1500
      | `Imix -> Stripe_workload.Genpkt.imix ~rng
      | `Fixed -> Stripe_workload.Genpkt.fixed 1000
    in
    let fault_actions = List.concat fault_specs in
    if fault_actions <> [] then !fault_ref fault_actions;
    (match crash_at, !crash_ref with
    | Some t, Some reboot -> Fault.crash sim ~at:t reboot
    | Some _, None ->
      warn "warning: --crash-at needs quasi mode with a CFQ scheduler"
    | None, _ -> ());
    (match chaos_actions, !chaos_ref with
    | [], _ -> ()
    | _ :: _, None ->
      warn "warning: --chaos needs quasi mode with a CFQ scheduler"
    | _ :: _, Some driver ->
      if
        List.exists
          (function
            | Chaos.Crash { bundle; _ } | Chaos.Violate { bundle; _ } ->
              bundle <> 0
            | Chaos.Storm _ | Chaos.Degrade _ -> false)
          chaos_actions
      then
        warn
          "warning: --chaos names a bundle other than 0; those actions do \
           nothing here";
      push_quiet (Chaos.horizon chaos_actions +. grace);
      Chaos.apply sim
        ~on_event:(fun ~index ~time:_ _ -> last_chaos_event := index)
        driver chaos_actions);
    let n_offered =
      match replay with
      | Some entries ->
        let n = List.length entries in
        List.iteri
          (fun i e ->
            Sim.schedule sim ~at:e.Stripe_workload.Trace_file.time (fun () ->
                push e.Stripe_workload.Trace_file.packet;
                if i = n - 1 then offer_done := true;
                match loss_stop with
                | Some frac
                  when float_of_int (i + 1) >= frac *. float_of_int n
                       && !errors_stop = None ->
                  errors_stop := Some (Sim.now sim);
                  stop_errors ()
                | Some _ | None -> ()))
          entries;
        n
      | None ->
        let seq = ref 0 in
        let rec tick () =
          if !seq < n_packets then begin
            push (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:(gen ()) ());
            incr seq;
            (match loss_stop with
            | Some frac
              when float_of_int !seq >= frac *. float_of_int n_packets
                   && !errors_stop = None ->
              errors_stop := Some (Sim.now sim);
              stop_errors ()
            | Some _ | None -> ());
            Sim.schedule_after sim ~delay:interval tick
          end
          else offer_done := true
        in
        tick ();
        n_packets
    in
    Sim.run sim;
    !finish_ref ();
    out "channels: %d  packets: %d  mode: %s\n" n n_offered
      (match mode with
      | `Quasi -> "quasi-FIFO (logical reception + markers)"
      | `Seq -> "guaranteed FIFO (sequence numbers)"
      | `None -> "no resequencing"
      | `Mppp -> "Multilink PPP (RFC 1717)"
      | `Fragment -> "fragmenting minipackets");
    List.iter (fun line -> out "%s\n" line) (describe ());
    out "delivered: %d  out-of-order: %d  max displacement: %d\n"
      (Stripe_metrics.Recovery.deliveries sink.recovery)
      (Stripe_metrics.Recovery.out_of_order sink.recovery)
      (Stripe_metrics.Recovery.max_displacement sink.recovery);
    out "goodput: %.2f Mbps\n"
      (Stripe_metrics.Throughput.mbps sink.goodput);
    (match monitor with
    | Some m ->
      out
        "chaos: %d actions (last event index %d)  tx-crash-dropped: %d  \
         rx-crash-dropped: %d  rx-crash-wiped: %d\n"
        (List.length chaos_actions)
        !last_chaos_event !tx_crash_drops !rx_crash_drops !rx_crash_wiped;
      out "monitors: violations=%d inversions=%d events-seen=%d\n"
        (Obs.Monitor.violations m)
        (Obs.Monitor.seq_inversions m)
        (Obs.Monitor.events_seen m);
      (match Obs.Monitor.first_violation m with
      | Some (t, msg) ->
        out "MONITOR VIOLATION at t=%.3f (seed %d, chaos event %d): %s\n"
          t seed !last_chaos_event msg
      | None -> ())
    | None -> ());
    if fault_actions <> [] || crash_at <> None || chaos_actions <> [] then begin
      let end_ = Sim.now sim in
      out
        "availability: %.1f%% of 10 ms slots  longest outage: %.1f ms\n"
        (100.0
        *. Stripe_metrics.Recovery.availability sink.recovery ~from_:0.0
             ~until_:end_ ~bucket:0.01)
        (1000.0
        *. Stripe_metrics.Recovery.max_gap sink.recovery ~from_:0.0
             ~until_:end_)
    end;
    (match !errors_stop with
    | Some t -> (
      match Stripe_metrics.Recovery.resync_time sink.recovery ~errors_stop:t with
      | Some dt ->
        out "resync after losses stopped: %.2f ms\n" (1000.0 *. dt)
      | None -> out "stream did not resynchronize\n")
    | None -> ());
    (match obs_counters with
    | Some c ->
      out "\n%s\n" (Stripe_metrics.Table.render (Stripe_metrics.Channel_report.table c));
      out "trace: %d events, %d rounds, %d resets -> %s\n"
        (Obs.Counters.events_seen c) (Obs.Counters.rounds c)
        (Obs.Counters.resets c)
        (Option.value trace_out ~default:"-")
    | None -> ());
    obs_close ();
    {
      text = Buffer.contents buf;
      delivered = Stripe_metrics.Recovery.deliveries sink.recovery;
      ooo = Stripe_metrics.Recovery.out_of_order sink.recovery;
      goodput_mbps = Stripe_metrics.Throughput.mbps sink.goodput;
      verdict = Option.map Obs.Monitor.verdict monitor;
      counters = obs_counters;
    }
    in
    (* N independent replicas of the scenario, one per domain: replica
       0 keeps the master seed (and the --trace path), the others draw
       their seeds from indexed substreams and write FILE.dK traces.
       Past one, each replica's report prints whole, then a merged one. *)
    let domains = Parallel.resolve domains in
    let rseed k =
      if k = 0 then seed else Rng.int (Rng.stream ~seed k) 0x3FFFFFFF
    in
    let trace_for k =
      Option.map
        (fun p -> if k = 0 then p else Printf.sprintf "%s.d%d" p k)
        trace_out
    in
    let rs =
      Parallel.run domains (fun k ->
          run_replica ~replica:k ~seed:(rseed k) ~trace_out:(trace_for k) ())
    in
    if domains = 1 then begin
      print_string rs.(0).text;
      `Ok ()
    end
    else begin
      Array.iteri
        (fun k r ->
          Printf.printf "=== replica %d (seed %d) ===\n%s" k (rseed k) r.text)
        rs;
      Printf.printf "=== merged (%d domains) ===\n" domains;
      Printf.printf
        "delivered: %d  out-of-order: %d  aggregate goodput: %.2f Mbps\n"
        (Array.fold_left (fun a r -> a + r.delivered) 0 rs)
        (Array.fold_left (fun a r -> a + r.ooo) 0 rs)
        (Array.fold_left (fun a r -> a +. r.goodput_mbps) 0.0 rs);
      (match Array.to_list rs |> List.filter_map (fun r -> r.verdict) with
      | [] -> ()
      | vs ->
        let v = Stripe_obs.Monitor.merged_verdict vs in
        Printf.printf "monitors: violations=%d inversions=%d events-seen=%d\n"
          v.Stripe_obs.Monitor.violations v.seq_inversions v.events_seen;
        (match v.first_violation with
        | Some (t, msg) ->
          Printf.printf "MONITOR VIOLATION at t=%.3f: %s\n" t msg
        | None -> ()));
      (match Array.to_list rs |> List.filter_map (fun r -> r.counters) with
      | [] -> ()
      | regs ->
        print_newline ();
        Stripe_metrics.Table.print
          (Stripe_metrics.Channel_report.merged_table ~title:"all replicas"
             regs));
      `Ok ()
    end

let cmd =
  let doc = "simulate reliable and scalable channel striping (SIGCOMM 1996)" in
  let info = Cmd.info "stripe-sim" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ channels $ scheduler_arg $ mode_arg $ packets $ workload
       $ markers $ loss_stop $ seed $ replay_file $ trace_out
       $ trace_format $ fault_specs $ impair_specs $ chaos_specs $ guard_window
       $ rx_buffer $ overflow_policy $ crash_at $ watchdog_k $ no_auto_suspend
       $ adapt_interval $ adapt_band $ health_spec $ domains_arg))

let () = exit (Cmd.eval cmd)
