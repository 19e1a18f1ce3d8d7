(* Tests for the structured observability subsystem (Stripe_obs): typed
   event export, pluggable sinks, the per-channel counter registry, and
   the trace-driven theorem checkers — Theorem 4.1 (FIFO delivery) and
   Theorem 5.1 (marker resynchronization) verified mechanically against a
   recorded event stream. *)

open Stripe_core
open Stripe_packet
module Obs = Stripe_obs

let test_event_json () =
  let e =
    Obs.Event.v ~channel:2 ~round:3 ~dc:150 ~size:700 ~seq:42 ~time:1.5
      Obs.Event.Deliver
  in
  Alcotest.(check string) "json object"
    "{\"t\":1.500000000,\"ev\":\"deliver\",\"ch\":2,\"round\":3,\"dc\":150,\"size\":700,\"seq\":42}"
    (Obs.Event.to_json e)

let test_event_csv () =
  Alcotest.(check string) "header" "time,event,channel,round,dc,size,seq"
    Obs.Event.csv_header;
  let e = Obs.Event.v ~channel:0 ~time:0.25 Obs.Event.Drop in
  Alcotest.(check string) "row with sentinel fields"
    "0.250000000,drop,0,-1,0,-1,-1" (Obs.Event.to_csv e)

(* Every kind. The length check against [n_kinds] fails when a kind is
   added to the type but not here. *)
let all_kinds =
  Obs.Event.
    [
      Enqueue; Dequeue; Transmit; Drop; Txq_drop; Arrival; Marker_sent;
      Marker_applied; Skip; Block; Unblock; Reset_barrier; Deliver; Round;
      Channel_down; Channel_up; Watchdog_skip; Suspend; Resume; Dup_discard;
      Reorder_restore; Corrupt_discard; Buffer_overflow; Retune; Crash;
      Restart; Epoch_discard; Violation; Health_suspect; Probation;
      Quarantine; Reinstate;
    ]

let test_kind_names_roundtrip () =
  Alcotest.(check int) "every kind listed" Obs.Event.n_kinds
    (List.length all_kinds);
  List.iter
    (fun k ->
      let name = Obs.Event.kind_name k in
      match Obs.Event.kind_of_name name with
      | Some k' -> Alcotest.(check bool) name true (k = k')
      | None -> Alcotest.failf "kind %s does not parse back" name)
    all_kinds;
  Alcotest.(check (list int)) "kind_index is one-to-one onto 0 .. n_kinds - 1"
    (List.init Obs.Event.n_kinds Fun.id)
    (List.sort compare (List.map Obs.Event.kind_index all_kinds));
  Alcotest.(check bool) "unknown name rejected" true
    (Obs.Event.kind_of_name "bogus" = None)

let seq_event i =
  Obs.Event.v ~seq:i ~time:(float_of_int i) Obs.Event.Enqueue

let recorded_seqs sink =
  List.map (fun e -> e.Obs.Event.seq) (Obs.Sink.events sink)

let test_collector_sink () =
  Alcotest.(check bool) "null sink inactive" false
    (Obs.Sink.active Obs.Sink.null);
  let c = Obs.Sink.collector () in
  Alcotest.(check bool) "collector active" true (Obs.Sink.active c);
  for i = 0 to 9 do
    Obs.Sink.emit c (seq_event i)
  done;
  Alcotest.(check (list int)) "emission order preserved" (List.init 10 Fun.id)
    (recorded_seqs c)

let test_ring_sink () =
  let r = Obs.Sink.ring ~capacity:4 in
  for i = 0 to 9 do
    Obs.Sink.emit r (seq_event i)
  done;
  Alcotest.(check (list int)) "most recent events, oldest first" [ 6; 7; 8; 9 ]
    (recorded_seqs r);
  let small = Obs.Sink.ring ~capacity:4 in
  Obs.Sink.emit small (seq_event 0);
  Alcotest.(check (list int)) "partial fill" [ 0 ] (recorded_seqs small)

let test_tee_sink () =
  Alcotest.(check bool) "tee of nulls collapses to inactive" false
    (Obs.Sink.active (Obs.Sink.tee Obs.Sink.null Obs.Sink.null));
  let a = Obs.Sink.collector () and b = Obs.Sink.collector () in
  let t = Obs.Sink.tee a b in
  Obs.Sink.emit t (seq_event 7);
  Alcotest.(check (list int)) "left side fed" [ 7 ] (recorded_seqs a);
  Alcotest.(check (list int)) "right side fed" [ 7 ] (recorded_seqs b);
  Alcotest.(check (list int)) "tee reads back from retaining side" [ 7 ]
    (recorded_seqs t)

let test_file_sinks () =
  let path = Filename.temp_file "stripe_obs" ".jsonl" in
  let oc = open_out path in
  let s = Obs.Sink.jsonl oc in
  Obs.Sink.emit s (Obs.Event.v ~channel:1 ~size:700 ~time:0.5 Obs.Event.Transmit);
  Obs.Sink.flush s;
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "one JSON object per line"
    "{\"t\":0.500000000,\"ev\":\"transmit\",\"ch\":1,\"round\":-1,\"dc\":0,\"size\":700,\"seq\":-1}"
    line;
  let path = Filename.temp_file "stripe_obs" ".csv" in
  let oc = open_out path in
  let s = Obs.Sink.csv oc in
  Obs.Sink.emit s (Obs.Event.v ~channel:0 ~time:1.0 Obs.Event.Skip);
  Obs.Sink.flush s;
  close_out oc;
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "csv header first" Obs.Event.csv_header header;
  Alcotest.(check string) "csv row" "1.000000000,skip,0,-1,0,-1,-1" row

let test_counters_registry () =
  let reg = Obs.Counters.create ~n:2 in
  let s = Obs.Counters.sink reg in
  let emit ?channel ?round ?dc ?size ?seq kind =
    Obs.Sink.emit s (Obs.Event.v ?channel ?round ?dc ?size ?seq ~time:0.0 kind)
  in
  emit ~channel:0 ~size:700 Obs.Event.Transmit;
  emit ~channel:0 ~size:700 ~seq:0 Obs.Event.Enqueue;
  emit ~channel:0 ~size:300 ~seq:1 Obs.Event.Enqueue;
  emit ~channel:0 ~size:700 ~seq:0 Obs.Event.Deliver;
  emit ~channel:1 Obs.Event.Drop;
  emit ~channel:1 Obs.Event.Skip;
  emit ~channel:0 Obs.Event.Marker_sent;
  emit ~channel:0 Obs.Event.Marker_applied;
  emit ~round:3 Obs.Event.Round;
  emit Obs.Event.Reset_barrier;
  emit ~channel:9 Obs.Event.Drop;
  (* out of range: global count only *)
  let c0 = Obs.Counters.channel reg 0 and c1 = Obs.Counters.channel reg 1 in
  Alcotest.(check int) "tx packets" 1 c0.Obs.Counters.tx_packets;
  Alcotest.(check int) "tx bytes" 700 c0.Obs.Counters.tx_bytes;
  Alcotest.(check int) "high-water occupancy peaks at 2" 2
    c0.Obs.Counters.hw_buffered_packets;
  Alcotest.(check int) "occupancy after one delivery" 1
    c0.Obs.Counters.buffered_packets;
  Alcotest.(check int) "delivered" 1 c0.Obs.Counters.delivered_packets;
  Alcotest.(check int) "markers" 1 c0.Obs.Counters.markers_sent;
  Alcotest.(check int) "drops on ch1" 1 c1.Obs.Counters.drops;
  Alcotest.(check int) "skips on ch1" 1 c1.Obs.Counters.skips;
  Alcotest.(check int) "per-channel drop total ignores unknown channel" 1
    (Obs.Counters.total_drops reg);
  Alcotest.(check int) "rounds high water" 3 (Obs.Counters.rounds reg);
  Alcotest.(check int) "resets" 1 (Obs.Counters.resets reg);
  Alcotest.(check int) "every event counted" 11 (Obs.Counters.events_seen reg)

(* A synchronous striper/resequencer pair sharing one sink, as in
   test_resequencer's Pair but instrumented. *)
module Pair = struct
  type t = {
    striper : Striper.t;
    reseq : Resequencer.t;
    wires : Packet.t Queue.t array;
  }

  let create ?marker ~quanta ~sink () =
    let n = Array.length quanta in
    let engine = Srr.create ~quanta () in
    let wires = Array.init n (fun _ -> Queue.create ()) in
    let reseq =
      Resequencer.create ~deficit:(Deficit.clone_initial engine) ~sink
        ~deliver:(fun ~channel:_ _ -> ())
        ()
    in
    let striper =
      Striper.create
        ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
        ?marker ~sink
        ~emit:(fun ~channel pkt -> Queue.add pkt wires.(channel))
        ()
    in
    { striper; reseq; wires }

  let send t sizes =
    List.iteri
      (fun seq size -> Striper.push t.striper (Packet.data ~seq ~size ()))
      sizes

  let shuttle ~rng t =
    let nonempty () =
      Array.to_list t.wires
      |> List.mapi (fun i q -> (i, q))
      |> List.filter (fun (_, q) -> not (Queue.is_empty q))
    in
    let rec go () =
      match nonempty () with
      | [] -> ()
      | live ->
        let c, q =
          List.nth live (Stripe_netsim.Rng.int rng (List.length live))
        in
        Resequencer.receive t.reseq ~channel:c (Queue.pop q);
        go ()
    in
    go ()
end

let test_theorem41_trace_check () =
  (* Theorem 4.1 verified against the event stream rather than the
     delivery callback: a clean run's Deliver events must carry the
     sender's sequence in order. Counters are tee'd alongside to
     cross-check totals against the trace. *)
  let rng = Stripe_netsim.Rng.create 7 in
  let reg = Obs.Counters.create ~n:3 in
  let collector = Obs.Sink.collector () in
  let sink = Obs.Sink.tee (Obs.Counters.sink reg) collector in
  let pair = Pair.create ~quanta:[| 1500; 1500; 1500 |] ~sink () in
  let sizes = List.init 400 (fun _ -> 50 + Stripe_netsim.Rng.int rng 1450) in
  Pair.send pair sizes;
  Pair.shuttle ~rng pair;
  let events = Obs.Sink.events collector in
  Alcotest.(check (list (pair int int))) "Theorem 4.1: no FIFO violations" []
    (Obs.Check.fifo_violations events);
  Alcotest.(check (list int)) "every packet delivered once, in order"
    (List.init 400 Fun.id)
    (Obs.Check.delivered_seqs events);
  Alcotest.(check int) "counters agree with trace" 400
    (Obs.Counters.total_delivered_packets reg);
  Alcotest.(check int) "transmitted bytes accounted"
    (List.fold_left ( + ) 0 sizes)
    (Obs.Counters.total_tx_bytes reg);
  Alcotest.(check int) "transmit events match sends" 400
    (Obs.Check.count Obs.Event.Transmit events)

let test_scheduler_round_events () =
  let sink = Obs.Sink.collector () in
  let sched = Scheduler.srr ~quanta:[| 100; 100 |] () in
  Scheduler.observe sched sink;
  let striper =
    Striper.create ~scheduler:sched ~emit:(fun ~channel:_ _ -> ()) ()
  in
  for seq = 0 to 7 do
    Striper.push striper (Packet.data ~seq ~size:100 ())
  done;
  (* 8 packets over 2 channels at one packet per visit = 4 rounds; each
     round's last consume wraps the pointer into the next, so the wraps
     land in rounds 1..4. *)
  let rounds =
    List.filter_map
      (fun e ->
        if e.Obs.Event.kind = Obs.Event.Round then Some e.Obs.Event.round
        else None)
      (Obs.Sink.events sink)
  in
  Alcotest.(check (list int)) "one event per round wrap" [ 1; 2; 3; 4 ] rounds

let test_theorem51_trace_check () =
  (* A lossy simulated run, traced end to end: links emit wire events,
     the striper stamps transmissions, the resequencer reports skips and
     deliveries. Losses stop halfway; Theorem 5.1 promises no Skip event
     later than one marker interval (plus the one-way delay) after the
     last Drop, and FIFO delivery from that point on. *)
  let open Stripe_netsim in
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let trace = Obs.Sink.collector () in
  let engine = Srr.create ~quanta:[| 1500; 1500 |] () in
  let lossy = ref true in
  let errors_stop = ref 0.0 in
  let reseq =
    Resequencer.create
      ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ~sink:trace
      ~deliver:(fun ~channel:_ _ -> ())
      ()
  in
  let links =
    Array.init 2 (fun i ->
        Link.create sim
          ~rate_bps:8e6 ~prop_delay:0.005 ~channel:i ~sink:trace
          ~deliver:(fun pkt ->
            let dropped =
              !lossy
              && (not (Packet.is_marker pkt))
              && Rng.bernoulli rng ~p:0.25
            in
            if dropped then
              Obs.Sink.emit trace
                (Obs.Event.v ~time:(Sim.now sim) ~channel:i
                   ~size:pkt.Packet.size Obs.Event.Drop)
            else Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let every_rounds = 4 in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds ())
      ~now:(fun () -> Sim.now sim)
      ~sink:trace
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  let n_packets = 3000 and size = 700 in
  (* Offer ~90% of the 16 Mbps aggregate. *)
  let interval = float_of_int (size * 8) /. (16e6 *. 0.9) in
  let seq = ref 0 in
  let rec tick () =
    if !seq < n_packets then begin
      Striper.push striper (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size ());
      incr seq;
      if 2 * !seq >= n_packets && !lossy then begin
        lossy := false;
        errors_stop := Sim.now sim
      end;
      Sim.schedule_after sim ~delay:interval tick
    end
  in
  tick ();
  Sim.run sim;
  let events = Obs.Sink.events trace in
  Alcotest.(check bool) "losses occurred" true
    (Obs.Check.count Obs.Event.Drop events > 0);
  Alcotest.(check bool) "receiver skipped channel visits" true
    (Obs.Check.count Obs.Event.Skip events > 0);
  (* One round moves ~2 * 1500 quantum bytes at the offered rate; the
     marker interval is [every_rounds] such rounds. One extra round of
     slack absorbs the boundary discretization (a marker is only sent
     when the round it stamps begins). *)
  let round_time = float_of_int (2 * 1500 * 8) /. (16e6 *. 0.9) in
  let bound =
    (float_of_int (every_rounds + 1) *. round_time) +. 0.005
  in
  Alcotest.(check bool)
    "Theorem 5.1: no skip later than a marker interval after the last drop"
    true
    (Obs.Check.resync_within ~bound events);
  Alcotest.(check bool) "FIFO delivery restored after resynchronization" true
    (Obs.Check.fifo_from ~time:(!errors_stop +. bound) events)

let test_channel_report () =
  let reg = Obs.Counters.create ~n:2 in
  let s = Obs.Counters.sink reg in
  Obs.Sink.emit s (Obs.Event.v ~channel:0 ~size:700 ~time:0.0 Obs.Event.Transmit);
  Obs.Sink.emit s (Obs.Event.v ~channel:1 ~time:0.0 Obs.Event.Drop);
  let rendered = Stripe_metrics.Channel_report.render reg in
  Alcotest.(check bool) "table mentions both channels" true
    (String.length rendered > 0);
  let balance = Stripe_metrics.Channel_report.balance reg in
  Alcotest.(check int) "one summary point per channel" 2
    (Stripe_metrics.Summary.count balance);
  Alcotest.(check (float 1e-9)) "balance totals tx bytes" 700.0
    (Stripe_metrics.Summary.total balance)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "event json export" `Quick test_event_json;
        Alcotest.test_case "event csv export" `Quick test_event_csv;
        Alcotest.test_case "kind names roundtrip" `Quick
          test_kind_names_roundtrip;
        Alcotest.test_case "collector sink" `Quick test_collector_sink;
        Alcotest.test_case "ring sink" `Quick test_ring_sink;
        Alcotest.test_case "tee sink" `Quick test_tee_sink;
        Alcotest.test_case "file sinks" `Quick test_file_sinks;
        Alcotest.test_case "counters registry" `Quick test_counters_registry;
        Alcotest.test_case "theorem 4.1 from trace" `Quick
          test_theorem41_trace_check;
        Alcotest.test_case "scheduler round events" `Quick
          test_scheduler_round_events;
        Alcotest.test_case "theorem 5.1 from trace" `Quick
          test_theorem51_trace_check;
        Alcotest.test_case "channel report" `Quick test_channel_report;
      ] );
  ]
