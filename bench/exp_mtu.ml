(* MTU ablation (§6.2): strIPe limits the bundle MTU to the smallest
   member MTU, and "the overall throughput is considerably dependent on
   MTU size" - the paper saw >70 Mbps on a lone ATM interface with 8 KB
   packets. The alternative the Gigabit-testbed adaptors chose (OSIRIS
   minipackets) fragments each datagram across the channels, buying a
   large bundle MTU at the price of modifying the wire format and
   amplifying loss. This bench measures the trade on both sides, with the
   per-packet receive costs of the Figure 15 host model as the thing the
   big MTU saves. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
open Stripe_host

let rates = [| 60e6; 100e6 |]
let member_mtu = 1500
let capacity_bps = Array.fold_left ( +. ) 0.0 rates

(* Common receive path: NICs feed a CPU; goodput counts datagram bytes
   handed to the application in order. *)
let make_rx sim ~n ~deliver =
  let cpu = Cpu.create sim () in
  let nics =
    Array.init n (fun _ ->
        Nic.create ~cpu ~ring_capacity:512 ~max_batch:Exp_common.rx_max_batch
          ~intr_cost:Exp_common.rx_intr_cost
          ~per_packet_cost:Exp_common.rx_per_packet_cost
          ~deliver:(fun (channel, payload) -> deliver channel payload)
          ())
  in
  nics

(* Whole-packet striping: the application must segment each datagram to
   the bundle MTU; SRR + logical reception carries the segments. *)
let run_whole ~datagram ~loss_p ~duration =
  let sim = Sim.create () in
  let rng = Rng.create 21 in
  let goodput = Exp_common.goodput ~duration ~capacity_bps in
  let engine = Srr.for_rates ~rates_bps:rates ~quantum_unit:member_mtu () in
  let reseq = ref None in
  let nics =
    make_rx sim ~n:2 ~deliver:(fun channel pkt ->
        match !reseq with
        | Some r -> Resequencer.receive r ~channel pkt
        | None -> ())
  in
  reseq :=
    Some
      (Resequencer.create ~deficit:(Deficit.clone_initial engine)
         ~deliver:(fun ~channel:_ pkt ->
           Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim) ~bytes:pkt.Packet.size)
         ());
  let links =
    Array.init 2 (fun i ->
        Link.create sim
          ~rate_bps:rates.(i)
          ~prop_delay:0.002
          ~rng:(Rng.split rng)
          ~loss:
            (if loss_p > 0.0 then Loss.bernoulli ~p:loss_p else Loss.none ())
          ~deliver:(fun pkt -> Nic.rx nics.(i) (i, pkt))
          ())
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:8 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  (* Backlogged source: segment each datagram to the bundle MTU. *)
  let seq = ref 0 in
  let rec offer () =
    if Sim.now sim < duration then begin
      while Link.queue_bytes links.(0) + Link.queue_bytes links.(1) < 120_000 do
        let remaining = ref datagram in
        while !remaining > 0 do
          let size = min member_mtu !remaining in
          remaining := !remaining - size;
          Striper.push striper (Packet.data ~seq:!seq ~size ());
          incr seq
        done
      done;
      Sim.schedule_after sim ~delay:0.001 offer
    end
  in
  offer ();
  Sim.run sim;
  Stripe_metrics.Throughput.mbps goodput

(* Fragmenting striping: whole datagrams, one minipacket per channel. *)
let run_fragmenting ~datagram ~loss_p ~duration =
  let sim = Sim.create () in
  let rng = Rng.create 22 in
  let goodput = Exp_common.goodput ~duration ~capacity_bps in
  let reasm = ref None in
  let nics =
    make_rx sim ~n:2 ~deliver:(fun channel frag ->
        match !reasm with
        | Some r -> Fragmenter.Reassembler.receive r ~channel frag
        | None -> ())
  in
  reasm :=
    Some
      (Fragmenter.Reassembler.create ~n_channels:2
         ~deliver:(fun pkt ->
           Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim) ~bytes:pkt.Packet.size)
         ());
  let links =
    Array.init 2 (fun i ->
        Link.create sim
          ~rate_bps:rates.(i)
          ~prop_delay:0.002
          ~rng:(Rng.split rng)
          ~loss:
            (if loss_p > 0.0 then Loss.bernoulli ~p:loss_p else Loss.none ())
          ~deliver:(fun frag -> Nic.rx nics.(i) (i, frag))
          ())
  in
  let sender =
    Fragmenter.Sender.create ~shares:rates
      ~emit:(fun ~channel frag ->
        ignore
          (Link.send links.(channel) ~size:(Fragmenter.wire_size frag) frag))
      ()
  in
  let seq = ref 0 in
  let rec offer () =
    if Sim.now sim < duration then begin
      while Link.queue_bytes links.(0) + Link.queue_bytes links.(1) < 120_000 do
        Fragmenter.Sender.push sender (Packet.data ~seq:!seq ~size:datagram ());
        incr seq
      done;
      Sim.schedule_after sim ~delay:0.001 offer
    end
  in
  offer ();
  Sim.run sim;
  Stripe_metrics.Throughput.mbps goodput

let run () =
  Exp_common.section
    "MTU ablation (Section 6.2) - whole-packet strIPe vs fragmenting minipackets";
  let tbl =
    Stripe_metrics.Table.create
      ~title:
        "Application goodput (Mbps) over 60+100 Mbps links, member MTU 1500, \
         receiver CPU as in Fig 15"
      ~columns:
        [
          "datagram"; "strIPe (segmented)"; "fragmenting"; "strIPe @1% loss";
          "fragmenting @1% loss";
        ]
  in
  List.iter
    (fun datagram ->
      let w = run_whole ~datagram ~loss_p:0.0 ~duration:3.0 in
      let f = run_fragmenting ~datagram ~loss_p:0.0 ~duration:3.0 in
      let wl = run_whole ~datagram ~loss_p:0.01 ~duration:3.0 in
      let fl = run_fragmenting ~datagram ~loss_p:0.01 ~duration:3.0 in
      Stripe_metrics.Table.add_row tbl
        [
          Printf.sprintf "%d B" datagram;
          Printf.sprintf "%.1f" w;
          Printf.sprintf "%.1f" f;
          Printf.sprintf "%.1f" wl;
          Printf.sprintf "%.1f" fl;
        ])
    [ 1000; 1500; 4096; 8192; 16384 ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Large datagrams favor fragmentation (2 receive events per datagram";
  print_endline
    "instead of one per MTU segment) - the §6.2 observation that throughput";
  print_endline
    "is considerably dependent on MTU size. Small datagrams invert it: the";
  print_endline
    "doubled receive events saturate the CPU, rings overflow, and because";
  print_endline
    "any lost minipacket kills its whole datagram the damage is amplified -";
  print_endline
    "catastrophically so at this saturated offered load. Loss amplification";
  print_endline
    "plus the modified wire format are the reasons strIPe stripes whole";
  print_endline "packets.\n"
