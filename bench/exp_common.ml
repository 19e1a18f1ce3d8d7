(* Shared scaffolding for the paper-reproduction experiments.

   The Figure 15 test rig: a TCP-lite connection whose segments are
   striped (or not) over simulated Ethernet and ATM links, with a
   receive-side CPU processing NIC interrupts — the bottleneck the paper
   identifies. All constants are calibrated to the 1996 testbed's shape,
   not its absolute numbers; see EXPERIMENTS.md. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core
open Stripe_host
open Stripe_transport

(* --- Link models ------------------------------------------------------ *)

type link_kind =
  | Ethernet
      (* 10Base-T. The effective MAC throughput is well below 10 Mbps for
         mixed packet sizes (CSMA/CD, IFG, preamble); the paper measured
         about 6 Mbps at application level. We model the effective rate
         directly. *)
  | Atm of float  (* PVC with the given raw rate in bps. *)

let ethernet_effective_bps = 6.5e6

let rate_of = function
  | Ethernet -> ethernet_effective_bps
  | Atm rate -> rate

(* Wire cost of carrying an IP datagram of [n] bytes. *)
let wire_size kind n =
  match kind with
  | Ethernet -> n + Sizes.ethernet_overhead
  | Atm _ -> n + Sizes.atm_overhead_for n

(* Application-level capacity of a link for a given mean datagram size:
   used for the "sum of individual throughputs" upper-bound series. *)
let app_capacity kind ~mean_datagram =
  rate_of kind *. float_of_int mean_datagram
  /. float_of_int (wire_size kind mean_datagram)

(* A goodput meter over [0, duration]: a backlog drained after
   [duration] is not counted, and a rate above the links' capacity fails
   the run. *)
let goodput ~duration ~capacity_bps =
  let t = Stripe_metrics.Throughput.create ~capacity_bps () in
  Stripe_metrics.Throughput.start_at t 0.0;
  Stripe_metrics.Throughput.stop_at t duration;
  t

(* --- Receiver host model ---------------------------------------------- *)

(* Per-packet protocol processing and per-interrupt overhead on the
   receiving host (1996 Pentium running NetBSD). Coalescing is emergent:
   a single loaded NIC batches many packets per interrupt; striped NICs
   batch less, which is exactly why Figure 15's striped curves flatten
   below the single-interface sum. *)
let rx_per_packet_cost = 210e-6
let rx_intr_cost = 150e-6

(* Driver rx budget: at most this many packets per handler activation
   (the era's drivers serviced small fixed batches). Bounding the batch
   caps how far a single loaded interface can amortize interrupts, which
   is what makes the Figure 15 upper bound eventually fall. *)
let rx_max_batch = 3

(* Extra receiver work to file an out-of-order TCP segment into the
   reassembly queue; only paid by the variants without logical
   reception. *)
let rx_ooo_cost = 80e-6

(* Sender-side per-packet cost (TCP output + striping + driver). *)
let tx_per_packet_cost = 60e-6

(* TCP + IP header bytes riding each segment on the wire. *)
let tcp_ip_headers = Sizes.ip_header + 20

(* --- The striped-TCP rig ---------------------------------------------- *)

type scheme =
  | Srr_scheme
  | Grr_scheme
  | Rr_scheme

let scheme_name = function
  | Srr_scheme -> "SRR"
  | Grr_scheme -> "GRR"
  | Rr_scheme -> "RR"

type result = {
  goodput_mbps : float;
  ooo_segments : int;
  retransmissions : int;
  ring_drops : int;
  interrupts : int;
  rx_packets : int;
}

(* Run one TCP transfer of [duration] simulated seconds over the given
   links. [scheme] picks the striping algorithm; [logical_reception]
   enables the resequencer. With a single link the striper degenerates to
   a pass-through, which is how the upper-bound points are measured. *)
let run_striped_tcp ?(duration = 4.0) ?(seed = 1) ~links ~scheme
    ~logical_reception () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let n = Array.length links in
  let rx_cpu = Cpu.create sim () in
  let tx_cpu = Cpu.create sim () in
  (* Receiver-side plumbing is wired back to front. *)
  let tcp_rx = ref None in
  let reseq = ref None in
  let ooo = ref 0 in
  let tcp_deliver pkt =
    match !tcp_rx with
    | None -> ()
    | Some rx -> (
      match
        Tcp_lite.Receiver.rx rx ~off:(Packet.off pkt)
          ~len:(pkt.Packet.size - tcp_ip_headers)
      with
      | `In_order -> ()
      | `Duplicate -> ()
      | `Out_of_order ->
        incr ooo;
        (* Reassembly insertion burns extra CPU. *)
        Cpu.execute rx_cpu ~cost:rx_ooo_cost (fun () -> ()))
  in
  let after_nic channel pkt =
    match !reseq with
    | Some r -> Resequencer.receive r ~channel pkt
    | None -> if not (Packet.is_marker pkt) then tcp_deliver pkt
  in
  let nics =
    Array.init n (fun _ ->
        Nic.create ~cpu:rx_cpu ~ring_capacity:512 ~max_batch:rx_max_batch
          ~intr_cost:rx_intr_cost ~per_packet_cost:rx_per_packet_cost
          ~deliver:(fun (channel, pkt) -> after_nic channel pkt)
          ())
  in
  let wires =
    Array.mapi
      (fun i kind ->
        Link.create sim
          ~rate_bps:(rate_of kind) ~prop_delay:0.002
          ~deliver:(fun pkt -> Nic.rx nics.(i) (i, pkt))
          ())
      links
  in
  let rates = Array.map rate_of links in
  let engine =
    match scheme with
    | Srr_scheme -> Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 ()
    | Grr_scheme -> Grr.for_rates ~rates_bps:rates ()
    | Rr_scheme -> Rr.create ~n ()
  in
  let sched = Scheduler.of_deficit ~name:(scheme_name scheme) engine in
  (if logical_reception then
     reseq :=
       Some
         (Resequencer.create ~deficit:(Deficit.clone_initial engine)
            ~deliver:(fun ~channel:_ pkt -> tcp_deliver pkt)
            ()));
  let striper =
    Striper.create ~scheduler:sched
      (* The paper's no-resequencing variants run without the protocol's
         control plane entirely. *)
      ?marker:
        (if logical_reception then Some (Marker.make ~every_rounds:8 ())
         else None)
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore
          (Link.send wires.(channel)
             ~size:(wire_size links.(channel) pkt.Packet.size)
             pkt))
      ()
  in
  (* Ack path: lossless, fast, bypasses the striped direction. *)
  let tcp_tx = ref None in
  let ack_wire =
    Link.create sim ~rate_bps:1e8 ~prop_delay:0.002
      ~deliver:(fun ack ->
        match !tcp_tx with Some s -> Tcp_lite.Sender.on_ack s ack | None -> ())
      ()
  in
  let goodput =
    goodput ~duration
      ~capacity_bps:(Array.fold_left (fun a k -> a +. rate_of k) 0.0 links)
  in
  let rx =
    Tcp_lite.Receiver.create
      ~send_ack:(fun a -> ignore (Link.send ack_wire ~size:40 a))
      ~deliver:(fun ~bytes ->
        Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim) ~bytes)
      ()
  in
  tcp_rx := Some rx;
  (* The paper's sending program: a random mixture of small and large
     packets. Sizes are TCP payload; 40 bytes of TCP/IP header ride each
     segment on the wire. *)
  let seg_gen =
    Stripe_workload.Genpkt.bimodal ~rng ~small:Sizes.small_packet
      ~large:Sizes.large_packet ()
  in
  let seq = ref 0 in
  let tx =
    Tcp_lite.Sender.create sim ~window:262144 ~rto:0.25
      ~next_segment_size:(fun () -> seg_gen ())
      ~transmit:(fun ~off ~size ->
        (* Send-side CPU, then the striping layer. *)
        Cpu.execute tx_cpu ~cost:tx_per_packet_cost (fun () ->
            let pkt =
              Packet.data ~seq:!seq ~off ~born:(Sim.now sim)
                ~size:(size + tcp_ip_headers) ()
            in
            incr seq;
            Striper.push striper pkt))
      ()
  in
  tcp_tx := Some tx;
  Tcp_lite.Sender.start tx;
  Sim.run_until sim duration;
  Tcp_lite.Sender.shutdown tx;
  Sim.run sim;
  {
    goodput_mbps = Stripe_metrics.Throughput.mbps goodput;
    ooo_segments = !ooo;
    retransmissions = Tcp_lite.Sender.retransmissions tx;
    ring_drops = Array.fold_left (fun acc nic -> acc + Nic.ring_drops nic) 0 nics;
    interrupts = Array.fold_left (fun acc nic -> acc + Nic.interrupts nic) 0 nics;
    rx_packets = Array.fold_left (fun acc nic -> acc + Nic.packets nic) 0 nics;
  }

(* Upper bound of Figure 15: the sum of the two interfaces' individual
   TCP throughputs, measured one at a time (only one interface active,
   so the receiver gets maximal interrupt coalescing). *)
let upper_bound ?duration ?seed ~atm_bps () =
  let eth =
    run_striped_tcp ?duration ?seed ~links:[| Ethernet |] ~scheme:Rr_scheme
      ~logical_reception:false ()
  in
  let atm =
    run_striped_tcp ?duration ?seed ~links:[| Atm atm_bps |] ~scheme:Rr_scheme
      ~logical_reception:false ()
  in
  eth.goodput_mbps +. atm.goodput_mbps

let hr () = print_endline (String.make 78 '=')

let section title =
  hr ();
  print_endline title;
  hr ()
