(* The §6.2 worst-case experiment: PVC tuned so both interfaces have the
   same application throughput (where GRR reduces to RR), workload
   strictly alternating 1000-byte and 200-byte packets. The paper
   measured SRR at 11.2 Mbps and GRR collapsing to 6.8 Mbps, because GRR
   puts every large packet on one interface. Also included: the random
   mixture on the same setup, where GRR and SRR are comparable — GRR's
   failure is adversarial, not average-case. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

(* Both "interfaces" at the same application-level rate; deterministic
   alternation vs random mixture. *)
let run_case ~scheme_name ~engine ~alternating () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let duration = 4.0 in
  let goodput = Exp_common.goodput ~duration ~capacity_bps:12e6 in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:scheme_name engine)
      ~channels:(Array.make 2 (6e6, 0.002))
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:8 ())
      ~deliver:(fun pkt ->
        Stripe_metrics.Throughput.account goodput ~now:(Sim.now sim) ~bytes:pkt.Packet.size)
      ()
  in
  let links = Bundle.links b and striper = Bundle.striper b in
  let gen =
    if alternating then
      Stripe_workload.Genpkt.alternating ~small:Sizes.small_packet
        ~large:Sizes.large_packet
    else
      Stripe_workload.Genpkt.bimodal ~rng ~small:Sizes.small_packet
        ~large:Sizes.large_packet ()
  in
  (* Backlogged sender paced just above aggregate capacity: feed packets
     whenever any transmit queue has room. *)
  let seq = ref 0 in
  let rec feed () =
    if Sim.now sim < duration then begin
      let queued c = Link.queue_bytes links.(c) in
      if queued 0 + queued 1 < 40_000 then begin
        for _ = 1 to 8 do
          Striper.push striper (Packet.data ~seq:!seq ~size:(gen ()) ());
          incr seq
        done
      end;
      Sim.schedule_after sim ~delay:0.002 feed
    end
  in
  feed ();
  Sim.run sim;
  Stripe_metrics.Throughput.mbps goodput

let run () =
  Exp_common.section
    "GRR worst case (Section 6.2) - equal-rate interfaces, alternating 1000/200 B";
  let tbl =
    Stripe_metrics.Table.create ~title:"Striped throughput (Mbps)"
      ~columns:[ "Workload"; "SRR"; "GRR(=RR here)"; "SRR/GRR" ]
  in
  let srr () = Srr.create ~quanta:[| 1000; 1000 |] () in
  let grr () = Grr.create ~ratios:[| 1; 1 |] () in
  let srr_alt = run_case ~scheme_name:"SRR" ~engine:(srr ()) ~alternating:true () in
  let grr_alt = run_case ~scheme_name:"GRR" ~engine:(grr ()) ~alternating:true () in
  let srr_mix = run_case ~scheme_name:"SRR" ~engine:(srr ()) ~alternating:false () in
  let grr_mix = run_case ~scheme_name:"GRR" ~engine:(grr ()) ~alternating:false () in
  Stripe_metrics.Table.add_row tbl
    [
      "alternating 1000/200";
      Printf.sprintf "%.1f" srr_alt;
      Printf.sprintf "%.1f" grr_alt;
      Printf.sprintf "%.2fx" (srr_alt /. grr_alt);
    ];
  Stripe_metrics.Table.add_row tbl
    [
      "random 1000/200 mix";
      Printf.sprintf "%.1f" srr_mix;
      Printf.sprintf "%.1f" grr_mix;
      Printf.sprintf "%.2fx" (srr_mix /. grr_mix);
    ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "Paper: SRR 11.2 Mbps vs GRR 6.8 Mbps (1.65x) on the alternating sequence;";
  print_endline "on random mixes the two are comparable.\n"
