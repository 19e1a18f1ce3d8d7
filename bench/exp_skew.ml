(* Skew-compensation ablation (§2, §2.1): BONDING/AIM-style delay
   equalization works only when skew is tightly bounded; logical
   reception needs no skew knowledge at all. Sweep per-packet jitter and
   compare misordering. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

type mode =
  | Compensation
  | Logical

let run_one ~mode ~jitter =
  let sim = Sim.create () in
  let rng = Rng.create 55 in
  let log = Stripe_metrics.Recovery.create () in
  let deliver pkt =
    Stripe_metrics.Recovery.observe log ~now:(Sim.now sim) ~seq:pkt.Packet.seq
  in
  let skews = [| 0.002; 0.030 |] in
  let engine = Srr.create ~quanta:[| 1000; 1000 |] () in
  let receive =
    match mode with
    | Compensation ->
      let comp = Skew_comp.create sim ~skews ~deliver () in
      fun ~channel pkt -> Skew_comp.receive comp ~channel pkt
    | Logical ->
      let r =
        Resequencer.create ~deficit:(Deficit.clone_initial engine)
          ~deliver:(fun ~channel:_ pkt -> deliver pkt)
          ()
      in
      fun ~channel pkt -> Resequencer.receive r ~channel pkt
  in
  let links =
    Array.mapi
      (fun i skew ->
        Link.create sim
          ~rate_bps:10e6 ~prop_delay:skew
          ?jitter:
            (if jitter > 0.0 then Some (fun r -> Rng.float r jitter) else None)
          ~rng:(Rng.split rng)
          ~deliver:(fun pkt -> receive ~channel:i pkt)
          ())
      skews
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  let seq = ref 0 in
  let rec tick () =
    if !seq < 3000 then begin
      Striper.push striper (Packet.data ~seq:!seq ~size:1000 ());
      incr seq;
      Sim.schedule_after sim ~delay:0.0008 tick
    end
  in
  tick ();
  Sim.run sim;
  (Stripe_metrics.Recovery.deliveries log, Stripe_metrics.Recovery.out_of_order log)

let run () =
  Exp_common.section
    "Skew ablation (Section 2) - delay compensation vs logical reception";
  let tbl =
    Stripe_metrics.Table.create
      ~title:
        "Out-of-order deliveries of 3000 packets (channels with 2 ms / 30 ms \
         base skew; compensation configured for the base skews only)"
      ~columns:
        [ "per-packet jitter"; "compensation ooo"; "logical reception ooo" ]
  in
  List.iter
    (fun jitter ->
      let _, comp_ooo = run_one ~mode:Compensation ~jitter in
      let _, lr_ooo = run_one ~mode:Logical ~jitter in
      Stripe_metrics.Table.add_row tbl
        [
          Printf.sprintf "%.0f ms" (jitter *. 1000.0);
          string_of_int comp_ooo;
          string_of_int lr_ooo;
        ])
    [ 0.0; 0.005; 0.020; 0.050 ];
  Stripe_metrics.Table.print tbl;
  print_endline
    "With skew exactly as configured, delay compensation is FIFO - the";
  print_endline
    "BONDING regime of synchronized serial channels. Any jitter beyond the";
  print_endline
    "configured bound leaks misordering, while logical reception is immune:";
  print_endline
    "the receiver simulation depends on no timing assumptions (§2's argument";
  print_endline "for ruling out skew-based resequencing on network channels).\n"
