(* §7's flagship application: striping IP packets across ATM virtual
   circuits, markers riding OAM cells on the same VCs, surviving cell
   loss (each lost cell costs one AAL5 frame, which the marker protocol
   absorbs like any packet loss).

   Run with: dune exec examples/atm_striping.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_atm

let () =
  let sim = Sim.create () in
  let rng = Rng.create 8 in
  let loss_rng = Rng.create 9 in
  let delivered = ref [] in
  let lossy = ref true in
  let vc_links = ref [||] in
  let svc =
    Stripe_vc.create ~n_vcs:3 ~quanta:[| 1500; 1500; 1500 |]
      ~marker:(Stripe_core.Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~send_cell:(fun ~vc cell ->
        ignore (Link.send !vc_links.(vc) ~size:Cell.size cell))
      ~deliver:(fun pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  vc_links :=
    Array.init 3 (fun i ->
        Link.create sim
          ~rate_bps:25e6
          ~prop_delay:(0.002 +. (0.003 *. float_of_int i))
          ~deliver:(fun cell ->
            (* 0.1% cell loss during the first half of the run; OAM
               cells carrying markers get through. *)
            let drop =
              !lossy
              && (not (Cell.is_oam cell))
              && Rng.bernoulli loss_rng ~p:0.001
            in
            if not drop then Stripe_vc.receive_cell svc ~vc:i cell)
          ());
  let n = 3000 in
  let seq = ref 0 in
  let rec tick () =
    if !seq < n then begin
      Stripe_vc.push svc (Packet.data ~seq:!seq ~size:(100 + Rng.int rng 1400) ());
      incr seq;
      if !seq = n / 2 then lossy := false;
      Sim.schedule_after sim ~delay:0.0002 tick
    end
  in
  tick ();
  Sim.run sim;
  let out = List.rev !delivered in
  let tail = List.filteri (fun i _ -> i >= List.length out - n / 3) out in
  Printf.printf "striped %d IP packets over 3 ATM VCs (AAL5 cells, OAM markers)\n" n;
  Printf.printf "  delivered: %d  frames killed by cell loss: %d\n"
    (List.length out)
    (Stripe_vc.corrupted_frames svc);
  Printf.printf "  OAM marker cells: %d  receiver skips: %d\n"
    (Stripe_vc.markers_sent svc)
    (Stripe_core.Resequencer.skips (Stripe_vc.resequencer svc));
  Printf.printf "  FIFO after cell loss stopped: %b\n"
    (List.sort compare tail = tail);
  if not (List.sort compare tail = tail) then exit 1
