(* Quickstart: stripe a packet stream over three channels with SRR and
   logical reception, and watch FIFO order survive wildly different
   channel delays.

   Run with: dune exec examples/quickstart.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let () =
  let sim = Sim.create () in

  (* 1. One SRR engine defines the striping schedule; the receiver
        simulates a clone of it (logical reception, §4 of the paper). *)
  let engine = Srr.create ~quanta:[| 1500; 1500; 1500 |] () in

  (* 2. Three channels with very different latencies and rates. Each is
        FIFO on its own, as the protocol requires; nothing else is
        assumed.
     3. The sender: SRR striping with periodic resynchronization
        markers, over a plain wire (the packet alone) into logical
        reception. *)
  let delivered = ref [] in
  let bundle =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~channels:[| (40e6, 0.001); (10e6, 0.015); (4e6, 0.040) |]
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~deliver:(fun pkt -> delivered := pkt.Packet.seq :: !delivered)
      ()
  in
  let striper = Bundle.striper bundle in
  let links = Bundle.links bundle in
  let resequencer = Bundle.resequencer bundle in

  (* 4. Push a mixed-size stream. *)
  let rng = Rng.create 2024 in
  let n = 2_000 in
  for seq = 0 to n - 1 do
    let size = 64 + Rng.int rng 1400 in
    Striper.push striper (Packet.data ~seq ~size ())
  done;
  Sim.run sim;

  (* 5. Check what came out. *)
  let out = List.rev !delivered in
  let in_order = out = List.init n Fun.id in
  Printf.printf "sent %d packets over %d channels\n" n (Array.length links);
  Array.iteri
    (fun i _ ->
      Printf.printf "  channel %d carried %d packets / %d bytes\n" i
        (Striper.channel_packets striper i)
        (Striper.channel_bytes striper i))
    links;
  Printf.printf "markers sent: %d\n" (Striper.markers_sent striper);
  Printf.printf "receiver buffered at most %d packets while waiting on skew\n"
    (Resequencer.buffer_high_water_packets resequencer);
  Printf.printf "delivered %d packets, FIFO order preserved: %b\n"
    (List.length out) in_order;
  if not in_order then exit 1
