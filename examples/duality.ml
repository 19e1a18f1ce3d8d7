(* The theoretical heart of the paper, hands on: load sharing algorithms
   are time-reversed fair queuing algorithms (§3, Theorem 3.1).

   This example runs the same SRR engine in both roles - striping a
   stream across channels, then fair-queuing the per-channel outputs
   back into one stream - and checks the round trip is the identity. It
   then shows why causality is the hinge: a deployable fair queuing
   discipline with idle-skipping is *not* simulatable by a receiver.

   Run with: dune exec examples/duality.exe *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let () =
  let rng = Rng.create 123 in
  let quanta = [| 1500; 1500; 1500 |] in

  (* A random stream of 30 packets. *)
  let input =
    List.init 30 (fun seq -> (64 + Rng.int rng 1400, Printf.sprintf "p%d" seq))
  in
  Printf.printf "input stream: %s...\n"
    (String.concat " " (List.filteri (fun i _ -> i < 8) (List.map snd input)));

  (* Forward direction: stripe it (Figure 3). *)
  let srr = Scheduler.srr ~quanta () in
  let dispatch = Scheduler.load_share srr input in
  let per_channel = Scheduler.outputs_by_channel ~n:3 dispatch in
  Array.iteri
    (fun c q ->
      Printf.printf "channel %d carries: %s%s\n" c
        (String.concat " " (List.filteri (fun i _ -> i < 6) (List.map snd q)))
        (if List.length q > 6 then " ..." else ""))
    per_channel;

  (* Reverse direction: fair-queue the channels back (Figure 2). *)
  (match Scheduler.fair_queue srr per_channel with
  | Some order ->
    let restored = List.map snd order in
    Printf.printf "fair-queuing the channels restores the stream: %b\n"
      (restored = input)
  | None -> print_endline "unexpected: left the backlogged regime");

  (* The same correspondence through the deployable components: a real
     striper feeding per-channel queues of a real Fair_queue. *)
  let engine = Srr.create ~quanta () in
  let fq = Fair_queue.create ~quanta () in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~emit:(fun ~channel pkt -> Fair_queue.enqueue fq ~flow:channel pkt)
      ()
  in
  List.iteri
    (fun seq (size, _) -> Striper.push striper (Packet.data ~seq ~size ()))
    input;
  let rec drain acc =
    match Fair_queue.dequeue fq with
    | Some (_, pkt) -> drain (pkt.Packet.seq :: acc)
    | None -> List.rev acc
  in
  let restored = drain [] in
  Printf.printf
    "striper -> Fair_queue round trip is also the identity: %b\n"
    (restored = List.init 30 Fun.id);

  (* Causality, the hinge (§3.1): logical reception needs the sender's
     choices to be a function of previously sent packets only. SRR
     qualifies; shortest-queue-first does not - its choice depends on
     instantaneous queue depths the receiver cannot see. *)
  let depths = [| ref 0; ref 0; ref 0 |] in
  let sqf =
    Scheduler.shortest_queue ~queue_bytes:(fun c -> !(depths.(c))) ~n:3
  in
  Printf.printf "SRR is causal: %b; shortest-queue-first is causal: %b\n"
    (Scheduler.causal srr)
    (Scheduler.causal sqf);
  print_endline
    "=> only the causal family supports receiver simulation, which is why";
  print_endline
    "   the paper transforms fair queuing rather than inventing a scheduler."
