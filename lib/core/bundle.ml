(* One simulated bundle: striper -> links -> [guard ->] receiver, wired
   once for the CLI, the benches and the examples. *)

open Stripe_netsim
open Stripe_packet

type receiver = Logical | Seq | Unordered

type _ wire =
  | Plain : Packet.t wire
  | Guarded : int -> (int * Packet.t) wire

type rx =
  | Rx_logical of Resequencer.t
  | Rx_seq of Seq_resequencer.t
  | Rx_unordered

type 'w t = {
  sim : Sim.t;
  striper : Striper.t;
  links : 'w Link.t array;
  rx : rx;
  guard : Channel_guard.t option;
}

let mangle rng pkt =
  Packet.mangle_marker ~salt:(Rng.int rng 0x3fffffff) pkt

let create (type w) sim ~scheduler ~channels ~(wire : w wire) ~receiver
    ?marker ?rng ?impair ?corrupt_rng ?drop ?watchdog ?budget_bytes ?overflow
    ?on_pressure ?(auto_suspend = false) ?sink ~deliver () : w t =
  let n = Array.length channels in
  if Scheduler.n_channels scheduler <> n then
    invalid_arg "Bundle.create: scheduler and channels differ in width";
  let now () = Sim.now sim in
  let rx =
    match receiver, Scheduler.deficit scheduler with
    | Logical, Some e ->
      Rx_logical
        (Resequencer.create ~deficit:(Deficit.clone_initial e) ~now ?sink
           ?watchdog ?budget_bytes ?overflow ?on_pressure
           ~deliver:(fun ~channel:_ pkt -> deliver pkt)
           ())
    | Logical, None ->
      invalid_arg "Bundle.create: logical reception needs a CFQ scheduler"
    | Seq, d ->
      Rx_seq
        (Seq_resequencer.create
           ?deficit:(Option.map Deficit.clone_initial d)
           ~n_channels:n ~deliver ())
    | Unordered, _ -> Rx_unordered
  in
  let receive =
    match rx with
    | Rx_logical r -> Resequencer.receive r
    | Rx_seq r -> Seq_resequencer.receive r
    | Rx_unordered ->
      fun ~channel:_ pkt -> if not (Packet.is_marker pkt) then deliver pkt
  in
  let dropped =
    match drop with Some d -> d | None -> fun ~channel:_ _ -> false
  in
  (* Each link draws from its own split of [rng], taken in channel
     order, so a whole run reproduces from one seed. *)
  let link ?corrupt ~deliver i (rate_bps, prop_delay) =
    Link.create sim
      ~rate_bps ~prop_delay ~channel:i ?rng:(Option.map Rng.split rng)
      ?impair:(Option.map (fun f -> f i) impair)
      ?corrupt ?sink ~deliver:(deliver i) ()
  in
  let plain () =
    let corrupt =
      Option.map
        (fun rng pkt ->
          if Packet.is_marker pkt then Some (mangle rng pkt) else None)
        corrupt_rng
    in
    let deliver i pkt =
      if not (dropped ~channel:i pkt) then receive ~channel:i pkt
    in
    let links = Array.mapi (link ?corrupt ~deliver) channels in
    let emit ~channel pkt =
      ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt)
    in
    (links, emit, None)
  in
  let guarded window =
    let g = Channel_guard.create ~n ~window ~now ?sink ~deliver:receive () in
    let corrupt =
      Option.map
        (fun rng (tag, pkt) ->
          if Packet.is_marker pkt then Some (tag, mangle rng pkt) else None)
        corrupt_rng
    in
    let deliver i (tag, pkt) =
      if not (dropped ~channel:i pkt) then
        Channel_guard.receive g ~channel:i ~tag pkt
    in
    let links = Array.mapi (link ?corrupt ~deliver) channels in
    let tags = Channel_guard.Tx.create ~n in
    let emit ~channel pkt =
      let tag = Channel_guard.Tx.next_tag tags ~channel in
      ignore (Link.send links.(channel) ~size:pkt.Packet.size (tag, pkt))
    in
    (links, emit, Some g)
  in
  let ((links, emit, guard) : w Link.t array * _ * _) =
    match wire with Plain -> plain () | Guarded window -> guarded window
  in
  let striper = Striper.create ~scheduler ?marker ~now ?sink ~emit () in
  if auto_suspend then
    Array.iteri
      (fun i l ->
        Link.on_carrier l (fun ~up ->
            if up then Striper.resume_channel striper i
            else Striper.suspend_channel striper i))
      links;
  { sim; striper; links; rx; guard }

let striper b = b.striper
let links b = b.links
let guard b = b.guard

let resequencer b =
  match b.rx with
  | Rx_logical r -> r
  | Rx_seq _ | Rx_unordered ->
    invalid_arg "Bundle.resequencer: the receiver is not logical"

let seq_resequencer b =
  match b.rx with
  | Rx_seq r -> r
  | Rx_logical _ | Rx_unordered ->
    invalid_arg "Bundle.seq_resequencer: the receiver is not Seq"

type source = { mutable offered : int; mutable finished : bool }

let pace b ?(burst = 1) ~every ?(count = max_int) ?(until = infinity) size =
  let src = { offered = 0; finished = false } in
  let rec tick () =
    let now = Sim.now b.sim in
    if src.offered >= count || not (now < until) then src.finished <- true
    else begin
      for _ = 1 to min burst (count - src.offered) do
        Striper.push b.striper
          (Packet.data ~seq:src.offered ~born:now ~size:(size ()) ());
        src.offered <- src.offered + 1
      done;
      Sim.schedule_after b.sim ~delay:every tick
    end
  in
  tick ();
  src
