open Stripe_packet

type t = {
  sched_name : string;
  is_causal : bool;
  n : int;
  choose_fn : Packet.t -> int;
  account_fn : Packet.t -> int -> unit;
  engine : Deficit.t option;
  susp : bool array;
      (* Suspension flags for engine-less schedulers; engine-backed ones
         delegate to the deficit engine, which skips natively. *)
  remake : unit -> t;
}

let name t = t.sched_name
let causal t = t.is_causal

let n_channels t = t.n

let suspended t c =
  if c < 0 || c >= n_channels t then
    invalid_arg "Scheduler.suspended: bad channel";
  match t.engine with
  | Some d -> Deficit.suspended d c
  | None -> t.susp.(c)

let has_active t =
  match t.engine with
  | Some d -> Deficit.any_active d
  | None -> Array.exists not t.susp

let suspend_channel t c =
  if c < 0 || c >= n_channels t then
    invalid_arg "Scheduler.suspend_channel: bad channel";
  match t.engine with
  | Some d -> Deficit.suspend d c
  | None -> t.susp.(c) <- true

let resume_channel t c =
  if c < 0 || c >= n_channels t then
    invalid_arg "Scheduler.resume_channel: bad channel";
  match t.engine with
  | Some d -> Deficit.resume d c
  | None -> t.susp.(c) <- false

let choose t pkt =
  let c = t.choose_fn pkt in
  match t.engine with
  | Some _ -> c (* the engine already skips suspended channels *)
  | None ->
    if not t.susp.(c) then c
    else begin
      (* Non-causal baselines get the simplest redistribution: remap a
         suspended choice to the next active channel. *)
      if not (has_active t) then
        invalid_arg "Scheduler.choose: all channels suspended";
      let rec probe k = if t.susp.(k mod t.n) then probe (k + 1) else k mod t.n in
      probe (c + 1)
    end

let account t pkt c = t.account_fn pkt c
let deficit t = t.engine
let reset t = t.remake ()

let observe t ?(now = fun () -> 0.0) sink =
  match t.engine with
  | None -> ()
  | Some d ->
    Deficit.set_hook d
      (Some
         (fun ev ->
           match ev with
           | Deficit.New_round { round } ->
             if Stripe_obs.Sink.active sink then
               Stripe_obs.Sink.emit sink
                 (Stripe_obs.Event.v ~round ~time:(now ())
                    Stripe_obs.Event.Round)
           | Deficit.Retune { round; old_quanta; new_quanta } ->
             (* One event per channel: [dc] carries the old quantum,
                [size] the new one. *)
             if Stripe_obs.Sink.active sink then
               for c = 0 to Array.length new_quanta - 1 do
                 Stripe_obs.Sink.emit sink
                   (Stripe_obs.Event.v ~channel:c ~round ~dc:old_quanta.(c)
                      ~size:new_quanta.(c) ~time:(now ())
                      Stripe_obs.Event.Retune)
               done
           | Deficit.Begin_visit _ | Deficit.Consume _ | Deficit.End_visit _
             ->
             ()))

let rec make ~name ~causal ~n ~fresh () =
  let choose_fn, account_fn, engine = fresh () in
  {
    sched_name = name;
    is_causal = causal;
    n;
    choose_fn;
    account_fn;
    engine;
    susp = Array.make n false;
    remake = (fun () -> make ~name ~causal ~n ~fresh ());
  }

let of_deficit ~name d =
  (* The engine handed in backs the first instance, so callers can install
     hooks on it; [reset] rebuilds a fresh engine at the initial state. *)
  let first = ref (Some d) in
  let fresh () =
    let engine =
      match !first with
      | Some e ->
        first := None;
        e
      | None -> Deficit.clone_initial d
    in
    let choose_fn (_ : Packet.t) = Deficit.select engine in
    let account_fn (pkt : Packet.t) (_ : int) =
      Deficit.consume engine ~size:pkt.size
    in
    (choose_fn, account_fn, Some engine)
  in
  make ~name ~causal:true ~n:(Deficit.n_channels d) ~fresh ()

let srr ?max_packet ~quanta () =
  of_deficit ~name:"SRR" (Srr.create ?max_packet ~quanta ())

let rr ~n () = of_deficit ~name:"RR" (Rr.create ~n ())

let grr ~ratios () = of_deficit ~name:"GRR" (Grr.create ~ratios ())

let positive_n who n = if n <= 0 then invalid_arg (who ^ ": n must be positive")

(* One uniform seeded draw per packet. Selection must be stable across
   repeated [choose] calls before the matching [account], so the draw
   is taken lazily and cached. [reset] rebuilds the RNG from the seed
   and drops any cached draw, so a replay restarts at draw 0. Whether
   this is §3.4's RFQ or [Bay95]'s Random Selection is only a question
   of whether the receiver is assumed to share the seed. *)
let seeded_draw ~name ~causal ~n ~seed =
  let fresh () =
    let rng = Stripe_netsim.Rng.create seed in
    let pending = ref None in
    let choose_fn (_ : Packet.t) =
      match !pending with
      | Some c -> c
      | None ->
        let c = Stripe_netsim.Rng.int rng n in
        pending := Some c;
        c
    in
    let account_fn (_ : Packet.t) (_ : int) = pending := None in
    (choose_fn, account_fn, None)
  in
  make ~name ~causal ~n ~fresh ()

let random_selection ~n ~seed =
  positive_n "Scheduler.random_selection" n;
  seeded_draw ~name:"Random" ~causal:false ~n ~seed

(* §3.4's randomized fair queuing: causal — the receiver can replay the
   stream from the shared seed — but engine-less, so the simulator's
   quasi-FIFO machinery (which replays a deficit engine) does not
   apply; arrival order is the delivery order. *)
let seeded_rfq ~n ~seed =
  positive_n "Scheduler.seeded_rfq" n;
  seeded_draw ~name:"RFQ" ~causal:true ~n ~seed

let shortest_queue ~queue_bytes ~n =
  positive_n "Scheduler.shortest_queue" n;
  let fresh () =
    let choose_fn (_ : Packet.t) =
      let best = ref 0 and best_bytes = ref (queue_bytes 0) in
      for c = 1 to n - 1 do
        let b = queue_bytes c in
        if b < !best_bytes then begin
          best := c;
          best_bytes := b
        end
      done;
      !best
    in
    let account_fn (_ : Packet.t) (_ : int) = () in
    (choose_fn, account_fn, None)
  in
  make ~name:"SQF" ~causal:false ~n ~fresh ()

(* Min-load selection in the memec StripeList style: the channel
   minimizing [load c /. w.(c)], ties to the lowest index. *)
let checked_weights who ~n = function
  | None -> Array.make n 1.0
  | Some w ->
    if Array.length w <> n then
      invalid_arg (who ^ ": weight vector width mismatch");
    Array.iter
      (fun x ->
        if (not (Float.is_finite x)) || x <= 0.0 then
          invalid_arg (who ^ ": weights must be positive"))
      w;
    Array.copy w

let argmin_weighted w load =
  let best = ref 0 and best_load = ref (load 0 /. w.(0)) in
  for c = 1 to Array.length w - 1 do
    let l = load c /. w.(c) in
    if l < !best_load then begin
      best := c;
      best_load := l
    end
  done;
  !best

(* [debt] is the caller's oracle — queued bytes, wire busy time,
   whatever the layer can see. Non-causal: the selection reads link
   state the receiver cannot reconstruct. *)
let load_aware ?weights ~debt ~n () =
  positive_n "Scheduler.load_aware" n;
  let w = checked_weights "Scheduler.load_aware" ~n weights in
  let fresh () =
    let choose_fn (_ : Packet.t) = argmin_weighted w debt in
    let account_fn (_ : Packet.t) (_ : int) = () in
    (choose_fn, account_fn, None)
  in
  make ~name:"Load-aware" ~causal:false ~n ~fresh ()

(* The same argmin over the bytes already assigned to each channel: the
   state is a function of previously transmitted packets only, so this
   form is causal in the §3.1 sense. *)
let min_load ?weights ~n () =
  positive_n "Scheduler.min_load" n;
  let w = checked_weights "Scheduler.min_load" ~n weights in
  let fresh () =
    let assigned = Array.make n 0.0 in
    let choose_fn (_ : Packet.t) = argmin_weighted w (Array.get assigned) in
    let account_fn (pkt : Packet.t) c =
      assigned.(c) <- assigned.(c) +. float_of_int pkt.size
    in
    (choose_fn, account_fn, None)
  in
  make ~name:"Min-load" ~causal:true ~n ~fresh ()

let address_hashing ~n =
  positive_n "Scheduler.address_hashing" n;
  let fresh () =
    (* Knuth multiplicative hash over the flow label. *)
    let hash flow = (flow * 2654435761) land max_int mod n in
    let choose_fn pkt = hash (Packet.flow pkt) in
    let account_fn (_ : Packet.t) (_ : int) = () in
    (choose_fn, account_fn, None)
  in
  make ~name:"Hash" ~causal:false ~n ~fresh ()

type discipline = Srr | Rr | Grr | Sprinklers | Rfq | Load_aware | Random

let disciplines =
  [
    ("srr", Srr); ("rr", Rr); ("grr", Grr); ("sprinklers", Sprinklers);
    ("rfq", Rfq); ("load-aware", Load_aware); ("random", Random);
  ]

let of_discipline d ~rates_bps ~seed ~debt =
  let n = Array.length rates_bps in
  match d with
  | Srr ->
    of_deficit ~name:"SRR"
      (Srr.for_rates ~max_packet:1500 ~rates_bps ~quantum_unit:1500 ())
  | Rr -> rr ~n ()
  | Grr -> of_deficit ~name:"GRR" (Grr.for_rates ~rates_bps ())
  | Sprinklers ->
    of_deficit ~name:"Sprinklers"
      (Sprinklers.for_rates ~max_packet:1500 ~seed ~rates_bps
         ~quantum_unit:1500 ())
  | Rfq -> seeded_rfq ~n ~seed
  | Load_aware -> load_aware ~weights:rates_bps ~debt ~n ()
  | Random -> random_selection ~n ~seed

(* §3.2's transformation, run in both directions over one discipline.
   Both runs start from s0 on a fresh copy, leaving [t] untouched, and
   only a causal f(s) can be evaluated before the served packet is
   known — so [choose] gets a placeholder packet in [fair_queue]. *)
let fresh_causal who t =
  if not t.is_causal then invalid_arg (who ^ ": non-causal scheduler");
  reset t

let load_share t packets =
  let s = fresh_causal "Scheduler.load_share" t in
  List.mapi
    (fun seq (size, payload) ->
      let pkt = Packet.data ~seq ~size () in
      let c = choose s pkt in
      account s pkt c;
      (c, (size, payload)))
    packets

let outputs_by_channel ~n dispatch =
  let rev = Array.make n [] in
  List.iter (fun (c, p) -> rev.(c) <- p :: rev.(c)) dispatch;
  Array.map List.rev rev

let fair_queue t queues =
  let s = fresh_causal "Scheduler.fair_queue" t in
  let remaining = Array.copy queues in
  let total = Array.fold_left (fun acc q -> acc + List.length q) 0 queues in
  let placeholder = Packet.data ~seq:0 ~size:1 () in
  let rec loop acc k =
    if k = total then Some (List.rev acc)
    else
      let c = choose s placeholder in
      match remaining.(c) with
      | [] -> None
      | ((size, _) as p) :: rest ->
        remaining.(c) <- rest;
        account s (Packet.data ~seq:k ~size ()) c;
        loop ((c, p) :: acc) (k + 1)
  in
  loop [] 0
