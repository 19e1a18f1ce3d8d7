(* Fault injection: scheduled and randomized link events, driven through
   the simulator clock against Link.t values. The module is generic in
   the link payload type and knows nothing about the protocol stack; the
   sender-crash hook is a plain closure so the striping layers above can
   wire their own reboot procedure in. *)

type event =
  | Down
  | Up
  | Rate of float
  | Burst_loss of { loss : Loss.t; duration : float }

type action = { at : float; channel : int; event : event }

let event_name = function
  | Down -> "down"
  | Up -> "up"
  | Rate r -> Printf.sprintf "rate=%g" r
  | Burst_loss { duration; _ } -> Printf.sprintf "burst(%gs)" duration

let pp_action fmt a =
  Format.fprintf fmt "%g: ch%d %s" a.at a.channel (event_name a.event)

let inject sim link ~at event =
  match event with
  | Down -> Sim.schedule sim ~at (fun () -> Link.set_up link false)
  | Up -> Sim.schedule sim ~at (fun () -> Link.set_up link true)
  | Rate r ->
    if r <= 0.0 then invalid_arg "Fault.inject: rate must be > 0";
    Sim.schedule sim ~at (fun () -> Link.set_rate_bps link r)
  | Burst_loss { loss; duration } ->
    if duration < 0.0 then invalid_arg "Fault.inject: negative duration";
    Sim.schedule sim ~at (fun () ->
        let previous = Link.loss_process link in
        Link.set_loss link loss;
        Sim.schedule_after sim ~delay:duration (fun () ->
            Link.set_loss link previous))

let apply sim ~links schedule =
  List.iter
    (fun { at; channel; event } ->
      if channel < 0 || channel >= Array.length links then
        invalid_arg
          (Printf.sprintf "Fault.apply: channel %d out of range" channel);
      inject sim links.(channel) ~at event)
    schedule

let down_up sim link ~down_at ~up_at =
  if up_at < down_at then invalid_arg "Fault.down_up: up_at before down_at";
  inject sim link ~at:down_at Down;
  inject sim link ~at:up_at Up

let crash sim ~at reboot = Sim.schedule sim ~at reboot

(* Alternating exponential up/down holding times per channel: the
   standard two-state availability model. Every draw comes from [rng], so
   one seed reproduces the whole schedule. *)
let random_schedule ~rng ~n_channels ~horizon ~mtbf ~mttr =
  if n_channels <= 0 then
    invalid_arg "Fault.random_schedule: n_channels must be positive";
  if horizon <= 0.0 then
    invalid_arg "Fault.random_schedule: horizon must be positive";
  if mtbf <= 0.0 || mttr <= 0.0 then
    invalid_arg "Fault.random_schedule: mtbf and mttr must be positive";
  let actions = ref [] in
  for channel = 0 to n_channels - 1 do
    let t = ref (Rng.exponential rng ~mean:mtbf) in
    let up = ref true in
    while !t < horizon do
      let event = if !up then Down else Up in
      actions := { at = !t; channel; event } :: !actions;
      up := not !up;
      let hold = Rng.exponential rng ~mean:(if !up then mtbf else mttr) in
      t := !t +. hold
    done;
    (* Never leave a channel down past the horizon: the schedule models
       transient faults, and soak tests assert recovery after it ends. *)
    if not !up then actions := { at = horizon; channel; event = Up } :: !actions
  done;
  List.sort (fun a b -> compare (a.at, a.channel) (b.at, b.channel)) !actions

(* Spec grammar (for --fault command-line flags):

     CH:EVENT@T[,EVENT@T...]

   with EVENT one of
     down           carrier loss
     up             carrier recovery
     rate=BPS       set the service rate
     burst=P/DUR    Bernoulli loss probability P for DUR seconds  *)
let parse_spec s =
  let open Spec in
  let c = ctx ~kind:"fault" s in
  let parse_event c tok =
    let* lhs, at = timed c tok in
    let* event =
      match kv lhs with
      | "down", None -> Ok Down
      | "up", None -> Ok Up
      | "rate", Some v ->
        let* r = positive c ~what:"rate" v in
        Ok (Rate r)
      | "burst", Some v ->
        let* p, dur = pair c ~what:"burst" ~sep:'/' v in
        let* p = prob c ~what:"burst" p in
        let* duration = non_negative c ~what:"burst duration" dur in
        Ok (Burst_loss { loss = Loss.bernoulli ~p; duration })
      | _ -> errf c "unknown fault event %S (want down, up, rate=, burst=)" lhs
    in
    Ok (at, event)
  in
  let* channel, rest = channel_prefix c in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (c, tok) :: rest ->
      let* at, event = parse_event c tok in
      collect ({ at; channel; event } :: acc) rest
  in
  collect [] (located c rest)
