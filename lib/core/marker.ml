type position =
  | Round_start
  | Mid_round
  | Round_end

type policy = {
  every_rounds : int;
  position : position;
  credit_of : (int -> int) option;
}

let make ?credit_of ?(position = Round_end) ~every_rounds () =
  if every_rounds < 1 then invalid_arg "Marker.make: every_rounds must be >= 1";
  { every_rounds; position; credit_of }

let default = make ~every_rounds:4 ()

(* Allocates only the marker packet: no stamp record, no options for
   arguments that are always present, no closure for the credit and no
   [Some] around it ([Packet.no_credit] stands for none). *)
let packet_for ~epoch ~gen policy ~deficit ~channel ~now =
  let credit =
    match policy.credit_of with
    | None -> Stripe_packet.Packet.no_credit
    | Some f -> f channel
  in
  Stripe_packet.Packet.marker_with ~credit ~reset:false ~epoch ~gen ~channel
    ~round:(Deficit.next_stamp_round deficit channel)
    ~dc:(Deficit.next_stamp_dc deficit channel)
    ~born:now

let batch policy d ~next ~epoch ~gen ~now ~send =
  let r = Deficit.round d in
  if r < next then next
  else begin
    let now = now () in
    for channel = 0 to Deficit.n_channels d - 1 do
      (* Suspended channels get no markers: they receive no quanta, so
         [next_stamp] has nothing truthful to say about them, and the
         reset barrier on resume resynchronizes the receiver anyway. *)
      if not (Deficit.suspended d channel) then
        send ~channel (packet_for ~epoch ~gen policy ~deficit:d ~channel ~now)
    done;
    ((r / policy.every_rounds) + 1) * policy.every_rounds
  end

let reset_barrier d ~epoch ~gen ~now ~send =
  Deficit.reinit d;
  (* Fresh-epoch stamps: every channel's next packet is (0, quantum). *)
  let now = now () in
  for channel = 0 to Deficit.n_channels d - 1 do
    send ~channel
      (Stripe_packet.Packet.marker_with ~credit:Stripe_packet.Packet.no_credit
         ~reset:true ~epoch ~gen ~channel
         ~round:(Deficit.next_stamp_round d channel)
         ~dc:(Deficit.next_stamp_dc d channel)
         ~born:now)
  done;
  0
