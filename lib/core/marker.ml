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
   arguments that are always present, no closure for the credit. *)
let packet_for ~epoch ~gen policy ~deficit ~channel ~now =
  let credit =
    match policy.credit_of with None -> None | Some f -> Some (f channel)
  in
  Stripe_packet.Packet.marker_with ~credit ~reset:false ~epoch ~gen ~channel
    ~round:(Deficit.next_stamp_round deficit channel)
    ~dc:(Deficit.next_stamp_dc deficit channel)
    ~born:now
