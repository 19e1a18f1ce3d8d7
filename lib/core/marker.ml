type position =
  | Round_start
  | Mid_round
  | Round_end

type policy = {
  every_rounds : int;
  position : position;
  credit_of : (int -> int) option;
}

type send =
  channel:int -> round:int -> dc:int -> credit:int -> reset:bool -> epoch:int ->
  gen:int -> unit

let make ?credit_of ?(position = Round_end) ~every_rounds () =
  if every_rounds < 1 then invalid_arg "Marker.make: every_rounds must be >= 1";
  { every_rounds; position; credit_of }

let default = make ~every_rounds:4 ()

(* No closure for the credit and no [Some] around it
   ([Packet.no_credit] stands for none). *)
let credit policy channel =
  match policy.credit_of with
  | None -> Stripe_packet.Packet.no_credit
  | Some f -> f channel

(* Allocates only the marker packet: no stamp record and no options for
   arguments that are always present. *)
let packet_for ~epoch ~gen policy ~deficit ~channel ~now =
  Stripe_packet.Packet.marker_with ~credit:(credit policy channel) ~reset:false
    ~epoch ~gen ~channel
    ~round:(Deficit.next_stamp_round deficit channel)
    ~dc:(Deficit.next_stamp_dc deficit channel)
    ~born:now

let send_stamp policy d ~epoch ~gen ~channel ~(send : send) =
  send ~channel
    ~round:(Deficit.next_stamp_round d channel)
    ~dc:(Deficit.next_stamp_dc d channel)
    ~credit:(credit policy channel) ~reset:false ~epoch ~gen

let batch policy d ~next ~epoch ~gen ~send =
  let r = Deficit.round d in
  if r < next then next
  else begin
    for channel = 0 to Deficit.n_channels d - 1 do
      (* Suspended channels get no markers: they receive no quanta, so
         [next_stamp] has nothing truthful to say about them, and the
         reset barrier on resume resynchronizes the receiver anyway. *)
      if not (Deficit.suspended d channel) then
        send_stamp policy d ~epoch ~gen ~channel ~send
    done;
    ((r / policy.every_rounds) + 1) * policy.every_rounds
  end

let reset_barrier d ~epoch ~gen ~(send : send) =
  Deficit.reinit d;
  (* Fresh-epoch stamps: every channel's next packet is (0, quantum). *)
  for channel = 0 to Deficit.n_channels d - 1 do
    send ~channel
      ~round:(Deficit.next_stamp_round d channel)
      ~dc:(Deficit.next_stamp_dc d channel)
      ~credit:Stripe_packet.Packet.no_credit ~reset:true ~epoch ~gen
  done;
  0
