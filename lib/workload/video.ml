type frame = {
  id : int;
  send_time : float;
  packet_sizes : int array;
}

type t = {
  fps : float;
  frames : frame array;
}

(* Mean packet size in bytes, before the ±25 % jitter. *)
let packet_size = 1000

let generate ~rng ?(fps = 10.0) ?(packets_per_frame = 6) ?(refresh_every = 30)
    ?(refresh_scale = 3) ~n_frames () =
  if fps <= 0.0 then invalid_arg "Video.generate: fps must be positive";
  if n_frames <= 0 then invalid_arg "Video.generate: n_frames must be positive";
  if packets_per_frame <= 0 then
    invalid_arg "Video.generate: bad frame shape";
  let jittered () =
    let spread = packet_size / 4 in
    packet_size - spread + Stripe_netsim.Rng.int rng (max 1 (2 * spread))
  in
  let frames =
    Array.init n_frames (fun id ->
        let count =
          if refresh_every > 0 && id mod refresh_every = 0 then
            packets_per_frame * refresh_scale
          else packets_per_frame
        in
        {
          id;
          send_time = float_of_int id /. fps;
          packet_sizes = Array.init count (fun _ -> jittered ());
        })
  in
  { fps; frames }

let packets t =
  let seq = ref 0 in
  Array.to_list t.frames
  |> List.concat_map (fun f ->
         Array.to_list f.packet_sizes
         |> List.map (fun size ->
                let pkt =
                  Stripe_packet.Packet.data ~frame:f.id ~born:f.send_time
                    ~seq:!seq ~size ()
                in
                incr seq;
                (f.send_time, pkt)))

let n_packets t =
  Array.fold_left (fun acc f -> acc + Array.length f.packet_sizes) 0 t.frames

let frame_packet_count t id =
  if id < 0 || id >= Array.length t.frames then 0
  else Array.length t.frames.(id).packet_sizes

let duration t =
  match Array.length t.frames with
  | 0 -> 0.0
  | n -> t.frames.(n - 1).send_time +. (1.0 /. t.fps)
