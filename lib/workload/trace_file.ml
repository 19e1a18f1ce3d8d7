type entry = {
  time : float;
  packet : Stripe_packet.Packet.t;
}

let to_string entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# stripe trace v1: time seq size flow frame\n";
  List.iter
    (fun e ->
      let p = e.packet in
      Buffer.add_string buf
        (Printf.sprintf "%.6f %d %d %d %d\n" e.time p.Stripe_packet.Packet.seq
           p.Stripe_packet.Packet.size
           (Stripe_packet.Packet.flow p)
           (Stripe_packet.Packet.frame p)))
    entries;
  Buffer.contents buf

let of_string s =
  let entries = ref [] in
  List.iteri
    (fun lineno line ->
      let fail what =
        failwith (Printf.sprintf "Trace_file: %s at line %d" what (lineno + 1))
      in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char ' ' line |> List.filter (fun x -> x <> "") with
        | [ time; seq; size; flow; frame ] -> (
          match
            ( float_of_string_opt time,
              int_of_string_opt seq,
              int_of_string_opt size,
              int_of_string_opt flow,
              int_of_string_opt frame )
          with
          | Some time, _, _, _, _
            when not (Float.is_finite time && time >= 0.0) ->
            fail (Printf.sprintf "time %g is not a finite time >= 0" time)
          | _, _, Some size, _, _ when size <= 0 ->
            fail (Printf.sprintf "size %d is not positive" size)
          | Some time, Some seq, Some size, Some flow, Some frame ->
            entries :=
              {
                time;
                packet =
                  Stripe_packet.Packet.data ~flow ~frame ~born:time ~seq ~size ();
              }
              :: !entries
          | _ -> fail "malformed fields")
        | _ -> fail "expected 5 fields"
      end)
    (String.split_on_char '\n' s);
  List.rev !entries

let save path entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string entries))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

let of_video trace =
  List.map (fun (time, packet) -> { time; packet }) (Video.packets trace)

let total_bytes entries =
  List.fold_left (fun acc e -> acc + e.packet.Stripe_packet.Packet.size) 0 entries

let duration entries =
  List.fold_left (fun acc e -> max acc e.time) 0.0 entries
