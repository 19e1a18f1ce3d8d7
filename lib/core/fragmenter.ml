open Stripe_packet

let header_size = 8

type fragment = {
  fg_id : int;
  fg_channel : int;
  fg_n : int;
  fg_payload : int;
  fg_total : int;
  fg_seq : int;
  fg_frame : int;
  fg_born : float;
}

let wire_size f = f.fg_payload + header_size

module Sender = struct
  type t = {
    shares : float array;
    total_share : float;
    emit : channel:int -> fragment -> unit;
    payload_bytes : int array;
    mutable next_id : int;
  }

  let create ~shares ~emit () =
    let n = Array.length shares in
    if n = 0 then invalid_arg "Fragmenter.Sender.create: no channels";
    Array.iter
      (fun s ->
        if s <= 0.0 then
          invalid_arg "Fragmenter.Sender.create: shares must be positive")
      shares;
    {
      shares = Array.copy shares;
      total_share = Array.fold_left ( +. ) 0.0 shares;
      emit;
      payload_bytes = Array.make n 0;
      next_id = 0;
    }

  let push t pkt =
    if Packet.is_marker pkt then
      invalid_arg "Fragmenter.Sender.push: markers do not apply here";
    let n = Array.length t.shares in
    let id = t.next_id in
    t.next_id <- id + 1;
    (* Proportional split with largest-remainder rounding so the pieces
       sum exactly to the datagram size. *)
    let size = pkt.Packet.size in
    let exact =
      Array.map (fun s -> float_of_int size *. s /. t.total_share) t.shares
    in
    let floors = Array.map int_of_float exact in
    let assigned = Array.fold_left ( + ) 0 floors in
    let remainder = size - assigned in
    let by_frac =
      Array.init n (fun i -> (exact.(i) -. float_of_int floors.(i), i))
    in
    Array.sort (fun (a, _) (b, _) -> compare b a) by_frac;
    for k = 0 to remainder - 1 do
      let _, i = by_frac.(k mod n) in
      floors.(i) <- floors.(i) + 1
    done;
    for channel = 0 to n - 1 do
      let payload = floors.(channel) in
      t.payload_bytes.(channel) <- t.payload_bytes.(channel) + payload;
      t.emit ~channel
        {
          fg_id = id;
          fg_channel = channel;
          fg_n = n;
          fg_payload = payload;
          fg_total = size;
          fg_seq = pkt.Packet.seq;
          fg_frame = Packet.frame pkt;
          fg_born = pkt.Packet.born;
        }
    done

  let pushed t = t.next_id

  let channel_payload_bytes t c = t.payload_bytes.(c)
end

module Reassembler = struct
  type entry = {
    mutable received : int;  (* fragments seen *)
    mutable bytes : int;
    mutable seq : int;
    mutable frame : int;
    mutable born : float;
    mutable total : int;
  }

  type t = {
    n : int;
    deliver : Packet.t -> unit;
    table : (int, entry) Hashtbl.t;
    max_seen : int array;  (* highest id seen per channel; -1 initially *)
    mutable next_id : int;
    mutable n_delivered : int;
    mutable n_dropped : int;
  }

  let create ~n_channels ~deliver () =
    if n_channels <= 0 then invalid_arg "Fragmenter.Reassembler.create: no channels";
    {
      n = n_channels;
      deliver;
      table = Hashtbl.create 256;
      max_seen = Array.make n_channels (-1);
      next_id = 0;
      n_delivered = 0;
      n_dropped = 0;
    }

  (* A datagram id is provably dead once every channel has delivered a
     fragment with a higher id: channels are FIFO and every datagram puts
     one fragment on every channel, so nothing older can still arrive. *)
  let horizon t = Array.fold_left min max_int t.max_seen

  let rec release t =
    if t.next_id <= horizon t then begin
      (match Hashtbl.find_opt t.table t.next_id with
      | Some e when e.received = t.n ->
        Hashtbl.remove t.table t.next_id;
        t.n_delivered <- t.n_delivered + 1;
        t.deliver
          (Packet.data ~flow:0 ~frame:e.frame ~born:e.born ~seq:e.seq
             ~size:e.total ())
      | Some _ ->
        Hashtbl.remove t.table t.next_id;
        t.n_dropped <- t.n_dropped + 1
      | None ->
        (* No fragment of it arrived at all. *)
        t.n_dropped <- t.n_dropped + 1);
      t.next_id <- t.next_id + 1;
      release t
    end
    else
      (* The id at the release point may be complete even before every
         channel moved past it. *)
      match Hashtbl.find_opt t.table t.next_id with
      | Some e when e.received = t.n ->
        Hashtbl.remove t.table t.next_id;
        t.n_delivered <- t.n_delivered + 1;
        t.deliver
          (Packet.data ~flow:0 ~frame:e.frame ~born:e.born ~seq:e.seq
             ~size:e.total ());
        t.next_id <- t.next_id + 1;
        release t
      | Some _ | None -> ()

  let receive t ~channel f =
    if channel < 0 || channel >= t.n then
      invalid_arg "Fragmenter.Reassembler.receive: bad channel";
    if f.fg_id >= t.next_id then begin
      let e =
        match Hashtbl.find_opt t.table f.fg_id with
        | Some e -> e
        | None ->
          let e =
            { received = 0; bytes = 0; seq = 0; frame = -1; born = 0.0; total = 0 }
          in
          Hashtbl.add t.table f.fg_id e;
          e
      in
      e.received <- e.received + 1;
      e.bytes <- e.bytes + f.fg_payload;
      e.seq <- f.fg_seq;
      e.frame <- f.fg_frame;
      e.born <- f.fg_born;
      e.total <- f.fg_total
    end;
    if f.fg_id > t.max_seen.(channel) then t.max_seen.(channel) <- f.fg_id;
    release t

  let delivered t = t.n_delivered
  let dropped_incomplete t = t.n_dropped
  let pending t = Hashtbl.length t.table
end
