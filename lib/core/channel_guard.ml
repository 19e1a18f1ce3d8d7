open Stripe_packet
module Obs = Stripe_obs

(* Sender side: one sequential tag counter per channel. *)
module Tx = struct
  type t = { tags : int array }

  let create ~n =
    if n <= 0 then invalid_arg "Channel_guard.Tx.create: n must be positive";
    { tags = Array.make n 0 }

  let next_tag t ~channel =
    if channel < 0 || channel >= Array.length t.tags then
      invalid_arg "Channel_guard.Tx.next_tag: bad channel";
    let tag = t.tags.(channel) in
    t.tags.(channel) <- tag + 1;
    tag

  let reset t = Array.fill t.tags 0 (Array.length t.tags) 0
end

(* Receiver side. Per channel: the next tag due, plus a bounded table of
   early arrivals keyed by tag. An entry of [None] is a tag that was
   consumed without a deliverable payload (a checksum-failed marker):
   the stream position must advance past it, but nothing goes
   downstream. *)
type chan = {
  mutable next : int;
  held : (int, Packet.t option) Hashtbl.t;
}

type t = {
  chans : chan array;
  window : int;
  now : unit -> float;
  sink : Obs.Sink.t;
  deliver : channel:int -> Packet.t -> unit;
  mutable n_forwarded : int;
  mutable n_dups : int;
  mutable n_restores : int;
  mutable n_corrupt : int;
  mutable n_held : int;
  mutable hw_held : int;
}

let create ~n ?(window = 32) ?(now = fun () -> 0.0) ?(sink = Obs.Sink.null)
    ~deliver () =
  if n <= 0 then invalid_arg "Channel_guard.create: n must be positive";
  if window <= 0 then invalid_arg "Channel_guard.create: window must be > 0";
  {
    chans = Array.init n (fun _ -> { next = 0; held = Hashtbl.create 8 });
    window;
    now;
    sink;
    deliver;
    n_forwarded = 0;
    n_dups = 0;
    n_restores = 0;
    n_corrupt = 0;
    n_held = 0;
    hw_held = 0;
  }

let emit t kind ~channel ~size ~seq =
  if Obs.Sink.active t.sink then
    Obs.Sink.emit t.sink
      (Obs.Event.v ~channel ~size ~seq ~time:(t.now ()) kind)

let forward t ~channel pkt =
  t.n_forwarded <- t.n_forwarded + 1;
  t.deliver ~channel pkt

(* Release every consecutively-held tag starting at [ch.next].
   [restored] classifies the release: [true] when an arrival filled the
   gap and tag order is genuinely repaired (these are the
   [Reorder_restore] events), [false] when the guard abandoned the gap
   (window shed, teardown flush) — those packets leave the guard with
   their predecessors declared lost, and it is the {e downstream}
   delivery gauge that judges them (watchdog-skipped channels deliver
   them late). Counting them as restores too would book the same packet
   in both columns. *)
let release_ready t ~restored ~channel ch =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt ch.held ch.next with
    | None -> continue := false
    | Some entry ->
      Hashtbl.remove ch.held ch.next;
      ch.next <- ch.next + 1;
      t.n_held <- t.n_held - 1;
      (match entry with
      | Some pkt ->
        if restored then begin
          t.n_restores <- t.n_restores + 1;
          emit t Obs.Event.Reorder_restore ~channel ~size:pkt.Packet.size
            ~seq:pkt.Packet.seq
        end;
        forward t ~channel pkt
      | None -> ())
  done

(* The hold window overflowed: the oldest gap will not be waited for any
   longer. Declare everything up to the smallest held tag lost and
   release from there, repeating until the channel is back inside its
   window. Degrades reordering-plus-loss to plain loss, which the
   resequencer's marker machinery already contains. *)
let shed_overflow t ~channel ch =
  while Hashtbl.length ch.held > t.window do
    let smallest =
      Hashtbl.fold (fun tag _ acc -> min tag acc) ch.held max_int
    in
    ch.next <- smallest;
    release_ready t ~restored:false ~channel ch
  done

let receive t ~channel ~tag pkt =
  if channel < 0 || channel >= Array.length t.chans then
    invalid_arg "Channel_guard.receive: bad channel";
  if tag < 0 then invalid_arg "Channel_guard.receive: negative tag";
  let ch = t.chans.(channel) in
  (* Integrity first: a marker whose checksum does not match was damaged
     in flight. Its tag still advances the stream position — the damage
     hit the payload, not the shim header carrying the tag. *)
  let entry =
    if not (Packet.marker_valid pkt) then begin
      t.n_corrupt <- t.n_corrupt + 1;
      emit t Obs.Event.Corrupt_discard ~channel ~size:pkt.Packet.size
        ~seq:pkt.Packet.seq;
      None
    end
    else Some pkt
  in
  if tag < ch.next || Hashtbl.mem ch.held tag then begin
    (* Already released (or its gap already declared lost), or a second
       copy of a packet still being held: discard. *)
    t.n_dups <- t.n_dups + 1;
    emit t Obs.Event.Dup_discard ~channel ~size:pkt.Packet.size
      ~seq:pkt.Packet.seq
  end
  else if tag = ch.next then begin
    ch.next <- ch.next + 1;
    (match entry with Some pkt -> forward t ~channel pkt | None -> ());
    if Hashtbl.length ch.held > 0 then
      release_ready t ~restored:true ~channel ch
  end
  else begin
    Hashtbl.replace ch.held tag entry;
    t.n_held <- t.n_held + 1;
    if t.n_held > t.hw_held then t.hw_held <- t.n_held;
    shed_overflow t ~channel ch
  end

let flush t =
  Array.iteri
    (fun channel ch ->
      while Hashtbl.length ch.held > 0 do
        let smallest =
          Hashtbl.fold (fun tag _ acc -> min tag acc) ch.held max_int
        in
        ch.next <- smallest;
        release_ready t ~restored:false ~channel ch
      done)
    t.chans

let forwarded t = t.n_forwarded
let dup_discards t = t.n_dups
let reorder_restores t = t.n_restores
let corrupt_discards t = t.n_corrupt
let held_packets t = t.n_held
let max_held_packets t = t.hw_held
