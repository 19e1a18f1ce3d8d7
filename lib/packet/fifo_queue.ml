(* Ring buffer in struct-of-arrays layout.

   The previous implementation stored [(v, size)] tuples in a stdlib
   [Queue]: every push allocated a tuple plus a queue cell, and every
   pop boxed an option — three allocations per packet per queue on the
   hot path. Values and sizes now live in parallel arrays indexed by a
   wrapping head pointer (power-of-two capacity, mask indexing), so the
   steady-state push/pop cycle allocates nothing.

   Popped slots are reset to a physical-equality dummy so delivered
   values are collectable immediately. The dummy never escapes: every
   read is guarded by [len]. *)

type 'a t = {
  mutable vals : 'a array;
  mutable sizes : int array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable total_bytes : int;
  mutable hw_packets : int;
  mutable hw_bytes : int;
}

let dummy : unit -> 'a = fun () -> Obj.magic ()

let initial_capacity = 8

let create () =
  {
    vals = [||];
    sizes = [||];
    head = 0;
    len = 0;
    total_bytes = 0;
    hw_packets = 0;
    hw_bytes = 0;
  }

let grow t =
  let cap = Array.length t.vals in
  if t.len = cap then begin
    let ncap = if cap = 0 then initial_capacity else 2 * cap in
    let vals = Array.make ncap (dummy ()) in
    let sizes = Array.make ncap 0 in
    for i = 0 to t.len - 1 do
      let j = (t.head + i) land (cap - 1) in
      vals.(i) <- t.vals.(j);
      sizes.(i) <- t.sizes.(j)
    done;
    t.vals <- vals;
    t.sizes <- sizes;
    t.head <- 0
  end

let push t ~size v =
  grow t;
  let mask = Array.length t.vals - 1 in
  let i = (t.head + t.len) land mask in
  t.vals.(i) <- v;
  t.sizes.(i) <- size;
  t.len <- t.len + 1;
  t.total_bytes <- t.total_bytes + size;
  if t.len > t.hw_packets then t.hw_packets <- t.len;
  if t.total_bytes > t.hw_bytes then t.hw_bytes <- t.total_bytes

let is_empty t = t.len = 0

let length t = t.len

let bytes t = t.total_bytes

let peek_unsafe t = t.vals.(t.head)

let peek_size_unsafe t = t.sizes.(t.head)

let peek t = if t.len = 0 then None else Some t.vals.(t.head)

let pop_exn t =
  if t.len = 0 then invalid_arg "Fifo_queue.pop_exn: empty queue";
  let mask = Array.length t.vals - 1 in
  let v = t.vals.(t.head) in
  t.vals.(t.head) <- dummy ();
  t.total_bytes <- t.total_bytes - t.sizes.(t.head);
  t.head <- (t.head + 1) land mask;
  t.len <- t.len - 1;
  v

let pop t = if t.len = 0 then None else Some (pop_exn t)

let high_water_packets t = t.hw_packets

let high_water_bytes t = t.hw_bytes

let note_through t ~size =
  if t.len >= t.hw_packets then t.hw_packets <- t.len + 1;
  if t.total_bytes + size > t.hw_bytes then t.hw_bytes <- t.total_bytes + size

let reset_high_water t =
  t.hw_packets <- t.len;
  t.hw_bytes <- t.total_bytes

let clear t =
  let mask = Array.length t.vals - 1 in
  for i = 0 to t.len - 1 do
    t.vals.((t.head + i) land mask) <- dummy ()
  done;
  t.head <- 0;
  t.len <- 0;
  t.total_bytes <- 0

let recycle t =
  clear t;
  reset_high_water t

let to_list t =
  let acc = ref [] in
  let mask = Array.length t.vals - 1 in
  for i = t.len - 1 downto 0 do
    acc := t.vals.((t.head + i) land mask) :: !acc
  done;
  !acc
