(* Growable binary heap in struct-of-arrays layout.

   The per-entry record of the original implementation boxed every
   insertion (entry record + boxed time float); at millions of simulated
   events that dominated the minor heap. Times now live in an unboxed
   [float array], sequence numbers and values in parallel arrays, so the
   steady-state add/pop cycle allocates nothing.

   The [vals] array is backed by a physical-equality dummy ([Obj.magic
   ()]): slots outside [0, size) are always reset to it, so a popped
   value is collectable the moment the caller drops it (the original
   kept the migrated root reachable at [heap.(size)], pinning delivered
   packets live). The dummy never escapes: every read is guarded by
   [size].

   Pop order is exactly (time, insertion seq), so any correct heap pops
   the same sequence: the hole sifts below changed the cost of a pop, not
   its result. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy : unit -> 'a = fun () -> Obj.magic ()

let create () =
  { times = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let[@inline never] grow q =
  let cap = max 16 (2 * q.size) in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let vals = Array.make cap (dummy ()) in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.vals <- vals

(* Both sifts move a hole, not an entry: the entry being placed stays in
   locals while each entry it passes moves one level into the hole — one
   store per array per level, against a three-array swap — and it is
   written once, where the hole stops. *)

let[@inline] add q ~time value =
  if q.size = Array.length q.vals then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let times = q.times and seqs = q.seqs and vals = q.vals in
  let i = ref q.size in
  q.size <- !i + 1;
  (* [seq] is the largest yet, so the new entry precedes a parent only
     by time: a tie keeps it below. *)
  while !i > 0 && time < times.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    times.(!i) <- times.(p);
    seqs.(!i) <- seqs.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let peek_time q = if q.size = 0 then None else Some q.times.(0)

let[@inline] peek_time_unsafe q = q.times.(0)

(* Remove the root: sift the last entry down from a hole at slot 0, then
   clear the vacated last slot so the moved value is not retained twice
   (and the root of a now-empty heap is not retained at all). *)
let remove_root q =
  let last = q.size - 1 in
  q.size <- last;
  let times = q.times and seqs = q.seqs and vals = q.vals in
  if last > 0 then begin
    let t = times.(last) and s = seqs.(last) and v = vals.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < t || (ct = t && seqs.(c) < s) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- t;
    seqs.(!i) <- s;
    vals.(!i) <- v
  end;
  vals.(last) <- dummy ()

let take q clock =
  if q.size = 0 then invalid_arg "Eventq.take: empty queue";
  clock.(0) <- q.times.(0);
  let v = q.vals.(0) in
  remove_root q;
  v

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) and v = q.vals.(0) in
    remove_root q;
    Some (time, v)
  end

let clear q =
  q.size <- 0;
  q.times <- [||];
  q.seqs <- [||];
  q.vals <- [||]
