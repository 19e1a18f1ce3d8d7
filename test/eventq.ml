(* Growable 4-ary heap in struct-of-arrays layout.

   Times live in an unboxed [float array], insertion sequence numbers
   and payloads in parallel [int array]s, so the steady-state add/pop
   cycle allocates nothing and no add or pop pays the [caml_modify]
   write barrier: the payload is an int, not a closure.

   Four children per node halve the depth of a binary heap. Each level
   of a sift-down compares up to four adjacent children — 32 bytes of
   times, mostly within one cache line — for half as many levels, and
   a sift-up, which is what nearly every add does, crosses half as
   many levels.

   Pop order is exactly (time, insertion seq), so any correct heap pops
   the same sequence: the arity and the hole sifts below change the
   cost of a pop, not its result. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
}

let arity = 4

let create () =
  { times = [||]; seqs = [||]; slots = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let[@inline never] grow q =
  let cap = max 16 (2 * q.size) in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let slots = Array.make cap 0 in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.slots 0 slots 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.slots <- slots

(* Both sifts move a hole, not an entry: the entry being placed stays in
   locals while each entry it passes moves one level into the hole — one
   store per array per level, against a three-array swap — and it is
   written once, where the hole stops. *)

let[@inline] add q ~time slot =
  if q.size = Array.length q.slots then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let i = ref q.size in
  q.size <- !i + 1;
  (* [seq] is the largest yet, so the new entry precedes a parent only
     by time: a tie keeps it below. *)
  while !i > 0 && time < times.((!i - 1) / arity) do
    let p = (!i - 1) / arity in
    times.(!i) <- times.(p);
    seqs.(!i) <- seqs.(p);
    slots.(!i) <- slots.(p);
    i := p
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let peek_time q = if q.size = 0 then None else Some q.times.(0)

(* Remove the root: sift the last entry down from a hole at index 0.
   The children of [i] are [arity * i + 1 .. arity * i + arity]; the
   earliest of those inside the heap moves up while it precedes the
   entry being placed. *)
let remove_root q =
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    let times = q.times and seqs = q.seqs and slots = q.slots in
    let t = times.(last) and s = seqs.(last) and v = slots.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let first = (arity * !i) + 1 in
      if first >= last then sifting := false
      else begin
        let c = ref first in
        for k = first + 1 to Int.min (first + arity) last - 1 do
          if
            times.(k) < times.(!c)
            || (times.(k) = times.(!c) && seqs.(k) < seqs.(!c))
          then c := k
        done;
        let c = !c in
        let ct = times.(c) in
        if ct < t || (ct = t && seqs.(c) < s) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- t;
    seqs.(!i) <- s;
    slots.(!i) <- v
  end

let[@inline] take_root q clock =
  clock.(0) <- q.times.(0);
  let v = q.slots.(0) in
  remove_root q;
  v

let take q clock =
  if q.size = 0 then invalid_arg "Eventq.take: empty queue";
  take_root q clock

(* [take] bounded by [horizon]: one look at the root decides, so a
   caller stepping up to a time neither peeks twice nor returns a float
   to compare. Written so that a NaN horizon takes nothing. *)
let take_until q clock horizon =
  if q.size = 0 || not (q.times.(0) <= horizon) then -1
  else take_root q clock

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) and v = q.slots.(0) in
    remove_root q;
    Some (time, v)
  end

let clear q =
  q.size <- 0;
  q.times <- [||];
  q.seqs <- [||];
  q.slots <- [||]
