(* Ring [r] lives at [buf.(r * cap + wrap (head.(r) + i))]. The capacity
   is any size, so a slice can fit an owner's record exactly; [head] and
   [i] are both below it, so one subtraction wraps an index. Ints need
   no clearing on pop, since the GC never scans them. *)

type t = {
  mutable buf : int array;
  mutable head : int array;
  mutable len : int array;
  mutable cap : int;  (* ints per ring *)
}

let create ~rings ~cap =
  if cap <= 0 then invalid_arg "Int_rings.create: cap must be positive";
  {
    buf = Array.make (rings * cap) 0;
    head = Array.make rings 0;
    len = Array.make rings 0;
    cap;
  }

let extend t ~rings =
  let n = Array.length t.head in
  if rings > n then begin
    let buf = Array.make (rings * t.cap) 0 in
    Array.blit t.buf 0 buf 0 (n * t.cap);
    let grow a =
      let b = Array.make rings 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.buf <- buf;
    t.head <- grow t.head;
    t.len <- grow t.len
  end

let[@inline] slot t r i =
  let j = t.head.(r) + i in
  (r * t.cap) + if j >= t.cap then j - t.cap else j

(* Double every slice, unwrapping each ring to the front of its own. *)
let[@inline never] grow t =
  let ncap = 2 * t.cap in
  let buf = Array.make (Array.length t.head * ncap) 0 in
  for r = 0 to Array.length t.head - 1 do
    for i = 0 to t.len.(r) - 1 do
      buf.((r * ncap) + i) <- t.buf.(slot t r i)
    done;
    t.head.(r) <- 0
  done;
  t.buf <- buf;
  t.cap <- ncap

let push t r v =
  let n = t.len.(r) in
  if n = t.cap then grow t;
  t.buf.(slot t r n) <- v;
  t.len.(r) <- n + 1

let pop t r =
  let n = t.len.(r) in
  if n = 0 then invalid_arg "Int_rings.pop: empty ring";
  let v = t.buf.(slot t r 0) in
  let h = t.head.(r) + 1 in
  t.head.(r) <- (if h = t.cap then 0 else h);
  t.len.(r) <- n - 1;
  v

let clear t r =
  t.head.(r) <- 0;
  t.len.(r) <- 0

let clear_all t =
  Array.fill t.head 0 (Array.length t.head) 0;
  Array.fill t.len 0 (Array.length t.len) 0

let to_list t r = List.init t.len.(r) (fun i -> t.buf.(slot t r i))
