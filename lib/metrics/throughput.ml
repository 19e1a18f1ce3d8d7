type t = {
  mutable epoch : float option;
  mutable stop : float;
  capacity_bps : float;
  mutable last : float;
  mutable b : int;
  mutable n : int;
}

let create ?(capacity_bps = infinity) () =
  { epoch = None; stop = infinity; capacity_bps; last = 0.0; b = 0; n = 0 }

let start_at t at = t.epoch <- Some at

let stop_at t at = t.stop <- at

let account t ~now ~bytes =
  if now <= t.stop then begin
    (match t.epoch with None -> t.epoch <- Some now | Some _ -> ());
    if now > t.last then t.last <- now;
    t.b <- t.b + bytes;
    t.n <- t.n + 1
  end

let bytes t = t.b

let packets t = t.n

let duration t =
  let until = if t.stop < infinity then t.stop else t.last in
  match t.epoch with None -> 0.0 | Some e -> max 0.0 (until -. e)

(* No goodput can exceed the capacity of the links it crossed, so one
   that does is a measurement bug, and fails the run. *)
let bps t =
  let d = duration t in
  let bps = if d <= 0.0 then 0.0 else float_of_int (t.b * 8) /. d in
  if bps > t.capacity_bps then
    failwith
      (Printf.sprintf "goodput %.2f Mbps exceeds the links' %.2f Mbps"
         (bps /. 1e6) (t.capacity_bps /. 1e6));
  bps

let mbps t = bps t /. 1e6
