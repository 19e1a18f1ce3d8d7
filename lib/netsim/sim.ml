type engine = Heap | Calendar

let engine_name = function Heap -> "heap" | Calendar -> "calendar"

let engine_of_name = function
  | "heap" -> Some Heap
  | "calendar" -> Some Calendar
  | _ -> None

type events =
  | Qheap of (unit -> unit) Eventq.t
  | Qcal of (unit -> unit) Calendar_queue.t

type t = {
  clock : float array;
      (* Single-cell unboxed store: assigning a mutable float field of a
         mixed record boxes on every event, a float-array store does
         not. *)
  mutable stopped : bool;
  events : events;
}

let create ?(engine = Heap) () =
  {
    clock = [| 0.0 |];
    stopped = false;
    events =
      (match engine with
      | Heap -> Qheap (Eventq.create ())
      | Calendar -> Qcal (Calendar_queue.create ()));
  }

let engine t = match t.events with Qheap _ -> Heap | Qcal _ -> Calendar

let[@inline] now t = t.clock.(0)

let[@inline never] schedule_invalid at now =
  invalid_arg
    (if Float.is_nan at then "Sim.schedule: time is NaN"
     else Printf.sprintf "Sim.schedule: time %g is before now (%g)" at now)

let[@inline] schedule t ~at f =
  (* Written so that NaN fails the test too: [at < now] is false for
     NaN, and a NaN event breaks the (time, seq) order of both queues. *)
  if not (at >= t.clock.(0)) then schedule_invalid at t.clock.(0);
  match t.events with
  | Qheap q -> Eventq.add q ~time:at f
  | Qcal q -> Calendar_queue.add q ~time:at f

let[@inline] schedule_after t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Sim.schedule_after: delay is NaN"
       else "Sim.schedule_after: negative delay");
  schedule t ~at:(t.clock.(0) +. delay) f

(* One scan per event: [take] finds the earliest event, writes its time
   into the clock cell and removes it. The event is bound before it is
   called: [(take q clock) ()] compiles to one three-argument application,
   which a caller that cannot see [take]'s arity (any dev build) performs
   one argument at a time, allocating a partial application per event. *)
let step t =
  match t.events with
  | Qheap q ->
    if Eventq.is_empty q then false
    else begin
      let f = Eventq.take q t.clock in
      f ();
      true
    end
  | Qcal q ->
    if Calendar_queue.is_empty q then false
    else begin
      let f = Calendar_queue.take q t.clock in
      f ();
      true
    end

let run t =
  t.stopped <- false;
  let continue = ref true in
  while !continue do
    if t.stopped then continue := false else continue := step t
  done

let run_until t horizon =
  t.stopped <- false;
  let continue = ref true in
  let next_time () =
    match t.events with
    | Qheap q ->
      if Eventq.is_empty q then infinity else Eventq.peek_time_unsafe q
    | Qcal q ->
      if Calendar_queue.is_empty q then infinity
      else Calendar_queue.peek_time_unsafe q
  in
  while !continue do
    if t.stopped then continue := false
    else if next_time () <= horizon then ignore (step t)
    else continue := false
  done;
  (* Fast-forward to the horizon only when the run actually reached it: a
     [stop] mid-run leaves the clock at the stop point, so the caller can
     resume from where the stopping event fired instead of silently
     losing the rest of the window. *)
  if (not t.stopped) && t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t =
  match t.events with
  | Qheap q -> Eventq.length q
  | Qcal q -> Calendar_queue.length q

let stop t = t.stopped <- true

let reset t =
  if pending t > 0 then invalid_arg "Sim.reset: events are pending";
  t.clock.(0) <- 0.0;
  t.stopped <- false
