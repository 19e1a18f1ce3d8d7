(* Ignored: every simulation runs the calendar; kept until ROADMAP item
   20 edits [workloads.ml]. *)
type engine = Heap | Calendar

(* Every pending closure sits in one slot table, and the calendar
   queue orders plain (time, slot) entries: no entry it adds, pops or
   moves in a shift or rehash is a pointer, so none pays the
   [caml_modify] write barrier, and each event costs two pointer stores
   here — its closure into the table, and the no-op over it when it
   fires. Slots in [0, used) are pending or on the free stack
   [free.(0 .. nfree - 1)]; a pending slot's closure is in [fns], every
   other slot holds [nop], so a fired closure is collectable at once.
   Pop order is (time, insertion), so which slot an event takes never
   changes what fires when. *)
type t = {
  clock : float array;
      (* Single-cell unboxed store: assigning a mutable float field of a
         mixed record boxes on every event, a float-array store does
         not. *)
  mutable stopped : bool;
  mutable events : int;
  mutable fns : (unit -> unit) array;
  mutable free : int array;
  mutable nfree : int;
  mutable used : int;
  queue : Calendar_queue.t;
}

let nop () = ()

let create ?engine:(_ : engine option) () =
  {
    clock = [| 0.0 |];
    stopped = false;
    events = 0;
    fns = [||];
    free = [||];
    nfree = 0;
    used = 0;
    queue = Calendar_queue.create ();
  }

let[@inline] now t = t.clock.(0)

let clock t = t.clock

let events t = t.events

let[@inline never] schedule_invalid at now =
  invalid_arg
    (if Float.is_nan at then "Sim.schedule: time is NaN"
     else Printf.sprintf "Sim.schedule: time %g is before now (%g)" at now)

(* Every slot is in use: double the table. The free stack can then hold
   every slot, so freeing never needs to grow it. *)
let[@inline never] grow t =
  let cap = max 16 (2 * t.used) in
  let fns = Array.make cap nop in
  Array.blit t.fns 0 fns 0 t.used;
  t.fns <- fns;
  t.free <- Array.make cap 0

let[@inline] take_slot t f =
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.used = Array.length t.fns then grow t;
      let s = t.used in
      t.used <- s + 1;
      s
    end
  in
  t.fns.(slot) <- f;
  slot

let[@inline] schedule t ~at f =
  (* Written so that NaN fails the test too: [at < now] is false for
     NaN, and a NaN event breaks the queue's (time, insertion) order.
     Checked before a slot is taken, so a rejected time changes
     nothing. *)
  if not (at >= t.clock.(0)) then schedule_invalid at t.clock.(0);
  Calendar_queue.add t.queue ~time:at (take_slot t f)

let[@inline] schedule_after t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Sim.schedule_after: delay is NaN"
       else "Sim.schedule_after: negative delay");
  schedule t ~at:(t.clock.(0) +. delay) f

(* Run the closure in [slot], whose event the queue has just removed.
   The slot is cleared and freed before the call: a handler that raises
   leaves the table consistent, and one that schedules may reuse the
   slot at once. *)
let[@inline] fire t slot =
  let f = t.fns.(slot) in
  t.fns.(slot) <- nop;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  t.events <- t.events + 1;
  f ()

(* One scan per event: [take] finds the earliest event, writes its time
   into the clock cell and removes it. *)
let step t =
  if Calendar_queue.is_empty t.queue then false
  else begin
    fire t (Calendar_queue.take t.queue t.clock);
    true
  end

let run t =
  t.stopped <- false;
  let continue = ref true in
  while !continue do
    if t.stopped then continue := false else continue := step t
  done

(* As [run], but each pop is bounded by [horizon]: the queue decides
   with one scan whether its earliest event is due, and a due one is
   popped in the same scan. *)
let run_until t horizon =
  t.stopped <- false;
  let continue = ref true in
  while !continue do
    if t.stopped then continue := false
    else begin
      let slot = Calendar_queue.take_until t.queue t.clock horizon in
      if slot < 0 then continue := false else fire t slot
    end
  done;
  (* Fast-forward to the horizon only when the run actually reached it: a
     [stop] mid-run leaves the clock at the stop point, so the caller can
     resume from where the stopping event fired instead of silently
     losing the rest of the window. *)
  if (not t.stopped) && t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t = Calendar_queue.length t.queue

let stop t = t.stopped <- true

let reset t =
  if pending t > 0 then invalid_arg "Sim.reset: events are pending";
  t.clock.(0) <- 0.0;
  t.events <- 0;
  t.stopped <- false
