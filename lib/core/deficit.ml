type cost =
  | Bytes
  | Packets

type order =
  | Fixed
  | Permuted of int

type stamp = { round : int; dc : int }

type event =
  | Begin_visit of { channel : int; round : int; dc : int }
  | Consume of { channel : int; round : int; dc_before : int; dc_after : int }
  | End_visit of { channel : int; round : int; dc : int }
  | New_round of { round : int }
  | Retune of { round : int; old_quanta : int array; new_quanta : int array }

(* The width [n] is fixed at creation; [dcs], [susp] and [perm] are
   refilled in place and never reallocated. [n_susp] counts the [true]
   entries of [susp], kept by every write to it, so that [select] asks
   "is any channel live?" in O(1) on each step of its walk. [quanta] is
   swapped whole by a retune, so components holding the engine see it
   without re-wiring. [pending] stages a retune until the next round
   boundary.

   [ptr] is a POSITION in the round's visit order, not a channel id;
   [perm.(ptr)] is the channel under the pointer. Under [Fixed] order
   [perm] is the identity, so position and channel coincide — the
   classic round robin. Under [Permuted seed] each round's visit order
   is a fresh pseudo-random permutation derived purely from
   (seed, round, n), which is what makes the scheme causal: a receiver
   cloning the engine deals the identical order with no shared RNG
   state (Sprinklers-style randomized striping, PROTOCOL.md §14). *)
type t = {
  mutable quanta : int array;
  cost_mode : cost;
  overdraw : bool;
  max_pkt : int option;
  visit_order : order;
  n : int;
  dcs : int array;
  susp : bool array;
  mutable n_susp : int;
  mutable pending : int array option;
  perm : int array;
  mutable ptr : int;
  mutable g : int;
  mutable serving : bool;
  mutable hook : (event -> unit) option;
}

(* SplitMix64 finalizer: the avalanche that turns (seed, round) into an
   independent shuffle stream per round. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

(* Deal the visit order for the current round. A pure function of
   (seed, round, width): [reinit] and [set_round] land on exactly the
   permutation a fresh engine at that round would use, and the
   receiver's replay engine needs no RNG state beyond the seed. Fixed
   order keeps the identity it was created with. *)
let refresh_perm t =
  match t.visit_order with
  | Fixed -> ()
  | Permuted seed ->
    for i = 0 to t.n - 1 do t.perm.(i) <- i done;
    let state =
      ref (mix64 (Int64.add (Int64.mul (Int64.of_int seed) golden)
                    (Int64.of_int t.g)))
    in
    for i = t.n - 1 downto 1 do
      state := mix64 (Int64.add !state golden);
      (* Top 31 bits: always a non-negative OCaml int (Int64.to_int
         truncates to 63 bits, so masking with Int64.max_int can still
         come out negative). *)
      let j = Int64.to_int (Int64.shift_right_logical !state 33) mod (i + 1) in
      let tmp = t.perm.(i) in
      t.perm.(i) <- t.perm.(j);
      t.perm.(j) <- tmp
    done

(* Channel under the pointer. *)
let chan t = t.perm.(t.ptr)

(* Position of channel [c] in the current round's visit order. Linear,
   but [n] is small; a top-level recursion, because a local one would
   allocate its closure on every marker stamp. *)
let rec pos_from perm c i = if perm.(i) = c then i else pos_from perm c (i + 1)

let pos_of t c = pos_from t.perm c 0

let create ?(cost = Bytes) ?(overdraw = true) ?max_packet ?(order = Fixed)
    ~quanta () =
  let n = Array.length quanta in
  if n = 0 then invalid_arg "Deficit.create: no channels";
  Array.iter
    (fun q -> if q <= 0 then invalid_arg "Deficit.create: quantum must be positive")
    quanta;
  (match max_packet with
  | Some m when m <= 0 ->
    invalid_arg "Deficit.create: max_packet must be positive"
  | Some _ | None -> ());
  let t =
    {
      quanta = Array.copy quanta;
      cost_mode = cost;
      overdraw;
      max_pkt = max_packet;
      visit_order = order;
      n;
      dcs = Array.make n 0;
      susp = Array.make n false;
      n_susp = 0;
      pending = None;
      perm = Array.init n (fun i -> i);
      ptr = 0;
      g = 0;
      serving = false;
      hook = None;
    }
  in
  refresh_perm t;
  t

let clone_initial t =
  create ~cost:t.cost_mode ~overdraw:t.overdraw ?max_packet:t.max_pkt
    ~order:t.visit_order ~quanta:t.quanta ()

(* Call sites guard on [t.hook] before building the event: constructing
   the record argument allocates even when nobody is listening, and
   select/consume sit on the per-packet path. *)
let emit t ev = match t.hook with None -> () | Some f -> f ev

(* A [for] loop, not [Array.iter]: the checking closure would capture
   [who] and [max_pkt] and be allocated on every [reconfigure], which the
   bundle pool runs once per release. *)
let validate_quanta ~who ~max_pkt quanta =
  for i = 0 to Array.length quanta - 1 do
    let q = quanta.(i) in
    if q <= 0 then invalid_arg (who ^ ": quantum must be positive");
    match max_pkt with
    | Some m when q < m ->
      invalid_arg
        (Printf.sprintf
           "%s: quantum %d below max packet size %d violates the \
            marker-recovery precondition (Quantum_i >= Max)"
           who q m)
    | _ -> ()
  done

(* Swap the quantum vector in place. Only called at a round boundary
   (pointer at 0, no visit in progress) or from [reinit], where every DC
   is zero. At a boundary each DC is pure carried surplus/deficit
   (|DC| < old quantum under overdraw), so it is rescaled proportionally:
   the penalty a channel owes keeps the same fraction of its per-round
   grant, which is what preserves the Thm 3.2 fairness bound
   [Max + 2*Quantum] across the transition. *)
let apply_retune t q =
  let old = t.quanta in
  for c = 0 to t.n - 1 do
    if t.dcs.(c) <> 0 then t.dcs.(c) <- t.dcs.(c) * q.(c) / old.(c)
  done;
  t.quanta <- Array.copy q;
  if t.hook <> None then
    emit t (Retune { round = t.g; old_quanta = old; new_quanta = Array.copy q })

(* Suspension is operational state (the channel is down), not protocol
   state: a reset barrier rebuilds rounds and DCs but does not revive a
   dead channel, so [reinit] leaves the flags alone. [clone_initial] does
   not copy them either — a receiver simulating the sender starts from
   the algorithmic initial state. A staged retune is adopted here: the
   reset barrier is a round boundary by construction (round 0, zero DCs),
   so a retune that rides a reset takes effect for the new epoch. *)
let reinit t =
  Array.fill t.dcs 0 t.n 0;
  t.ptr <- 0;
  t.g <- 0;
  t.serving <- false;
  refresh_perm t;
  match t.pending with
  | None -> ()
  | Some q ->
    t.pending <- None;
    apply_retune t q

let n_channels t = t.n
let quanta t = Array.copy t.quanta

let has_quanta t (q : int array) =
  let same = ref (Array.length q = Array.length t.quanta) in
  for c = 0 to Array.length q - 1 do
    if !same && t.quanta.(c) <> q.(c) then same := false
  done;
  !same

let max_packet t = t.max_pkt
let round t = t.g
let current t = chan t
let in_service t = t.serving
let order t = t.visit_order
let dc t c = t.dcs.(c)
let set_dc t c v = t.dcs.(c) <- v

let set_round t g =
  t.g <- g;
  refresh_perm t

let set_hook t hook = t.hook <- hook
let cost_of t size = match t.cost_mode with Bytes -> size | Packets -> 1

let begin_visit t =
  if not t.serving then begin
    let c = chan t in
    t.dcs.(c) <- t.dcs.(c) + t.quanta.(c);
    t.serving <- true;
    if t.hook <> None then
      emit t (Begin_visit { channel = c; round = t.g; dc = t.dcs.(c) })
  end

let advance t =
  if t.hook <> None then begin
    let c = chan t in
    emit t (End_visit { channel = c; round = t.g; dc = t.dcs.(c) })
  end;
  t.serving <- false;
  t.ptr <- t.ptr + 1;
  if t.ptr = t.n then begin
    t.ptr <- 0;
    t.g <- t.g + 1;
    (* Deal the new round's visit order before anyone reads [chan]. *)
    (match t.visit_order with Fixed -> () | Permuted _ -> refresh_perm t);
    if t.hook <> None then emit t (New_round { round = t.g });
    match t.pending with
    | None -> ()
    | Some q ->
      (* The pointer wrap is the round boundary a staged retune waits
         for: every channel has finished its visit for round [g - 1]. *)
      t.pending <- None;
      apply_retune t q
  end

let suspended t c =
  if c < 0 || c >= t.n then invalid_arg "Deficit.suspended: bad channel";
  t.susp.(c)

let n_active t = t.n - t.n_susp
let any_active t = t.n_susp < t.n

let suspend t c =
  if c < 0 || c >= t.n then invalid_arg "Deficit.suspend: bad channel";
  if not t.susp.(c) then begin
    t.susp.(c) <- true;
    t.n_susp <- t.n_susp + 1;
    (* If the pointer is parked on the channel being suspended, move it
       on so the next selection never serves a suspended channel. *)
    if chan t = c && any_active t then advance t
  end

let resume t c =
  if c < 0 || c >= t.n then invalid_arg "Deficit.resume: bad channel";
  if t.susp.(c) then begin
    t.susp.(c) <- false;
    t.n_susp <- t.n_susp - 1;
    (* The frozen DC predates the suspension: replaying it would over- or
       under-serve the channel by up to a quantum relative to the Thm 3.2
       bound, against channels that kept accumulating service while it
       was out. A resumed channel re-enters with a clean slate. *)
    t.dcs.(c) <- 0
  end

let at_round_boundary t = t.ptr = 0 && not t.serving

let retune t ~quanta =
  if Array.length quanta <> t.n then
    invalid_arg "Deficit.retune: quanta length must match n_channels";
  validate_quanta ~who:"Deficit.retune" ~max_pkt:t.max_pkt quanta;
  if at_round_boundary t then apply_retune t quanta
  else t.pending <- Some (Array.copy quanta)

let pending_retune t = Option.map Array.copy t.pending

(* Refill the arrays in place: this is the bundle-pool recycle path,
   where thousands of short-lived bundles re-arm engines on churn and
   reallocating per recycle would dominate the teardown cost. *)
let reconfigure t ~quanta =
  if Array.length quanta <> t.n then
    invalid_arg
      (Printf.sprintf "Deficit.reconfigure: %d quanta for a %d-channel engine"
         (Array.length quanta) t.n);
  validate_quanta ~who:"Deficit.reconfigure" ~max_pkt:t.max_pkt quanta;
  t.pending <- None;
  Array.blit quanta 0 t.quanta 0 t.n;
  Array.fill t.dcs 0 t.n 0;
  Array.fill t.susp 0 t.n false;
  t.n_susp <- 0;
  t.ptr <- 0;
  t.g <- 0;
  t.serving <- false;
  refresh_perm t

let restart t = reconfigure t ~quanta:t.quanta

let rec select t =
  if not t.overdraw then
    invalid_arg "Deficit.select: non-overdraw engine needs select_for";
  if not (any_active t) then
    invalid_arg "Deficit.select: all channels suspended";
  let c = chan t in
  if t.susp.(c) then begin
    (* Suspended channels are passed over without receiving a quantum:
       their DC freezes until a reset barrier rebuilds the state. *)
    advance t;
    select t
  end
  else begin
    begin_visit t;
    if t.dcs.(c) > 0 then c
    else begin
      advance t;
      select t
    end
  end

let rec select_for t ~size =
  if t.overdraw then select t
  else begin
    if not (any_active t) then
      invalid_arg "Deficit.select_for: all channels suspended";
    let c = chan t in
    if t.susp.(c) then begin
      advance t;
      select_for t ~size
    end
    else begin
      begin_visit t;
      if t.dcs.(c) >= cost_of t size then c
      else begin
        advance t;
        select_for t ~size
      end
    end
  end

let consume t ~size =
  if not t.serving then
    invalid_arg "Deficit.consume: no visit in progress (call select first)";
  let c = chan t in
  let before = t.dcs.(c) in
  let after = before - cost_of t size in
  t.dcs.(c) <- after;
  if t.hook <> None then
    emit t
      (Consume { channel = c; round = t.g; dc_before = before; dc_after = after });
  if after <= 0 then advance t

(* The implicit number of channel [c]'s next packet. A channel whose
   visit is under way stamps its current DC; any other is next visited
   in [first_round], then skipped while its DC recovers — mirroring
   [select]'s skipping of deeply negative channels. The comparison is in
   visit-order positions, so it holds under a permuted order too; later
   rounds visit every channel exactly once whatever their permutation,
   so only this round's order matters. *)
let[@inline] stamps_current t c = t.serving && c = chan t && t.dcs.(c) > 0

let first_round t c =
  let pos = pos_of t c in
  if pos > t.ptr then t.g
  else if pos = t.ptr && not t.serving then t.g
  else t.g + 1

(* Rounds skipped after [first_round]: the least [k] with
   [dc + (k + 1) * q > 0]. *)
let rec skipped_rounds dc q k =
  let dc = dc + q in
  if dc > 0 then k else skipped_rounds dc q (k + 1)

let check_stamp_channel t c =
  if c < 0 || c >= t.n then invalid_arg "Deficit.next_stamp: bad channel"

(* The two fields of [next_stamp] as plain ints, so that marker emission
   allocates only the marker. *)
let next_stamp_round t c =
  check_stamp_channel t c;
  if stamps_current t c then t.g
  else first_round t c + skipped_rounds t.dcs.(c) t.quanta.(c) 0

let next_stamp_dc t c =
  check_stamp_channel t c;
  if stamps_current t c then t.dcs.(c)
  else
    let q = t.quanta.(c) in
    t.dcs.(c) + ((skipped_rounds t.dcs.(c) q 0 + 1) * q)

let next_stamp t c =
  { round = next_stamp_round t c; dc = next_stamp_dc t c }

let pp_state fmt t =
  Format.fprintf fmt "ptr=%d ch=%d round=%d serving=%b dcs=[%s]" t.ptr (chan t)
    t.g t.serving
    (String.concat "; " (Array.to_list (Array.map string_of_int t.dcs)))
