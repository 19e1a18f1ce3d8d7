let check_max_packet ~max_packet quanta =
  match max_packet with
  | None -> ()
  | Some m ->
    Array.iter
      (fun q ->
        if q < m then
          invalid_arg
            (Printf.sprintf
               "Srr.create: quantum %d below max packet size %d violates the \
                marker-recovery precondition (Quantum_i >= Max)"
               q m))
      quanta

let create ?max_packet ~quanta () =
  check_max_packet ~max_packet quanta;
  Deficit.create ~cost:Bytes ~overdraw:true ?max_packet ~quanta ()

(* Quanta large enough to overflow this have no physical meaning as byte
   budgets, and [int_of_float] on them is undefined behaviour territory —
   raise with a diagnosis instead of letting garbage through. *)
let max_representable_quantum = float_of_int (1 lsl 50)

let quanta_for_rates ?max_packet ~rates_bps ~quantum_unit () =
  if Array.length rates_bps = 0 then
    invalid_arg "Srr.quanta_for_rates: no channels";
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r <= 0.0 then
        invalid_arg "Srr.quanta_for_rates: rates must be positive and finite")
    rates_bps;
  if quantum_unit <= 0 then
    invalid_arg "Srr.quanta_for_rates: quantum_unit must be positive";
  let slowest = Array.fold_left min rates_bps.(0) rates_bps in
  let quanta =
    (* Rounding the rate ratio can underflow to 0 for extreme skews;
       clamp to the smallest legal quantum. Overflow is an error: past
       [int_of_float]'s domain the "quantum" would be garbage. *)
    Array.map
      (fun r ->
        let q = Float.round (float_of_int quantum_unit *. r /. slowest) in
        if q > max_representable_quantum then
          invalid_arg
            (Printf.sprintf
               "Srr.quanta_for_rates: rate ratio %g cannot be represented as \
                a byte quantum (rate skew too extreme for quantum_unit %d)"
               (r /. slowest) quantum_unit);
        max 1 (int_of_float q))
      rates_bps
  in
  (* A skewed rate vector can round the smallest quantum below
     [max_packet], which would silently violate the Thm 5.1 marker
     precondition (Quantum_i >= Max). Scaling every quantum by a common
     integer factor preserves the bandwidth proportions while restoring
     the precondition — the cost is a proportionally longer round. *)
  match max_packet with
  | Some m ->
    let min_q = Array.fold_left min quanta.(0) quanta in
    if min_q < m then
      let factor = ((m + min_q - 1) / min_q : int) in
      Array.map (fun q -> q * factor) quanta
    else quanta
  | None -> quanta

let for_rates ?max_packet ~rates_bps ~quantum_unit () =
  create ?max_packet
    ~quanta:(quanta_for_rates ?max_packet ~rates_bps ~quantum_unit ())
    ()

let fairness_bound d =
  let quanta = Deficit.quanta d in
  let max_quantum = Array.fold_left max 0 quanta in
  let max_pkt =
    match Deficit.max_packet d with Some m -> m | None -> max_quantum
  in
  max_pkt + (2 * max_quantum)

let strict_drr ~quanta () = Deficit.create ~cost:Bytes ~overdraw:false ~quanta ()
