let default_stripe_scale = 4

(* The SRR rate-proportional quanta, already scaled up to the Thm 5.1
   floor [max_packet], times the burst factor: every quantum stays at or
   above [max_packet]. *)
let for_rates ?max_packet ~seed ~rates_bps ~quantum_unit () =
  let quanta =
    Array.map
      (fun q -> q * default_stripe_scale)
      (Srr.quanta_for_rates ?max_packet ~rates_bps ~quantum_unit ())
  in
  Deficit.create ~cost:Deficit.Bytes ~overdraw:true ?max_packet
    ~order:(Deficit.Permuted seed) ~quanta ()

(* Per-round service is identical to SRR over the same quanta — a round
   visits every channel exactly once whatever order it deals — so the
   Thm 3.2 bound carries over verbatim. *)
let fairness_bound = Srr.fairness_bound
