(* The single-bundle control plane: the health and adapt loops over one
   {!Bundle}'s striper, resequencer and links (PROTOCOL.md §11, §13). Both
   read cumulative link counters as per-window deltas and land every
   quantum change through the paired retune. *)

open Stripe_netsim

type counts = {
  mutable quarantines : int;
  mutable reinstates : int;
  mutable retunes : int;
  mutable deferred : int;
}

type step = { transitions : Health.transition list; retuned : bool }

let retune striper reseq ~quanta =
  let free = not (Resequencer.transition_pending reseq) in
  if free then begin
    Resequencer.retune reseq ~quanta;
    Striper.retune striper ~quanta
  end;
  free

let counted_retune k striper reseq ~quanta =
  let applied = retune striper reseq ~quanta in
  if applied then k.retunes <- k.retunes + 1
  else k.deferred <- k.deferred + 1;
  applied

(* Channel [c]'s growth of [read] since the previous reading. *)
let meter links read =
  let last = Array.make (Array.length links) 0 in
  fun c ->
    let v = read links.(c) in
    let d = v - last.(c) in
    last.(c) <- v;
    d

let quanta_of striper =
  match Scheduler.deficit (Striper.scheduler striper) with
  | Some d -> Deficit.quanta d
  | None -> invalid_arg "Bundle_control: requires a CFQ scheduler"

let health_loop health bundle ~floor =
  let striper = Bundle.striper bundle in
  let reseq = Bundle.resequencer bundle in
  let links = Bundle.links bundle in
  let k = { quarantines = 0; reinstates = 0; retunes = 0; deferred = 0 } in
  let nominal = Array.copy (quanta_of striper) in
  let staged = ref nominal in
  let sent_packets = meter links Link.sent_packets in
  let lost_packets = meter links Link.lost_packets in
  let sent_bytes = meter links Link.sent_bytes in
  let delivered_bytes = meter links Link.delivered_bytes in
  let step ~now =
    for c = 0 to Array.length links - 1 do
      Health.observe_window health ~channel:c ~sent:(sent_packets c)
        ~lost:(lost_packets c) ~sent_bytes:(sent_bytes c)
        ~delivered_bytes:(delivered_bytes c)
    done;
    let transitions = Health.sample health ~now in
    List.iter
      (function
        | Health.To_quarantine { channel; _ } ->
          k.quarantines <- k.quarantines + 1;
          Striper.suspend_channel striper channel
        | Health.To_probation { channel; from_quarantine = true } ->
          k.reinstates <- k.reinstates + 1;
          Striper.resume_channel striper channel
        | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _
          -> ())
      transitions;
    let target = Health.target_quanta health ~nominal ~floor in
    let retuned =
      target <> !staged && counted_retune k striper reseq ~quanta:target
    in
    if retuned then staged := target;
    { transitions; retuned }
  in
  (k, step)

let adapt_loop probe bundle ~band ~max_packet =
  let striper = Bundle.striper bundle in
  let reseq = Bundle.resequencer bundle in
  let links = Bundle.links bundle in
  let k = { quarantines = 0; reinstates = 0; retunes = 0; deferred = 0 } in
  let delivered = meter links Link.delivered_bytes in
  (* A channel back from an outage starts a fresh estimate, not one
     decayed by the zero-rate windows seen while it was down. *)
  Array.iteri
    (fun c link ->
      Link.on_carrier link (fun ~up ->
          if up then begin
            ignore (delivered c);
            Rate_probe.reset_channel probe c
          end))
    links;
  let step ~now =
    Array.iteri
      (fun c _ -> Rate_probe.observe probe ~channel:c ~bytes:(delivered c))
      links;
    Rate_probe.sample probe ~now;
    if Resequencer.transition_pending reseq then begin
      k.deferred <- k.deferred + 1;
      None
    end
    else
      match
        Rate_probe.plan ~max_packet ~band ~rates_bps:(Rate_probe.rates probe)
          ~quanta:(quanta_of striper) ~quantum_unit:max_packet ()
      with
      | Some quanta as plan ->
        ignore (counted_retune k striper reseq ~quanta);
        plan
      | None -> None
  in
  (k, step)
