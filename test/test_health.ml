(* Tests for gray-failure detection (PROTOCOL.md §13): the evidence
   fusion and hysteresis ladder of Stripe_core.Health, quarantine
   backoff and flap bookkeeping, the last-live-channel guard, channel
   lifecycle (hot add/remove/reset), the --health spec grammar, and a
   table of position-annotated parse errors across all four spec
   dialects. Two properties close the file: random evidence streams
   never zero the live membership, and a full gray storm over every
   member of a striped bundle neither deadlocks the reset barrier nor
   stops delivery for good; then one run of the single-bundle health
   loop ([Bundle_control.health_loop]) checks what it applies. *)

open Stripe_netsim
open Stripe_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

(* One fully-bad evidence window: total loss and collapsed goodput. *)
let bad h c = Health.observe h ~channel:c ~sent:100 ~lost:100 ~goodput_ratio:0.0 ()

(* One clean window: everything delivered at nominal goodput. *)
let clean h c =
  Health.observe h ~channel:c ~sent:100 ~lost:0 ~goodput_ratio:1.0 ()

(* ------------------------------------------------------------------ *)
(* Escalation ladder and hysteresis                                    *)
(* ------------------------------------------------------------------ *)

let test_escalation_ladder () =
  (* Defaults: alpha 0.4, escalate 2. A totally bad window scores raw
     1.0, so the EWMA walks 0.40, 0.64, 0.78, ... and each state needs
     two consecutive windows over its enter line: the ladder fires at
     samples 2 (suspect), 4 (probation) and 6 (quarantine). *)
  let h = Health.create ~n:2 () in
  let expected = [| [];
                    [ `S ];
                    [];
                    [ `P ];
                    [];
                    [ `Q ] |] in
  Array.iteri
    (fun i want ->
      bad h 0;
      clean h 1;
      let got =
        List.map
          (function
            | Health.To_suspect { channel } ->
              check_int "suspect channel" 0 channel;
              `S
            | Health.To_probation { channel; from_quarantine } ->
              check_int "probation channel" 0 channel;
              check "escalation, not reinstatement" false from_quarantine;
              `P
            | Health.To_quarantine { channel; backoff } ->
              check_int "quarantine channel" 0 channel;
              Alcotest.(check (float 1e-9)) "first backoff" 0.25 backoff;
              `Q
            | Health.To_healthy _ -> Alcotest.fail "unexpected recovery")
          (Health.sample h ~now:(0.05 *. float_of_int (i + 1)))
      in
      check (Printf.sprintf "transitions at window %d" (i + 1)) true
        (got = want))
    expected;
  check "bad channel quarantined" true (Health.state h 0 = Health.Quarantined);
  check "clean channel untouched" true (Health.state h 1 = Health.Healthy);
  Alcotest.(check (float 1e-9)) "quarantined scale" 0.0 (Health.quantum_scale h 0);
  Alcotest.(check (float 1e-9)) "healthy scale" 1.0 (Health.quantum_scale h 1)

let test_hysteresis_band_resets_streaks () =
  let h = Health.create ~n:1 () in
  bad h 0;
  check "one bad window alone does not escalate" true
    (Health.sample h ~now:0.05 = []);
  (* No evidence: the score decays 0.40 -> 0.24, inside the hysteresis
     band (0.12..0.25), which resets the bad streak. *)
  check "decay window, no transition" true (Health.sample h ~now:0.10 = []);
  bad h 0;
  check "streak restarted: still no escalation" true
    (Health.sample h ~now:0.15 = []);
  bad h 0;
  check "second consecutive bad window escalates" true
    (match Health.sample h ~now:0.20 with
    | [ Health.To_suspect { channel = 0 } ] -> true
    | _ -> false)

let test_recovery_needs_consecutive_clean_windows () =
  let h = Health.create ~n:1 () in
  (* Ladder up to probation. *)
  for i = 1 to 4 do
    bad h 0;
    ignore (Health.sample h ~now:(0.05 *. float_of_int i))
  done;
  check "in probation" true (Health.state h 0 = Health.Probation);
  Alcotest.(check (float 1e-9)) "probation scale" 0.25 (Health.quantum_scale h 0);
  (* Clean windows decay the score below exit (0.12); recovery then
     needs three of them in a row. *)
  let now = ref 0.2 in
  let recovered = ref None in
  while !recovered = None && !now < 3.0 do
    clean h 0;
    now := !now +. 0.05;
    List.iter
      (function
        | Health.To_healthy { channel = 0; from } -> recovered := Some from
        | _ -> Alcotest.fail "unexpected transition during recovery")
      (Health.sample h ~now:!now)
  done;
  check "recovered from probation" true (!recovered = Some Health.Probation);
  Alcotest.(check (float 1e-9)) "full quantum restored" 1.0
    (Health.quantum_scale h 0)

(* Probation scales the nominal quantum, floored at the max packet; a
   quarantined channel keeps its nominal quantum (suspension takes it
   out, not a zero quantum). *)
let test_target_quanta () =
  let h = Health.create ~n:3 () in
  for i = 1 to 6 do
    if i <= 4 then bad h 0;
    bad h 1;
    clean h 2;
    ignore (Health.sample h ~now:(0.05 *. float_of_int i))
  done;
  check "0 in probation" true (Health.state h 0 = Health.Probation);
  check "1 quarantined" true (Health.state h 1 = Health.Quarantined);
  Alcotest.(check (array int)) "floored probation cut" [| 1500; 4000; 4000 |]
    (Health.target_quanta h ~nominal:[| 4000; 4000; 4000 |] ~floor:1500);
  Alcotest.(check (array int)) "scaled probation cut" [| 2000; 8000; 8000 |]
    (Health.target_quanta h ~nominal:[| 8000; 8000; 8000 |] ~floor:1500)

(* ------------------------------------------------------------------ *)
(* Quarantine: timed exit, backoff doubling, flap forgiveness          *)
(* ------------------------------------------------------------------ *)

(* A hair-trigger config so each escalation takes one window. *)
let fast =
  {
    Health.default_config with
    escalate_windows = 1;
    recover_windows = 1;
    base_backoff = 0.25;
    backoff_factor = 2.0;
    max_backoff = 1.0;
  }

(* Walk a healthy channel into quarantine and return the granted
   backoff. With [fast] that is three bad windows. *)
let quarantine_now h c now =
  let granted = ref Float.nan in
  for i = 1 to 3 do
    bad h c;
    List.iter
      (function
        | Health.To_quarantine { backoff; _ } -> granted := backoff
        | _ -> ())
      (Health.sample h ~now:(now +. (0.05 *. float_of_int i)))
  done;
  check "reached quarantine" true (Health.state h c = Health.Quarantined);
  !granted

let test_backoff_doubles_and_caps () =
  let h = Health.create ~config:fast ~n:2 () in
  Alcotest.(check (float 1e-9)) "first backoff" 0.25 (quarantine_now h 0 0.0);
  check_int "one flap" 1 (Health.flaps h 0);
  (* Exit is purely timed: sampling before expiry does nothing, even
     with (stale) evidence accumulated against the channel. *)
  bad h 0;
  check "early sample keeps quarantine" true (Health.sample h ~now:0.2 = []);
  check "reinstated on expiry" true
    (match Health.sample h ~now:0.5 with
    | [ Health.To_probation { channel = 0; from_quarantine = true } ] -> true
    | _ -> false);
  check "probing in probation" true (Health.state h 0 = Health.Probation);
  (* Still bad: the flap doubles the next backoff, and the ceiling
     clamps the schedule at max_backoff. *)
  bad h 0;
  (match Health.sample h ~now:0.55 with
  | [ Health.To_quarantine { channel = 0; backoff } ] ->
    Alcotest.(check (float 1e-9)) "second backoff doubled" 0.5 backoff
  | _ -> Alcotest.fail "expected an immediate re-quarantine");
  check_int "two flaps" 2 (Health.flaps h 0);
  ignore (Health.sample h ~now:1.1);
  bad h 0;
  (match Health.sample h ~now:1.15 with
  | [ Health.To_quarantine { backoff; _ } ] ->
    Alcotest.(check (float 1e-9)) "third backoff" 1.0 backoff
  | _ -> Alcotest.fail "expected a third quarantine");
  ignore (Health.sample h ~now:2.2);
  bad h 0;
  (match Health.sample h ~now:2.25 with
  | [ Health.To_quarantine { backoff; _ } ] ->
    Alcotest.(check (float 1e-9)) "ceiling holds" 1.0 backoff
  | _ -> Alcotest.fail "expected a fourth quarantine")

let test_full_recovery_forgives_flaps () =
  let h = Health.create ~config:fast ~n:2 () in
  ignore (quarantine_now h 0 0.0);
  ignore (Health.sample h ~now:0.5);
  (* Reinstated; now genuinely clean. The reinstated score is pinned at
     the suspect line, so it has to decay below exit before the (single,
     with [fast]) clean window recovers it. *)
  let now = ref 0.5 in
  let healthy = ref false in
  while (not !healthy) && !now < 3.0 do
    clean h 0;
    now := !now +. 0.05;
    List.iter
      (function
        | Health.To_healthy { channel = 0; from = Health.Probation } ->
          healthy := true
        | _ -> Alcotest.fail "unexpected transition")
      (Health.sample h ~now:!now)
  done;
  check "fully recovered" true !healthy;
  check_int "flaps forgiven" 0 (Health.flaps h 0);
  (* The schedule starts over: the next quarantine gets the base
     backoff again, not the doubled one. *)
  Alcotest.(check (float 1e-9)) "backoff schedule reset" 0.25
    (quarantine_now h 0 !now)

let test_quarantine_until () =
  let h = Health.create ~config:fast ~n:2 () in
  check "no expiry while healthy" true (Health.quarantine_until h 0 = None);
  ignore (quarantine_now h 0 0.0);
  (match Health.quarantine_until h 0 with
  | Some t -> Alcotest.(check (float 1e-9)) "expiry = grant time + backoff" 0.4 t
  | None -> Alcotest.fail "expected an expiry time")

(* ------------------------------------------------------------------ *)
(* Last-live-channel guard                                             *)
(* ------------------------------------------------------------------ *)

let test_last_live_guard_defers () =
  let other_live = ref false in
  let h =
    Health.create ~config:fast ~live:(fun c -> c = 0 || !other_live) ~n:2 ()
  in
  (* Channel 1's link is down (live = false): quarantining channel 0
     would zero the membership, so the decision is deferred and the
     channel keeps probing in probation. *)
  for i = 1 to 5 do
    bad h 0;
    List.iter
      (function
        | Health.To_quarantine _ -> Alcotest.fail "guard failed to defer"
        | _ -> ())
      (Health.sample h ~now:(0.05 *. float_of_int i))
  done;
  check "held in probation" true (Health.state h 0 = Health.Probation);
  check "deferrals counted" true (Health.deferred_quarantines h >= 1);
  (* The moment membership allows it, the retried escalation fires. *)
  other_live := true;
  bad h 0;
  check "quarantine lands once another channel is live" true
    (match Health.sample h ~now:1.0 with
    | [ Health.To_quarantine { channel = 0; _ } ] -> true
    | _ -> false)

(* A probe reinstated with a high score is judged on fresh evidence:
   with single-window escalation, one clean window must not re-quarantine
   it, though the smoothed score is still over the line after it. *)
let test_reinstated_probe_survives_clean_window () =
  let other_live = ref false in
  let h =
    Health.create ~config:fast ~live:(fun c -> c = 0 || !other_live) ~n:2 ()
  in
  (* The guard holds channel 0 in probation while its score climbs. *)
  for i = 1 to 6 do
    bad h 0;
    ignore (Health.sample h ~now:(0.05 *. float_of_int i))
  done;
  other_live := true;
  bad h 0;
  ignore (Health.sample h ~now:0.35);
  check "quarantined" true (Health.state h 0 = Health.Quarantined);
  let s = Health.score h 0 in
  check "score high enough that one clean window keeps it over the line"
    true
    ((1.0 -. fast.Health.alpha) *. s >= fast.Health.enter_quarantine);
  ignore (Health.sample h ~now:0.65);
  check "reinstated" true (Health.state h 0 = Health.Probation);
  clean h 0;
  check "no re-quarantine on a clean window" true
    (Health.sample h ~now:0.7 = []);
  check "still probing" true (Health.state h 0 = Health.Probation);
  bad h 0;
  check "a bad window re-quarantines" true
    (match Health.sample h ~now:0.75 with
    | [ Health.To_quarantine { channel = 0; _ } ] -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Channel lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let test_reset_channel () =
  let h = Health.create ~config:fast ~n:2 () in
  bad h 1;
  ignore (Health.sample h ~now:0.05);
  check "ch1 suspect" true (Health.state h 1 = Health.Suspect);
  Health.reset_channel h 1;
  check "reset is a clean sheet" true
    (Health.state h 1 = Health.Healthy
    && Health.score h 1 = 0.0
    && Health.flaps h 1 = 0);
  check "other channel untouched" true (Health.state h 0 = Health.Healthy)

let test_observe_validation () =
  let h = Health.create ~n:1 () in
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Health.observe: negative count") (fun () ->
      Health.observe h ~channel:0 ~lost:(-1) ());
  Alcotest.check_raises "negative goodput rejected"
    (Invalid_argument "Health.observe: goodput_ratio -0.5") (fun () ->
      Health.observe h ~channel:0 ~goodput_ratio:(-0.5) ());
  Alcotest.check_raises "bad channel rejected"
    (Invalid_argument "Health.observe: bad channel 7") (fun () ->
      Health.observe h ~channel:7 ())

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_spec_full () =
  match
    Health.parse_spec
      "every=0.1,alpha=0.5,suspect=0.2,quarantine=0.6,exit=0.1,escalate=3,\
       recover=4,frac=0.3,backoff=1,factor=3,maxbackoff=8"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (cfg, every) ->
    check "every returned separately" true (every = Some 0.1);
    Alcotest.(check (float 1e-9)) "alpha" 0.5 cfg.Health.alpha;
    Alcotest.(check (float 1e-9)) "suspect" 0.2 cfg.Health.enter_suspect;
    Alcotest.(check (float 1e-9)) "quarantine" 0.6 cfg.Health.enter_quarantine;
    Alcotest.(check (float 1e-9)) "exit" 0.1 cfg.Health.exit_healthy;
    check_int "escalate" 3 cfg.Health.escalate_windows;
    check_int "recover" 4 cfg.Health.recover_windows;
    Alcotest.(check (float 1e-9)) "frac" 0.3 cfg.Health.probation_frac;
    Alcotest.(check (float 1e-9)) "backoff" 1.0 cfg.Health.base_backoff;
    Alcotest.(check (float 1e-9)) "factor" 3.0 cfg.Health.backoff_factor;
    Alcotest.(check (float 1e-9)) "maxbackoff" 8.0 cfg.Health.max_backoff

let test_parse_spec_defaults_and_validation () =
  (match Health.parse_spec "every=0.2" with
  | Ok (cfg, Some 0.2) -> check "defaults kept" true (cfg = Health.default_config)
  | Ok _ -> Alcotest.fail "every not returned"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Inconsistent thresholds are rejected by the same config check that
     guards Health.create. *)
  match Health.parse_spec "suspect=0.7,quarantine=0.3" with
  | Ok _ -> Alcotest.fail "accepted suspect > quarantine"
  | Error e ->
    check "config check surfaced" true
      (contains e "enter_suspect <= enter_quarantine")

(* Satellite: every spec dialect annotates its errors with the
   character position of the offending item in the user's own string.
   One table covers all four parsers. *)
let test_spec_errors_carry_positions () =
  let table =
    [
      ( "health",
        (fun s -> Result.map (fun _ -> ()) (Health.parse_spec s)),
        [
          ("alpha=0.5,bogus=1", "at char 10 in health spec");
          ("every=-1", "tick interval must be > 0, got -1 at char 0");
          ("alpha=0.5,frac", "health item \"frac\" lacks a =VALUE at char 10");
        ] );
      ( "fault",
        (fun s -> Result.map (fun _ -> ()) (Fault.parse_spec s)),
        [
          ("0:down@1,frob@2", "at char 9 in fault spec");
          ("0:down@1,up", "lacks an @TIME at char 9");
        ] );
      ( "impair",
        (fun s -> Result.map (fun _ -> ()) (Impair.parse_spec s)),
        [
          ("1:dup=0.5,frob=1", "at char 10 in impair spec");
          ("1:dup=0.5,corrupt=2", "probability 2 not in [0,1] at char 10");
        ] );
      ( "chaos",
        (fun s -> Result.map (fun _ -> ()) (Chaos.parse_spec s)),
        [
          ("storm=0+1/0.5@1,crash=up/0/0.2@2", "at char 16 in chaos spec");
          ("violate=0@1,storm=/0.5@2", "bad storm channel \"\" (want an integer) at char 12");
        ] );
    ]
  in
  List.iter
    (fun (kind, parse, cases) ->
      List.iter
        (fun (spec, want) ->
          match parse spec with
          | Ok () -> Alcotest.failf "%s parser accepted %S" kind spec
          | Error e ->
            check
              (Printf.sprintf "%s error for %S has its position" kind spec)
              true
              (contains e want && contains e spec))
        cases)
    table

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random interleavings of evidence windows with channel resets:
   sampling never raises, scores stay in [0,1], quantum scales match
   states, and with every link vouched live the guard keeps at least one
   channel unquarantined — whatever the evidence says. *)
let prop_guard_never_zeroes_membership =
  QCheck.Test.make ~name:"health: guard keeps one live channel" ~count:100
    QCheck.(
      pair (Arb.int_range 1 5) (list_of_size Gen.(int_range 1 60) (int_range 0 999)))
    (fun (n0, stream) ->
      let h = Health.create ~config:fast ~n:n0 () in
      let now = ref 0.0 in
      List.iter
        (fun tok ->
          let c = tok mod n0 in
          (* Weighted ops: mostly evidence windows, sprinkled with
             resets. *)
          (match tok mod 8 with
          | 0 | 1 | 2 | 3 -> bad h c
          | 4 | 5 | 6 -> clean h c
          | _ -> Health.reset_channel h c);
          now := !now +. 0.05;
          ignore (Health.sample h ~now:!now);
          let n = Health.n_channels h in
          let unquarantined = ref 0 in
          for i = 0 to n - 1 do
            let s = Health.score h i in
            if not (s >= 0.0 && s <= 1.0) then
              QCheck.Test.fail_reportf "score %g out of range" s;
            let scale = Health.quantum_scale h i in
            (match Health.state h i with
            | Health.Quarantined ->
              if scale <> 0.0 then QCheck.Test.fail_report "quarantined scale"
            | Health.Probation ->
              if scale <> fast.Health.probation_frac then
                QCheck.Test.fail_report "probation scale"
            | Health.Healthy | Health.Suspect ->
              if scale <> 1.0 then QCheck.Test.fail_report "healthy scale");
            if Health.state h i <> Health.Quarantined then incr unquarantined
          done;
          if !unquarantined = 0 then
            QCheck.Test.fail_report "guard let the membership hit zero")
        stream;
      true)

(* Gray storm over the whole bundle: every channel of a 3-member SRR
   stripe turns ~45%-lossy at once while a health tick drives
   suspend/resume and probation retunes against the striper and
   resequencer. The guard must keep a member striping, the reset
   barrier must not deadlock, and once the storm clears delivery must
   resume and the engine must walk everyone back to full quantum. *)
let prop_full_gray_storm_recovers =
  QCheck.Test.make ~name:"health: full-bundle gray storm recovers" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let n = 3 in
      let sim = Sim.create () in
      let master = Rng.create (7001 + seed) in
      let nominal = Array.make n 4000 in
      let engine = Srr.create ~max_packet:1000 ~quanta:nominal () in
      let delivered = ref 0 in
      let delivered_late = ref 0 in
      let b =
        Bundle.create sim
          ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
          ~channels:(Array.make n (10e6, 0.002))
          ~wire:Plain ~receiver:Logical
          ~marker:(Marker.make ~every_rounds:4 ())
          ~rng:master
          ~watchdog:{ Resequencer.intervals = 3; fallback = 0.01 }
          ~deliver:(fun _ ->
            incr delivered;
            if Sim.now sim > 2.5 then incr delivered_late)
          ()
      in
      let links = Bundle.links b in
      let gray () =
        Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
          ~loss_bad:0.9
      in
      Sim.schedule sim ~at:0.5 (fun () ->
          Array.iter (fun l -> Link.set_loss l (gray ())) links);
      Sim.schedule sim ~at:2.0 (fun () ->
          Array.iter (fun l -> Link.set_loss l (Loss.none ())) links);
      let h =
        Health.create ~config:fast
          ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
          ~n ()
      in
      let _, step = Bundle_control.health_loop h b ~floor:1000 in
      let rec tick () =
        ignore (step ~now:(Sim.now sim));
        let live = ref 0 in
        for c = 0 to n - 1 do
          if Health.state h c <> Health.Quarantined then incr live
        done;
        if !live = 0 then QCheck.Test.fail_report "no live member mid-storm";
        if Sim.now sim < 3.9 then Sim.schedule_after sim ~delay:0.05 tick
      in
      Sim.schedule sim ~at:0.05 tick;
      ignore (Bundle.pace b ~every:0.0008 ~until:3.5 (fun () -> 800));
      Sim.run sim;
      if !delivered_late = 0 then
        QCheck.Test.fail_report "delivery never resumed after the storm";
      (* The engine walked the survivors home: nobody is still
         quarantined two seconds after the storm cleared. *)
      for c = 0 to n - 1 do
        if Health.state h c = Health.Quarantined then
          QCheck.Test.fail_reportf "channel %d still quarantined at the end" c
      done;
      true)

(* The single-bundle health loop over a 2 x 10 Mbps stripe whose
   channel 1 loses everything from 0.2 s to 1.2 s: the loop's counters
   agree with the transitions and retune flags it returned, a
   quarantine suspends the channel in the striper, and the channel is
   back at full quantum once the loss has cleared. *)
let test_health_loop_applies_decisions () =
  let n = 2 in
  let sim = Sim.create () in
  let master = Rng.create 5 in
  let engine = Srr.create ~max_packet:1000 ~quanta:[| 4000; 4000 |] () in
  let b =
    Bundle.create sim
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~channels:(Array.make n (10e6, 0.002))
      ~wire:Plain ~receiver:Logical
      ~marker:(Marker.make ~every_rounds:4 ())
      ~rng:master ~deliver:ignore ()
  in
  let links = Bundle.links b and striper = Bundle.striper b in
  Sim.schedule sim ~at:0.2 (fun () ->
      Link.set_loss links.(1) (Loss.bernoulli ~p:1.0));
  Sim.schedule sim ~at:1.2 (fun () -> Link.set_loss links.(1) (Loss.none ()));
  let h =
    Health.create
      ~live:(fun c -> Link.is_up links.(c))
      ~n ()
  in
  let counts, step =
    Bundle_control.health_loop h b ~floor:1000
  in
  let quarantines = ref 0 and reinstates = ref 0 and retuned = ref 0 in
  let suspended_at_quarantine = ref true in
  let rec tick () =
    let step = step ~now:(Sim.now sim) in
    if step.retuned then incr retuned;
    List.iter
      (function
        | Health.To_quarantine { channel; _ } ->
          incr quarantines;
          if not (Striper.suspended_channel striper channel) then
            suspended_at_quarantine := false
        | Health.To_probation { from_quarantine = true; _ } -> incr reinstates
        | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _
          -> ())
      step.transitions;
    if Sim.now sim < 3.0 then Sim.schedule_after sim ~delay:0.05 tick
  in
  Sim.schedule sim ~at:0.05 tick;
  ignore (Bundle.pace b ~every:0.001 ~until:3.0 (fun () -> 800));
  Sim.run sim;
  check "quarantined at least once" true (!quarantines > 0);
  check "quarantine suspends the channel" true !suspended_at_quarantine;
  check_int "quarantines counted" !quarantines counts.quarantines;
  check_int "reinstates counted" !reinstates counts.reinstates;
  check "probation retuned" true (!retuned > 0);
  check_int "retunes counted" !retuned counts.retunes;
  check "recovered" true (Health.state h 1 = Health.Healthy);
  check "resumed" false (Striper.suspended_channel striper 1);
  check "full quantum again" true
    (Resequencer.has_quanta (Bundle.resequencer b) [| 4000; 4000 |])

(* External input raises nothing: any string, and any small edit of a
   valid spec, parses to [Ok] or [Error]. *)
let prop_parse_spec_total =
  Spec_fuzz.total ~name:"health: parse_spec never raises"
    ~valid:
      "every=0.05,alpha=0.3,suspect=0.2,quarantine=0.5,exit=0.1,escalate=2,\
       recover=3,frac=0.5,backoff=0.2,factor=2,maxbackoff=5"
    (fun s -> ignore (Health.parse_spec s))

let suites =
  [
    ( "health",
      [
        Alcotest.test_case "escalation ladder" `Quick test_escalation_ladder;
        Alcotest.test_case "hysteresis band resets streaks" `Quick
          test_hysteresis_band_resets_streaks;
        Alcotest.test_case "recovery needs consecutive clean windows" `Quick
          test_recovery_needs_consecutive_clean_windows;
        Alcotest.test_case "backoff doubles and caps" `Quick
          test_backoff_doubles_and_caps;
        Alcotest.test_case "full recovery forgives flaps" `Quick
          test_full_recovery_forgives_flaps;
        Alcotest.test_case "target quanta" `Quick test_target_quanta;
        Alcotest.test_case "quarantine_until" `Quick test_quarantine_until;
        Alcotest.test_case "last-live guard defers" `Quick
          test_last_live_guard_defers;
        Alcotest.test_case "reinstated probe, clean window" `Quick
          test_reinstated_probe_survives_clean_window;
        Alcotest.test_case "reset channel" `Quick test_reset_channel;
        Alcotest.test_case "observe validation" `Quick test_observe_validation;
        Alcotest.test_case "parse full spec" `Quick test_parse_spec_full;
        Alcotest.test_case "parse defaults and validation" `Quick
          test_parse_spec_defaults_and_validation;
        Alcotest.test_case "spec errors carry positions" `Quick
          test_spec_errors_carry_positions;
        Alcotest.test_case "health loop applies decisions" `Quick
          test_health_loop_applies_decisions;
        QCheck_alcotest.to_alcotest prop_guard_never_zeroes_membership;
        QCheck_alcotest.to_alcotest prop_full_gray_storm_recovers;
        QCheck_alcotest.to_alcotest prop_parse_spec_total;
      ] );
  ]
