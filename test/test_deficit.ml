(* Tests for the deficit-counter engine, including the paper's Figure 5/6
   worked example as a golden trace of DC values. *)

open Stripe_core

let stamp = Alcotest.testable (fun fmt (s : Deficit.stamp) ->
    Format.fprintf fmt "(R=%d,DC=%d)" s.round s.dc)
    (fun a b -> a = b)

(* The paper's example: two channels, quantum 500 each; input packets
   a(550) d(200) e(400) b(150) c(300) f(400) with the SRR assignment
   a->ch0, d,e->ch1, b,c->ch0, f->ch1 (Figure 6). *)
let paper_sizes = [ 550; 200; 400; 150; 300; 400 ]
let paper_channels = [ 0; 1; 1; 0; 0; 1 ]

let test_figure6_assignment () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  let assignment =
    List.map
      (fun size ->
        let c = Deficit.select d in
        Deficit.consume d ~size;
        c)
      paper_sizes
  in
  Alcotest.(check (list int)) "Figure 6 channel assignment" paper_channels
    assignment

let test_figure5_dc_trace () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  let events = ref [] in
  Deficit.set_hook d (Some (fun e -> events := e :: !events));
  List.iter
    (fun size ->
      ignore (Deficit.select d);
      Deficit.consume d ~size)
    paper_sizes;
  let dc_trace =
    List.rev !events
    |> List.filter_map (function
         | Deficit.Consume { channel; dc_after; _ } -> Some (channel, dc_after)
         | Deficit.Begin_visit _ | Deficit.End_visit _ | Deficit.New_round _
         | Deficit.Retune _ ->
           None)
  in
  (* Figure 5's DC narration: ch1 500-550=-50; ch2 500-200=300, 300-400=-100;
     round 2: ch1 450-150=300, 300-300=0; ch2 400-400=0. *)
  Alcotest.(check (list (pair int int))) "Figure 5 DC values after each send"
    [ (0, -50); (1, 300); (1, -100); (0, 300); (0, 0); (1, 0) ]
    dc_trace

let test_figure5_round_structure () =
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  List.iter
    (fun size ->
      ignore (Deficit.select d);
      Deficit.consume d ~size)
    paper_sizes;
  (* After f the second round completes: both visits ended with DC = 0. *)
  Alcotest.(check int) "two rounds completed" 2 (Deficit.round d);
  Alcotest.(check int) "ch0 DC carried" 0 (Deficit.dc d 0);
  Alcotest.(check int) "ch1 DC carried" 0 (Deficit.dc d 1)

let test_overdraw_penalty () =
  (* A channel that overdraws by x starts its next visit with quantum - x:
     the paper's "penalized by this amount in the next round". *)
  let d = Srr.create ~quanta:[| 500; 500 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:900;
  (* ch0 overdrew to -400. *)
  Alcotest.(check int) "overdraw recorded" (-400) (Deficit.dc d 0);
  ignore (Deficit.select d);
  Deficit.consume d ~size:500;
  (* ch1's visit ends exactly at zero; next visit of ch0 gets
     500 - 400 = 100. *)
  ignore (Deficit.select d);
  Alcotest.(check int) "pointer back at ch0" 0 (Deficit.current d);
  Alcotest.(check int) "penalized quantum" 100 (Deficit.dc d 0)

let test_deep_overdraw_skips_rounds () =
  (* DC so negative that one quantum does not recover: the channel is
     passed over for entire rounds until it is positive again. *)
  let d = Deficit.create ~quanta:[| 100; 100 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:350;
  (* ch0 at -250; needs 3 quanta to reach +50. *)
  ignore (Deficit.select d);
  Deficit.consume d ~size:100;
  (* round 1 begins; ch0: -250+100 = -150 -> skipped; ch1 serves. *)
  Alcotest.(check int) "ch1 selected while ch0 recovers" 1 (Deficit.select d);
  Deficit.consume d ~size:100;
  Alcotest.(check int) "ch1 again in round 2" 1 (Deficit.select d);
  Deficit.consume d ~size:100;
  Alcotest.(check int) "ch0 back in round 3" 0 (Deficit.select d);
  Alcotest.(check int) "ch0 recovered DC" 50 (Deficit.dc d 0)

let test_packets_mode_rr () =
  let d = Rr.create ~n:3 () in
  let picks =
    List.init 7 (fun _ ->
        let c = Deficit.select d in
        Deficit.consume d ~size:9999;
        c)
  in
  Alcotest.(check (list int)) "RR cycles regardless of size"
    [ 0; 1; 2; 0; 1; 2; 0 ] picks;
  Alcotest.(check int) "rounds counted" 2 (Deficit.round d)

let test_packets_mode_grr () =
  let d = Grr.create ~ratios:[| 2; 1 |] () in
  let picks =
    List.init 6 (fun _ ->
        let c = Deficit.select d in
        Deficit.consume d ~size:1;
        c)
  in
  Alcotest.(check (list int)) "GRR 2:1 pattern" [ 0; 0; 1; 0; 0; 1 ] picks

let test_grr_for_rates () =
  let d = Grr.for_rates ~rates_bps:[| 10e6; 20.4e6; 5e6 |] () in
  Alcotest.(check (list int)) "closest integer ratios" [ 2; 4; 1 ]
    (Array.to_list (Deficit.quanta d))

let test_next_stamp_initial () =
  let d = Srr.create ~quanta:[| 500; 400 |] () in
  Alcotest.check stamp "ch0 first packet" { Deficit.round = 0; dc = 500 }
    (Deficit.next_stamp d 0);
  Alcotest.check stamp "ch1 first packet" { Deficit.round = 0; dc = 400 }
    (Deficit.next_stamp d 1)

let test_next_stamp_mid_visit () =
  let d = Srr.create ~quanta:[| 500; 400 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:200;
  (* ch0 serving, DC 300: next packet on ch0 is (0, 300); ch1 still ahead
     this round at (0, 400). *)
  Alcotest.check stamp "current channel mid-visit" { Deficit.round = 0; dc = 300 }
    (Deficit.next_stamp d 0);
  Alcotest.check stamp "later channel same round" { Deficit.round = 0; dc = 400 }
    (Deficit.next_stamp d 1)

let test_next_stamp_after_visit () =
  let d = Srr.create ~quanta:[| 500; 400 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:550;
  (* ch0 done (DC -50): its next packet comes in round 1 with 450. *)
  Alcotest.check stamp "served channel next round" { Deficit.round = 1; dc = 450 }
    (Deficit.next_stamp d 0)

let test_next_stamp_deep_negative () =
  let d = Deficit.create ~quanta:[| 100; 100 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:350;
  (* ch0 at -250: visits at rounds 1 (-150), 2 (-50) are skipped; round 3
     serves with +50. *)
  Alcotest.check stamp "stamp skips recovery rounds" { Deficit.round = 3; dc = 50 }
    (Deficit.next_stamp d 0)

let test_stamp_matches_actual_send () =
  (* The stamp predicted for a channel must equal the (round, dc) actually
     observed when the next packet goes to that channel. *)
  let rng = Stripe_netsim.Rng.create 77 in
  let d = Srr.create ~quanta:[| 600; 600; 600 |] () in
  let ok = ref true in
  let predictions = Array.make 3 None in
  for _ = 1 to 500 do
    (* Predict for every channel, then dispatch one packet. *)
    for c = 0 to 2 do
      if predictions.(c) = None then
        predictions.(c) <- Some (Deficit.next_stamp d c)
    done;
    let c = Deficit.select d in
    let actual = { Deficit.round = Deficit.round d; dc = Deficit.dc d c } in
    (match predictions.(c) with
    | Some p when p <> actual -> ok := false
    | Some _ -> ()
    | None -> ());
    predictions.(c) <- None;
    Deficit.consume d ~size:(100 + Stripe_netsim.Rng.int rng 500)
  done;
  Alcotest.(check bool) "next_stamp always matches the realized send" true !ok

let test_strict_drr_select_for () =
  let d = Srr.strict_drr ~quanta:[| 500; 500 |] () in
  (* 600-byte packet cannot be covered by one quantum: both channels are
     passed over in round 0 and DC accumulates. *)
  let c = Deficit.select_for d ~size:600 in
  Alcotest.(check int) "first channel with 2 quanta" 0 c;
  Alcotest.(check int) "accumulated DC" 1000 (Deficit.dc d 0);
  Deficit.consume d ~size:600;
  Alcotest.(check int) "DC after strict send" 400 (Deficit.dc d 0)

let test_strict_drr_never_negative () =
  let rng = Stripe_netsim.Rng.create 5 in
  let d = Srr.strict_drr ~quanta:[| 500; 700 |] () in
  let ok = ref true in
  for _ = 1 to 1000 do
    let size = 50 + Stripe_netsim.Rng.int rng 450 in
    let c = Deficit.select_for d ~size in
    Deficit.consume d ~size;
    if Deficit.dc d c < 0 then ok := false
  done;
  Alcotest.(check bool) "strict DRR never overdraws" true !ok

let test_select_requires_overdraw () =
  let d = Srr.strict_drr ~quanta:[| 500 |] () in
  Alcotest.check_raises "select on strict engine raises"
    (Invalid_argument "Deficit.select: non-overdraw engine needs select_for")
    (fun () -> ignore (Deficit.select d))

let test_clone_initial () =
  let d = Srr.create ~quanta:[| 500; 300 |] () in
  ignore (Deficit.select d);
  Deficit.consume d ~size:400;
  let fresh = Deficit.clone_initial d in
  Alcotest.(check int) "clone at round 0" 0 (Deficit.round fresh);
  Alcotest.(check int) "clone DC zero" 0 (Deficit.dc fresh 0);
  Alcotest.(check (list int)) "clone keeps quanta" [ 500; 300 ]
    (Array.to_list (Deficit.quanta fresh))

let test_create_validation () =
  Alcotest.check_raises "empty quanta"
    (Invalid_argument "Deficit.create: no channels") (fun () ->
      ignore (Deficit.create ~quanta:[||] ()));
  Alcotest.check_raises "zero quantum"
    (Invalid_argument "Deficit.create: quantum must be positive") (fun () ->
      ignore (Deficit.create ~quanta:[| 100; 0 |] ()))

let test_srr_max_packet_check () =
  Alcotest.check_raises "quantum below max packet rejected"
    (Invalid_argument
       "Srr.create: quantum 400 below max packet size 1500 violates the \
        marker-recovery precondition (Quantum_i >= Max)") (fun () ->
      ignore (Srr.create ~max_packet:1500 ~quanta:[| 1500; 400 |] ()))

let test_srr_for_rates () =
  let d = Srr.for_rates ~rates_bps:[| 10e6; 25e6 |] ~quantum_unit:1500 () in
  Alcotest.(check (list int)) "quanta proportional to rates" [ 1500; 3750 ]
    (Array.to_list (Deficit.quanta d))

let prop_conservation =
  QCheck.Test.make
    ~name:"deficit: bytes dispatched per channel ~ K*quantum within bound"
    ~count:100
    QCheck.(pair (Arb.int_range 1 4) (list_of_size (Gen.return 400) (Arb.int_range 1 1000)))
    (fun (n, sizes) ->
      let quanta = Array.make n 1000 in
      let d = Deficit.create ~quanta () in
      let bytes = Array.make n 0 in
      List.iter
        (fun size ->
          let c = Deficit.select d in
          Deficit.consume d ~size;
          bytes.(c) <- bytes.(c) + size)
        sizes;
      let k = Deficit.round d in
      let bound = 1000 + (2 * 1000) in
      Array.for_all (fun b -> abs (b - (k * 1000)) <= bound) bytes)

(* [n_active] and [any_active] read a suspended-channel count kept by
   each write to the flags; after every op they must agree with a fold
   over [suspended]. Ops: suspend, resume, reconfigure, restart, reinit,
   and a select + consume so that suspensions land mid-visit too. *)
let prop_active_count =
  QCheck.Test.make ~name:"deficit: active count equals a fold over suspended"
    ~count:200
    QCheck.(
      pair (Arb.int_range 1 6)
        (list_of_size (Gen.int_range 0 120)
           (pair (Arb.int_range 0 5) (Arb.int_range 0 5))))
    (fun (n, ops) ->
      let d = Deficit.create ~quanta:(Array.make n 1000) () in
      let agrees () =
        let live = ref 0 in
        for c = 0 to n - 1 do
          if not (Deficit.suspended d c) then incr live
        done;
        Deficit.n_active d = !live && Deficit.any_active d = (!live > 0)
      in
      List.for_all
        (fun (op, c) ->
          let c = c mod n in
          (match op with
          | 0 -> Deficit.suspend d c
          | 1 -> Deficit.resume d c
          | 2 -> Deficit.reconfigure d ~quanta:(Array.make n (1000 + c))
          | 3 -> Deficit.restart d
          | 4 -> Deficit.reinit d
          | _ ->
            if Deficit.any_active d then begin
              ignore (Deficit.select d);
              Deficit.consume d ~size:(300 * (c + 1))
            end);
          agrees ())
        ops)

let suites =
  [
    ( "deficit",
      [
        Alcotest.test_case "figure 6 assignment" `Quick test_figure6_assignment;
        Alcotest.test_case "figure 5 DC trace" `Quick test_figure5_dc_trace;
        Alcotest.test_case "figure 5 rounds" `Quick test_figure5_round_structure;
        Alcotest.test_case "overdraw penalty" `Quick test_overdraw_penalty;
        Alcotest.test_case "deep overdraw skips" `Quick test_deep_overdraw_skips_rounds;
        Alcotest.test_case "RR packets mode" `Quick test_packets_mode_rr;
        Alcotest.test_case "GRR packets mode" `Quick test_packets_mode_grr;
        Alcotest.test_case "GRR for_rates" `Quick test_grr_for_rates;
        Alcotest.test_case "next_stamp initial" `Quick test_next_stamp_initial;
        Alcotest.test_case "next_stamp mid visit" `Quick test_next_stamp_mid_visit;
        Alcotest.test_case "next_stamp after visit" `Quick test_next_stamp_after_visit;
        Alcotest.test_case "next_stamp deep negative" `Quick
          test_next_stamp_deep_negative;
        Alcotest.test_case "stamp matches send" `Quick test_stamp_matches_actual_send;
        Alcotest.test_case "strict DRR select_for" `Quick test_strict_drr_select_for;
        Alcotest.test_case "strict DRR non-negative" `Quick
          test_strict_drr_never_negative;
        Alcotest.test_case "select requires overdraw" `Quick
          test_select_requires_overdraw;
        Alcotest.test_case "clone_initial" `Quick test_clone_initial;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "srr max packet check" `Quick test_srr_max_packet_check;
        Alcotest.test_case "srr for_rates" `Quick test_srr_for_rates;
        QCheck_alcotest.to_alcotest prop_conservation;
        QCheck_alcotest.to_alcotest prop_active_count;
      ] );
  ]
