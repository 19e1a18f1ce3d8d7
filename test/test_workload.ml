(* Tests for workload generators and the video playback model. *)

open Stripe_netsim
open Stripe_workload

let test_fixed () =
  let g = Genpkt.fixed 700 in
  Alcotest.(check (list int)) "constant" [ 700; 700; 700 ] (Genpkt.take g 3)

let test_alternating () =
  let g = Genpkt.alternating ~small:200 ~large:1000 in
  Alcotest.(check (list int)) "paper's worst case starts large"
    [ 1000; 200; 1000; 200 ] (Genpkt.take g 4)

let test_bimodal_rate () =
  let rng = Rng.create 1 in
  let g = Genpkt.bimodal ~rng ~p_small:0.25 ~small:200 ~large:1000 () in
  let sizes = Genpkt.take g 20_000 in
  let smalls = List.length (List.filter (fun s -> s = 200) sizes) in
  let rate = float_of_int smalls /. 20_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "small rate %.3f near 0.25" rate)
    true
    (abs_float (rate -. 0.25) < 0.02);
  Alcotest.(check bool) "only the two modes" true
    (List.for_all (fun s -> s = 200 || s = 1000) sizes)

let test_uniform_bounds () =
  let rng = Rng.create 2 in
  let g = Genpkt.uniform ~rng ~lo:64 ~hi:1500 in
  Alcotest.(check bool) "bounds respected" true
    (List.for_all (fun s -> s >= 64 && s <= 1500) (Genpkt.take g 5000))

let test_imix_values () =
  let rng = Rng.create 3 in
  let g = Genpkt.imix ~rng in
  Alcotest.(check bool) "classic sizes only" true
    (List.for_all (fun s -> s = 40 || s = 576 || s = 1500) (Genpkt.take g 1000))

let test_pareto_bounds () =
  let rng = Rng.create 4 in
  let g = Genpkt.pareto ~rng ~min_size:64 ~cap:1500 in
  let sizes = Genpkt.take g 5000 in
  Alcotest.(check bool) "bounds respected" true
    (List.for_all (fun s -> s >= 64 && s <= 1500) sizes);
  (* Heavy tail: some packets should hit the cap. *)
  Alcotest.(check bool) "tail reaches the cap" true (List.mem 1500 sizes)

let test_counted () =
  let total, g = Genpkt.counted (Genpkt.fixed 100) in
  ignore (Genpkt.take g 5);
  Alcotest.(check int) "byte counter" 500 !total

let test_video_shape () =
  let rng = Rng.create 5 in
  let trace =
    Video.generate ~rng ~fps:10.0 ~packets_per_frame:6 ~refresh_every:30
      ~refresh_scale:3 ~n_frames:60 ()
  in
  Alcotest.(check int) "refresh frames are larger" 18 (Video.frame_packet_count trace 0);
  Alcotest.(check int) "normal frames" 6 (Video.frame_packet_count trace 1);
  Alcotest.(check (float 1e-9)) "frame cadence" 0.1
    trace.Video.frames.(1).Video.send_time;
  Alcotest.(check (float 1e-9)) "duration" 6.0 (Video.duration trace);
  let pkts = Video.packets trace in
  Alcotest.(check int) "packet count consistent" (Video.n_packets trace)
    (List.length pkts);
  (* seqs are consecutive and packets carry their frame ids. *)
  let seqs = List.map (fun (_, p) -> p.Stripe_packet.Packet.seq) pkts in
  Alcotest.(check (list int)) "consecutive seqs"
    (List.init (List.length pkts) Fun.id) seqs

let test_playback_all_on_time () =
  let rng = Rng.create 6 in
  let trace = Video.generate ~rng ~n_frames:20 () in
  let pb = Playback.create ~trace ~playout_delay:0.5 () in
  List.iter
    (fun (t, p) ->
      Playback.packet_arrived pb ~frame:(Stripe_packet.Packet.frame p)
        ~now:(t +. 0.05))
    (Video.packets trace);
  let r = Playback.finalize pb in
  Alcotest.(check int) "no glitches" 0 r.Playback.glitched_frames;
  Alcotest.(check int) "nothing missing" 0 r.Playback.missing_packets

let test_playback_missing_packet_glitches () =
  let rng = Rng.create 7 in
  let trace = Video.generate ~rng ~refresh_every:0 ~n_frames:10 () in
  let pb = Playback.create ~trace () in
  (* Drop one packet of frame 3. *)
  let dropped = ref false in
  List.iter
    (fun (t, p) ->
      let frame = Stripe_packet.Packet.frame p in
      if frame = 3 && not !dropped then dropped := true
      else Playback.packet_arrived pb ~frame ~now:(t +. 0.01))
    (Video.packets trace);
  let r = Playback.finalize pb in
  Alcotest.(check int) "exactly one glitched frame" 1 r.Playback.glitched_frames;
  Alcotest.(check int) "one missing packet" 1 r.Playback.missing_packets

let test_playback_late_packet_glitches () =
  let rng = Rng.create 8 in
  let trace = Video.generate ~rng ~refresh_every:0 ~n_frames:5 () in
  let pb = Playback.create ~trace ~playout_delay:0.2 () in
  List.iter
    (fun (t, p) ->
      let frame = Stripe_packet.Packet.frame p in
      (* Frame 2's packets arrive half a second late. *)
      let delay = if frame = 2 then 0.5 else 0.01 in
      Playback.packet_arrived pb ~frame ~now:(t +. delay))
    (Video.packets trace);
  let r = Playback.finalize pb in
  Alcotest.(check int) "late frame glitches" 1 r.Playback.glitched_frames;
  Alcotest.(check bool) "late packets counted" true (r.Playback.late_packets > 0)

let test_playback_reordering_within_deadline_harmless () =
  (* The core of the paper's E5 finding: reordering that stays inside the
     playout buffer does not glitch. *)
  let rng = Rng.create 9 in
  let trace = Video.generate ~rng ~refresh_every:0 ~n_frames:10 () in
  let pb = Playback.create ~trace ~playout_delay:0.4 () in
  let pkts = Video.packets trace in
  (* Deliver each frame's packets in reverse order with small jitter. *)
  List.iter
    (fun (t, p) ->
      let frame = Stripe_packet.Packet.frame p in
      Playback.packet_arrived pb ~frame
        ~now:(t +. 0.3 -. (0.001 *. float_of_int p.Stripe_packet.Packet.seq)))
    (List.rev pkts);
  let r = Playback.finalize pb in
  Alcotest.(check int) "reordering alone causes no glitches" 0
    r.Playback.glitched_frames

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "fixed" `Quick test_fixed;
        Alcotest.test_case "alternating" `Quick test_alternating;
        Alcotest.test_case "bimodal" `Quick test_bimodal_rate;
        Alcotest.test_case "uniform" `Quick test_uniform_bounds;
        Alcotest.test_case "imix" `Quick test_imix_values;
        Alcotest.test_case "pareto" `Quick test_pareto_bounds;
        Alcotest.test_case "counted" `Quick test_counted;
        Alcotest.test_case "video shape" `Quick test_video_shape;
        Alcotest.test_case "playback on time" `Quick test_playback_all_on_time;
        Alcotest.test_case "playback missing" `Quick
          test_playback_missing_packet_glitches;
        Alcotest.test_case "playback late" `Quick test_playback_late_packet_glitches;
        Alcotest.test_case "playback reordering harmless" `Quick
          test_playback_reordering_within_deadline_harmless;
      ] );
  ]
