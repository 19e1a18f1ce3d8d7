type t = {
  trace : Video.t;
  playout_delay : float;
  on_time : int array;  (* packets arrived by the frame's deadline *)
  mutable n_late : int;
  mutable n_arrived : int;
}

type report = {
  frames : int;
  glitched_frames : int;
  glitch_rate : float;
  degraded_frames : int;
  degraded_rate : float;
  late_packets : int;
  arrived_packets : int;
  missing_packets : int;
}

let create ~trace ?(playout_delay = 0.4) () =
  if playout_delay < 0.0 then invalid_arg "Playback.create: negative delay";
  {
    trace;
    playout_delay;
    on_time = Array.make (Array.length trace.Video.frames) 0;
    n_late = 0;
    n_arrived = 0;
  }

let packet_arrived t ~frame ~now =
  if frame < 0 || frame >= Array.length t.trace.Video.frames then
    invalid_arg "Playback.packet_arrived: unknown frame";
  t.n_arrived <- t.n_arrived + 1;
  let deadline =
    t.trace.Video.frames.(frame).Video.send_time +. t.playout_delay
  in
  if now <= deadline then t.on_time.(frame) <- t.on_time.(frame) + 1
  else t.n_late <- t.n_late + 1

let finalize t =
  let frames = Array.length t.trace.Video.frames in
  let glitched = ref 0 in
  let degraded = ref 0 in
  let expected_total = ref 0 in
  Array.iteri
    (fun i f ->
      let expected = Array.length f.Video.packet_sizes in
      expected_total := !expected_total + expected;
      if t.on_time.(i) < expected then incr glitched;
      if 2 * t.on_time.(i) < expected then incr degraded)
    t.trace.Video.frames;
  let rate n = if frames = 0 then 0.0 else float_of_int n /. float_of_int frames in
  {
    frames;
    glitched_frames = !glitched;
    glitch_rate = rate !glitched;
    degraded_frames = !degraded;
    degraded_rate = rate !degraded;
    late_packets = t.n_late;
    arrived_packets = t.n_arrived;
    missing_packets = max 0 (!expected_total - t.n_arrived);
  }
