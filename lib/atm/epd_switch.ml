type policy =
  | Tail_drop
  | Early_packet_discard of { threshold : int }

type t = {
  policy : policy;
  out_link : Cell.t Stripe_netsim.Link.t;
  (* EPD per-VC state: are we currently shedding this VC's frame? Frame
     starts are recognized as the first cell after an EOF (or ever). *)
  shedding : (int, bool) Hashtbl.t;
  mid_frame : (int, bool) Hashtbl.t;
  mutable n_dropped : int;
  mutable n_shed_frames : int;
}

let create sim ~policy ~buffer_cells ~out_rate_bps ~deliver () =
  if buffer_cells <= 0 then invalid_arg "Epd_switch.create: buffer must be positive";
  {
    policy;
    out_link =
      Stripe_netsim.Link.create sim ~rate_bps:out_rate_bps
        ~prop_delay:0.001
        ~txq_capacity_bytes:(buffer_cells * Cell.size)
        ~deliver ();
    shedding = Hashtbl.create 16;
    mid_frame = Hashtbl.create 16;
    n_dropped = 0;
    n_shed_frames = 0;
  }

let occupancy t = Stripe_netsim.Link.queue_bytes t.out_link / Cell.size

let enqueue t cell =
  if not (Stripe_netsim.Link.send t.out_link ~size:Cell.size cell) then
    t.n_dropped <- t.n_dropped + 1

let input t cell =
  match t.policy with
  | Tail_drop -> enqueue t cell
  | Early_packet_discard { threshold } ->
    if Cell.is_oam cell then enqueue t cell
    else begin
      let vci = cell.Cell.vci in
      let starting = not (Option.value ~default:false (Hashtbl.find_opt t.mid_frame vci)) in
      if starting then begin
        (* Frame-start decision point. *)
        let shed = occupancy t > threshold in
        Hashtbl.replace t.shedding vci shed;
        if shed then t.n_shed_frames <- t.n_shed_frames + 1
      end;
      Hashtbl.replace t.mid_frame vci (not (Cell.is_eof cell));
      if Option.value ~default:false (Hashtbl.find_opt t.shedding vci) then
        t.n_dropped <- t.n_dropped + 1
      else enqueue t cell
    end

let cells_dropped t = t.n_dropped
let frames_shed_early t = t.n_shed_frames
