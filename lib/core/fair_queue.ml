open Stripe_packet

type t = {
  quanta : int array;
  n : int;
  queues : Packet.t Fifo_queue.t array;
  dcs : int array;
  active : int Queue.t;  (* flows with packets, in round-robin order *)
  in_active : bool array;
  served : int array;
}

let create ~quanta () =
  let n = Array.length quanta in
  if n = 0 then invalid_arg "Fair_queue.create: no flows";
  Array.iter
    (fun q -> if q <= 0 then invalid_arg "Fair_queue.create: quantum must be positive")
    quanta;
  {
    quanta = Array.copy quanta;
    n;
    queues = Array.init n (fun _ -> Fifo_queue.create ());
    dcs = Array.make n 0;
    active = Queue.create ();
    in_active = Array.make n false;
    served = Array.make n 0;
  }

let enqueue t ~flow pkt =
  if flow < 0 || flow >= t.n then invalid_arg "Fair_queue.enqueue: bad flow";
  if Packet.is_marker pkt then invalid_arg "Fair_queue.enqueue: marker packet";
  Fifo_queue.push t.queues.(flow) ~size:pkt.Packet.size pkt;
  if not t.in_active.(flow) then begin
    (* A newly active flow joins the scan with a fresh account: idle
       periods neither bank credit nor carry debt into the new busy
       period beyond what the SRR overdraw already recorded. *)
    t.in_active.(flow) <- true;
    Queue.add flow t.active
  end

(* Serve the active list DRR-style: the flow at the head has already
   received its quantum for this visit if its DC is positive; otherwise
   grant it and, if the DC is still not positive (deep overdraw), rotate
   it to the back. *)
let rec dequeue t =
  match Queue.peek_opt t.active with
  | None -> None
  | Some flow ->
    if Fifo_queue.is_empty t.queues.(flow) then begin
      (* Went idle: leave the scan and forfeit any remaining credit;
         keep (negative) surplus debt so a flow cannot cheat by cycling
         idle. *)
      ignore (Queue.pop t.active);
      t.in_active.(flow) <- false;
      if t.dcs.(flow) > 0 then t.dcs.(flow) <- 0;
      dequeue t
    end
    else if t.dcs.(flow) > 0 then begin
      match Fifo_queue.pop t.queues.(flow) with
      | Some pkt ->
        t.dcs.(flow) <- t.dcs.(flow) - pkt.Packet.size;
        t.served.(flow) <- t.served.(flow) + pkt.Packet.size;
        if t.dcs.(flow) <= 0 then begin
          (* Visit over (possibly overdrawn): rotate to the back. *)
          ignore (Queue.pop t.active);
          if Fifo_queue.is_empty t.queues.(flow) then begin
            t.in_active.(flow) <- false;
            if t.dcs.(flow) > 0 then t.dcs.(flow) <- 0
          end
          else Queue.add flow t.active
        end;
        Some (flow, pkt)
      | None -> assert false
    end
    else begin
      (* Start of a visit: grant the quantum. A deeply overdrawn flow
         may need several rounds to recover, exactly as at the striper. *)
      t.dcs.(flow) <- t.dcs.(flow) + t.quanta.(flow);
      if t.dcs.(flow) <= 0 then begin
        ignore (Queue.pop t.active);
        Queue.add flow t.active
      end;
      dequeue t
    end

let backlog t ~flow = Fifo_queue.bytes t.queues.(flow)

let served_bytes t ~flow = t.served.(flow)

let is_empty t =
  Array.for_all Fifo_queue.is_empty t.queues
