type t = {
  sim : Stripe_netsim.Sim.t;
  mutable free_at : float;
  mutable consumed : float;
}

let create sim () = { sim; free_at = 0.0; consumed = 0.0 }

let execute t ~cost k =
  if cost < 0.0 then invalid_arg "Cpu.execute: negative cost";
  let now = Stripe_netsim.Sim.now t.sim in
  let start = max now t.free_at in
  t.free_at <- start +. cost;
  t.consumed <- t.consumed +. cost;
  Stripe_netsim.Sim.schedule t.sim ~at:t.free_at k

let backlog t = max 0.0 (t.free_at -. Stripe_netsim.Sim.now t.sim)

let busy_seconds t = t.consumed

let utilization t =
  let now = Stripe_netsim.Sim.now t.sim in
  if now <= 0.0 then 0.0 else t.consumed /. now
