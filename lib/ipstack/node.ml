type t = {
  table : Routing.t;
  mutable out_ifaces : (string * Stripe_layer.t) list;
  mutable protocols : (int * (Ip.t -> unit)) list;
  mutable n_no_route : int;
  mutable n_local : int;
}

let create () =
  {
    table = Routing.create ();
    out_ifaces = [];
    protocols = [];
    n_no_route = 0;
    n_local = 0;
  }

let routing t = t.table

let ip_input t ip =
  t.n_local <- t.n_local + 1;
  match List.assoc_opt ip.Ip.proto t.protocols with
  | Some f -> f ip
  | None -> ()

let add_stripe t layer =
  t.out_ifaces <- (Stripe_layer.name layer, layer) :: t.out_ifaces

let send t ip =
  match Routing.lookup t.table ip.Ip.dst with
  | None -> t.n_no_route <- t.n_no_route + 1
  | Some target -> (
    match List.assoc_opt target t.out_ifaces with
    | Some layer -> Stripe_layer.send layer ip
    | None -> t.n_no_route <- t.n_no_route + 1)

let set_protocol_handler t ~proto f =
  t.protocols <- (proto, f) :: List.remove_assoc proto t.protocols

let no_route_drops t = t.n_no_route
let delivered_local t = t.n_local
