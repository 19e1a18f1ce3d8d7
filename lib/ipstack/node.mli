(** An IP host: interfaces, a routing table, and local protocol demux.

    Ties the stack together the way §6.1 describes the sending host: the
    routing table decides which strIPe virtual interface an outgoing
    datagram leaves through, host routes steering the receiver's
    addresses onto it; incoming datagrams are handed to the transport
    registered for their protocol number. Forwarding is out
    of scope — nodes in the reproduced experiments are always endpoints. *)

type t

val create : unit -> t

val routing : t -> Routing.t

val add_stripe : t -> Stripe_layer.t -> unit
(** Attach a strIPe virtual interface (create it with
    [~deliver_up:(Node.ip_input node)]). Its name becomes routable. *)

val send : t -> Ip.t -> unit
(** Route and transmit a datagram. Datagrams with no route are counted
    and dropped. *)

val ip_input : t -> Ip.t -> unit
(** Local delivery: demux on the protocol number. *)

val set_protocol_handler : t -> proto:int -> (Ip.t -> unit) -> unit

val no_route_drops : t -> int
val delivered_local : t -> int
