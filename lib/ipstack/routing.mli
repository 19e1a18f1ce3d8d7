(** IP routing table with host-route override.

    §6.1 hinges on one property of IP routing: "it is possible for host
    specific routes to override network specific routes. Thus, if the two
    ethernets are on IP networks Net1 and Net2, and if the receiving
    host's two IP addresses are Net1.B and Net2.B, then we simply make
    entries in the sending host's routing table, asking it to route
    packets to Net1.B and Net2.B to interface C, which corresponds to the
    strIPe interface." Lookup is longest-prefix-match: host routes
    (/32) beat network routes beat the default. *)

type target = string
(** Interface name the route resolves to. *)

type t

val create : unit -> t

val add_host : t -> Ip.addr -> target -> unit
(** /32 route. *)

val add_network : t -> Ip.addr -> prefix:int -> target -> unit

val add_default : t -> target -> unit

val remove_host : t -> Ip.addr -> unit

val lookup : t -> Ip.addr -> target option
(** Longest-prefix match; ties broken by most recent insertion. *)
