(** Common link and packet size constants.

    Values match the environments the paper stripes over: Ethernet and an
    ATM PVC carrying IP, plus the packet sizes used in its experiments
    (random mixes of small/large packets; the deterministic 1000/200-byte
    alternation of the GRR worst case). *)

val ethernet_mtu : int
(** 1500 bytes. *)

val ethernet_overhead : int
(** Per-frame overhead on the wire: MAC header + FCS + preamble + IFG
    equivalent (38 bytes), charged per packet by the link model. *)

val atm_overhead_for : int -> int
(** [atm_overhead_for n] is the AAL5 wire cost of an [n]-byte IP packet:
    the padding + cell headers beyond the payload bytes, i.e.
    [cells * 53 - n] with [cells = ceil((n + 8) / 48)] (8 = AAL5
    trailer). *)

val ip_header : int
(** 20 bytes. *)

val small_packet : int
(** 200 bytes — the paper's small packet. *)

val large_packet : int
(** 1000 bytes — the paper's large packet. *)
