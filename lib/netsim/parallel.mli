(** One runner for every parallel section: task [k] of N builds its own
    state (its own [Sim], its own {!Rng.stream}), shares nothing with
    the others, and hands back one value at the join barrier. *)

val run : int -> (int -> 'a) -> 'a array
(** [run n f] is [[| f 0; ...; f (n - 1) |]]: task 0 on the calling
    domain, tasks [1 .. n-1] on spawned ones (none when [n = 1]). Every
    task is joined before the exception of the lowest-numbered failed
    task, if any, is re-raised. Raises [Invalid_argument] if [n < 1]. *)

val auto : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val resolve : int -> int
(** [resolve n] is [n] for [n > 0] and {!auto} for [n = 0] — the
    [--domains 0] = "auto" convention. Raises [Invalid_argument] for
    [n < 0]. *)
