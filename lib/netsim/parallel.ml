let run n f =
  if n < 1 then invalid_arg "Parallel.run: needs at least one task";
  let spawned =
    Array.init (n - 1) (fun k -> Domain.spawn (fun () -> f (k + 1)))
  in
  (* Settle every task before raising: no domain is left unjoined. *)
  let settle task =
    try Ok (task ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let own = settle (fun () -> f 0) in
  Array.append [| own |]
    (Array.map (fun d -> settle (fun () -> Domain.join d)) spawned)
  |> Array.map (function
       | Ok v -> v
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let auto () = max 1 (Domain.recommended_domain_count ())

let resolve n =
  if n < 0 then invalid_arg "Parallel.resolve: negative domain count";
  if n = 0 then auto () else n
