type target = string

type entry = { net : Ip.addr; prefix : int; target : target }

type t = { mutable entries : entry list }

let create () = { entries = [] }

let add t net prefix target =
  (* Keep the list sorted by decreasing prefix; new entries go ahead of
     equal-prefix ones so the latest insertion wins ties. *)
  let e = { net = Ip.network net ~prefix; prefix; target } in
  let before, after = List.partition (fun x -> x.prefix > prefix) t.entries in
  t.entries <- before @ (e :: after)

let add_host t a target = add t a 32 target

let add_network t a ~prefix target =
  if prefix < 0 || prefix > 32 then invalid_arg "Routing.add_network: bad prefix";
  add t a prefix target

let add_default t target = add t 0 0 target

let remove_host t a =
  t.entries <-
    List.filter (fun e -> not (e.prefix = 32 && e.net = a)) t.entries

let lookup t a =
  let matches e = Ip.network a ~prefix:e.prefix = e.net in
  match List.find_opt matches t.entries with
  | Some e -> Some e.target
  | None -> None
