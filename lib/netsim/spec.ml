(* Shared scanner for the compact command-line spec grammars
   (--fault, --impair, --chaos, --health). The grammars are built from
   the same few shapes — a CH: prefix, comma-separated items,
   NAME=VALUE pairs, @TIME suffixes, A/B value pairs — and every parser
   used to hand-roll them with near-identical code and error strings.
   This module is that code, written once, with every error naming the
   offending fragment, its character position, the spec kind, and the
   full spec string. *)

type ctx = { kind : string; spec : string; pos : int (* -1 = unknown *) }

let ctx ~kind spec = { kind; spec; pos = -1 }
let at c pos = { c with pos }
let ( let* ) = Result.bind

let errf c fmt =
  Printf.ksprintf
    (fun m ->
      Error
        (if c.pos >= 0 then
           Printf.sprintf "%s at char %d in %s spec %S" m c.pos c.kind c.spec
         else Printf.sprintf "%s in %s spec %S" m c.kind c.spec))
    fmt

let float_ c ~what v =
  match float_of_string_opt (String.trim v) with
  | Some f when Float.is_finite f -> Ok f
  | Some _ | None -> errf c "bad %s %S (want a finite number)" what v

let positive c ~what v =
  let* f = float_ c ~what v in
  if f <= 0.0 then errf c "%s must be > 0, got %g" what f else Ok f

let non_negative c ~what v =
  let* f = float_ c ~what v in
  if f < 0.0 then errf c "%s must be >= 0, got %g" what f else Ok f

let prob c ~what v =
  let* p = float_ c ~what v in
  if p < 0.0 || p > 1.0 then
    errf c "%s probability %g not in [0,1]" what p
  else Ok p

let int_ c ~what v =
  match int_of_string_opt (String.trim v) with
  | Some i -> Ok i
  | None -> errf c "bad %s %S (want an integer)" what v

let channel c ~what v =
  let* i = int_ c ~what v in
  if i < 0 then errf c "negative %s %d" what i else Ok i

let channel_prefix c =
  match String.index_opt c.spec ':' with
  | None -> errf c "missing CH: prefix"
  | Some i ->
    let* ch = channel (at c 0) ~what:"channel" (String.sub c.spec 0 i) in
    Ok (ch, String.sub c.spec (i + 1) (String.length c.spec - i - 1))

(* Comma-split [rest] into items, each paired with a ctx positioned at
   the item's first non-blank character. [rest] must be a suffix of the
   ctx's spec (which is what {!channel_prefix} returns and what parsers
   without a prefix pass — the whole spec), so positions are offsets
   into the full source string the user typed. *)
let located c rest =
  let base = String.length c.spec - String.length rest in
  let cur = ref base in
  List.map
    (fun p ->
      let start = !cur in
      cur := !cur + String.length p + 1;
      let lead = ref 0 in
      let n = String.length p in
      while !lead < n && (p.[!lead] = ' ' || p.[!lead] = '\t') do
        incr lead
      done;
      (at c (start + !lead), String.trim p))
    (String.split_on_char ',' rest)

let kv tok =
  match String.index_opt tok '=' with
  | None -> (tok, None)
  | Some i ->
    (String.sub tok 0 i, Some (String.sub tok (i + 1) (String.length tok - i - 1)))

let timed c tok =
  match String.rindex_opt tok '@' with
  | None -> errf c "event %S lacks an @TIME" tok
  | Some i ->
    let* at =
      non_negative c ~what:"time"
        (String.sub tok (i + 1) (String.length tok - i - 1))
    in
    Ok (String.sub tok 0 i, at)

let pair c ~what ~sep v =
  match String.split_on_char sep v with
  | [ a; b ] -> Ok (a, b)
  | _ -> errf c "%s needs exactly two %c-separated fields, got %S" what sep v
