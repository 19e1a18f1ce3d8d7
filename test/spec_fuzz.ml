(* Fuzz inputs for the external-input parsers (fault, chaos, impair and
   health specs, replay traces): strings drawn from a grammar's
   alphabet, and point mutations (replace, delete, insert) of a valid
   input. Each parser's own test file states what "total" means for it
   and checks it with {!total}. *)

(* Characters every numeric field can meet: signs, exponents, the
   spellings of nan and infinity, and separators a user might mistype. *)
let number_chars = "0123456789.-+eEnaif "

let alphabet_of valid =
  List.sort_uniq Char.compare
    (List.of_seq (String.to_seq (valid ^ number_chars)))

let mutate alphabet valid =
  let open QCheck.Gen in
  let edit s =
    let len = String.length s in
    let+ op = int_bound 2 and+ pos = int_bound len and+ c = oneofl alphabet in
    let before = String.sub s 0 pos in
    let from k = if k >= len then "" else String.sub s k (len - k) in
    match op with
    | 0 when pos < len -> before ^ String.make 1 c ^ from (pos + 1)
    | 1 when pos < len -> before ^ from (pos + 1)
    | _ -> before ^ String.make 1 c ^ from pos
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  int_range 1 4 >>= fun k -> edits k valid

let input ~valid =
  let alphabet = alphabet_of valid in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(oneofl alphabet) (int_bound 40); mutate alphabet valid;
        ])

(* A property that [parse] returns or raises only what [allowed] accepts. *)
let total ~name ~valid ?(allowed = fun (_ : exn) -> false) parse =
  QCheck.Test.make ~name ~count:2000 (input ~valid) (fun s ->
      match parse s with
      | () -> true
      | exception e when allowed e -> true
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))
