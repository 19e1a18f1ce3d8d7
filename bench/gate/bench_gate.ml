(* The reader keeps numbers as their source text: a malformed number in
   one field must fail that field's lookup, not the whole file. Strings
   are read with backslash escapes taken literally, enough for the
   program-chosen tags and labels baselines hold. *)
type json =
  | Text of string
  | Atom of string
  | Fields of (string * json) list
  | Items of json list

exception Malformed of int

let parse s =
  let n = String.length s and pos = ref 0 in
  let malformed () = raise (Malformed !pos) in
  let rec peek () =
    if !pos >= n then malformed ()
    else if String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      peek ()
    end
    else s.[!pos]
  in
  let expect c = if peek () = c then incr pos else malformed () in
  let text () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then malformed ();
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else begin
        if c = '\\' && !pos < n then begin
          Buffer.add_char b s.[!pos];
          incr pos
        end
        else Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    match peek () with
    | '{' ->
      incr pos;
      Fields
        (items '}' (fun () ->
             let k = text () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Items (items ']' value)
    | '"' -> Text (text ())
    | _ ->
      let start = !pos in
      while !pos < n && not (String.contains ",:[]{}\" \t\r\n" s.[!pos]) do
        incr pos
      done;
      if !pos = start then malformed ();
      Atom (String.sub s start (!pos - start))
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        match peek () with
        | ',' ->
          incr pos;
          go acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> malformed ()
      in
      go []
  in
  let v = value () in
  while !pos < n && String.contains " \t\r\n" s.[!pos] do
    incr pos
  done;
  if !pos < n then malformed ();
  v

let rec objects = function
  | Fields fields -> fields :: List.concat_map (fun (_, v) -> objects v) fields
  | Items vs -> List.concat_map objects vs
  | Text _ | Atom _ -> []

type t = {
  file : string;
  key : string;
  objects : (string * json) list list;
  mutable failed : bool;
}

let read ~key file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error ("cannot read baseline " ^ e)
  | s -> (
    match parse s with
    | exception Malformed at ->
      Error
        (Printf.sprintf "baseline file %s is not valid JSON (byte %d)" file at)
    | json -> Ok { file; key; objects = objects json; failed = false })

let load ~key file =
  match read ~key file with
  | Ok t -> t
  | Error msg ->
    Printf.eprintf "  FAIL: %s — regenerate it with --json %s and commit it\n%!"
      msg file;
    exit 1

let is_number a =
  a <> "" && String.for_all (fun c -> String.contains "0123456789+-.eE" c) a

let lookup t ~tag ~field =
  let tagged o = List.assoc_opt t.key o = Some (Text tag) in
  match List.filter tagged t.objects with
  | [ entry ] -> (
    match List.assoc_opt field entry with
    | Some (Atom a) when is_number a -> (
      match float_of_string_opt a with
      | Some x when Float.is_finite x -> Some x
      | _ -> None)
    | _ -> None)
  | _ -> None

type rule =
  | Floor of float
  | Ceiling of { rel : float; abs : float }
  | Time_ceiling of float
  | Exact
  | Within of float

let show x = Printf.sprintf "%.7g" x

(* Whether [current] passes, and the limit it was held to. Each rule is
   stated as the condition to pass, so a NaN measurement fails. *)
let verdict rule ~committed current =
  match rule with
  | Floor r ->
    let floor = committed *. (1.0 -. r) in
    (current >= floor, "floor " ^ show floor)
  | Ceiling { rel; abs } ->
    let ceiling = (committed *. (1.0 +. rel)) +. abs in
    (current <= ceiling, "ceiling " ^ show ceiling)
  | Time_ceiling _ when committed < 0.0 -> (true, "accepts any")
  | Time_ceiling r ->
    let ceiling = (committed *. (1.0 +. r)) +. 1.0 in
    (current >= 0.0 && current <= ceiling, "ceiling " ^ show ceiling)
  | Exact -> (current = committed, "exact")
  | Within tol ->
    (Float.abs (current -. committed) <= tol, "within " ^ show tol)

let passes rule ~committed current = fst (verdict rule ~committed current)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- true;
      Printf.eprintf "  FAIL: %s\n%!" msg)
    fmt

let check t ~tag ~field rule current =
  match lookup t ~tag ~field with
  | None ->
    fail t
      "no committed \"%s\" entry for %s \"%s\" in %s — regenerate the \
       baseline with --json"
      field t.key tag t.file
  | Some committed ->
    let ok, limit = verdict rule ~committed current in
    let shown x =
      match rule with Time_ceiling _ when x < 0.0 -> "never" | _ -> show x
    in
    Printf.printf "  check %-25s %-12s %10s vs committed %10s (%s)\n%!" tag
      field (shown current) (shown committed) limit;
    if not ok then
      fail t "%s %s regressed: %s vs committed %s (%s)" tag field
        (shown current) (shown committed) limit

let finish t = if t.failed then exit 1 else print_endline "  check passed"

type value =
  | Str of string
  | Int of int
  | Num of int * float
  | Bool of bool
  | Obj of (string * value) list
  | List of value list

let rec to_json = function
  | Str s -> "\"" ^ s ^ "\""
  | Int i -> string_of_int i
  | Num (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Bool b -> string_of_bool b
  | Obj fields ->
    let field (k, v) = Printf.sprintf "\"%s\":%s" k (to_json v) in
    "{" ^ String.concat "," (List.map field fields) ^ "}"
  | List vs -> "[" ^ String.concat "," (List.map to_json vs) ^ "]"

let write file ~header ~array entries =
  Out_channel.with_open_text file (fun oc ->
      output_string oc "{\n";
      List.iter
        (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k (to_json v))
        header;
      Printf.fprintf oc "  \"%s\": [\n    %s\n  ]\n}\n" array
        (String.concat ",\n    "
           (List.map (fun e -> to_json (Obj e)) entries)));
  Printf.printf "  wrote %s\n%!" file

let usage_error ~usage arg =
  Printf.eprintf "usage: %s (got %s)\n%!" usage arg;
  exit 2

module Flag = struct
  type spec =
    | Unit of (unit -> unit)
    | String of (string -> unit)
    | Int of (int -> unit)
    | Float of (float -> unit)

  let rec parse_list specs = function
    | [] -> Ok ()
    | arg :: rest -> (
      let value parse set =
        match rest with
        | v :: rest -> (
          match parse v with
          | Some x ->
            set x;
            parse_list specs rest
          | None -> Error (arg ^ " " ^ v))
        | [] -> Error arg
      in
      match List.assoc_opt arg specs with
      | None -> Error arg
      | Some (Unit f) ->
        f ();
        parse_list specs rest
      | Some (String f) -> value Option.some f
      | Some (Int f) -> value int_of_string_opt f
      | Some (Float f) ->
        value
          (fun v ->
            match float_of_string_opt v with
            | Some x when Float.is_finite x -> Some x
            | _ -> None)
          f)

  let parse ~usage specs =
    match parse_list specs (List.tl (Array.to_list Sys.argv)) with
    | Ok () -> ()
    | Error arg -> usage_error ~usage arg
end
