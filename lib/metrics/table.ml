type t = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
}

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong arity";
  t.rev_rows <- row :: t.rev_rows

let add_rowf t fmt =
  Printf.ksprintf (fun s -> add_row t (String.split_on_char '|' s)) fmt

let render t =
  let rows = List.rev t.rev_rows in
  let all = t.columns :: rows in
  let n = List.length t.columns in
  let widths = Array.make n 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let sep =
    String.concat "  "
      (List.mapi (fun i _ -> String.make widths.(i) '-') t.columns)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let fmt_mbps v = Printf.sprintf "%.2f" v
let fmt_float v = Printf.sprintf "%.3g" v

let series ~title ~x_label ~x ys =
  let columns = x_label :: List.map fst ys in
  let tbl = create ~title ~columns in
  List.iteri
    (fun i xi ->
      let row =
        fmt_float xi
        :: List.map
             (fun (_, col) ->
               if List.length col <> List.length x then
                 invalid_arg "Table.series: ragged series"
               else fmt_mbps (List.nth col i))
             ys
      in
      add_row tbl row)
    x;
  render tbl
