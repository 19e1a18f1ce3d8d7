(** Plain-text tables and data series for the benchmark harness.

    Renders the rows and series of the paper's tables and figures as
    aligned monospace text, so [bench/main.exe] output reads like the
    artifacts it reproduces. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Must match the column count. *)

val add_rowf : t -> ('a, unit, string, unit) format4 -> 'a
(** Single-cell convenience: formats one string and splits on ['|']
    into cells. *)

val render : t -> string
(** Title, header, separator, rows — columns padded to content width. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val series :
  title:string -> x_label:string -> x:float list ->
  (string * float list) list -> string
(** [series ~title ~x_label ~x ys] renders a figure as columns: the x
    vector and one named column per series ("who wins, by what factor,
    where crossovers fall" is readable directly). All vectors must have
    the length of [x]. *)
