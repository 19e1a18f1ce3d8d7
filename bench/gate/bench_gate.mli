(** The committed-baseline gate shared by the [bench/exp_*] binaries.

    A baseline is a [BENCH_*.json] file written by {!write}: a few header
    fields and one array of flat entries, each entry tagged by one string
    field (["engine"], ["case"] or ["config"]). [--check FILE] reads it
    once with {!load}, holds each measured value against the committed
    one under a {!rule}, prints one [check] line per comparison and one
    [FAIL:] line per violation, and {!finish} exits 1 if anything failed.

    Contract: a lookup stays inside the one entry that carries the tag,
    and a missing tag, field or number fails the gate — a gate never
    passes against a value it could not find. No JSON package: the
    reader below is the whole parser. *)

(** {1 Baselines} *)

type t
(** A baseline read from one file, plus the failures recorded against it
    by a [--check] run. *)

val read : key:string -> string -> (t, string) result
(** [read ~key file] parses [file]; entries are tagged by their [key]
    field. [Error] names the file and the fault (missing, unreadable,
    not JSON). *)

val load : key:string -> string -> t
(** [read], or print the [FAIL:] line telling how to regenerate the
    baseline and exit 1. *)

val lookup : t -> tag:string -> field:string -> float option
(** [lookup t ~tag ~field] is the number stored under [field] in the
    one object whose [key] field is the string [tag]. [None] if no
    object, or more than one, carries the tag, or if that object (not a
    nested one, not a neighbour) has no [field], or if its value is not
    a finite JSON number. *)

(** {1 Rules} *)

type rule =
  | Floor of float
      (** [Floor r]: [current >= committed * (1 - r)]. *)
  | Ceiling of { rel : float; abs : float }
      (** [current <= committed * (1 + rel) + abs]. *)
  | Time_ceiling of float
      (** [Time_ceiling r], for times in ms where a negative value means
          "never": a committed "never" accepts anything; otherwise
          [0 <= current <= committed * (1 + r) + 1]. *)
  | Exact  (** [current = committed]. *)
  | Within of float  (** [Within tol]: [|current - committed| <= tol]. *)

val passes : rule -> committed:float -> float -> bool
(** [passes rule ~committed current]; [false] whenever [current] is
    NaN. *)

(** {1 Checking} *)

val check : t -> tag:string -> field:string -> rule -> float -> unit
(** [check t ~tag ~field rule current] looks up the committed value,
    prints the [check] line and, if the lookup or the rule fails, a
    [FAIL:] line on stderr, and records the failure. *)

val fail : t -> ('a, unit, string, unit) format4 -> 'a
(** Record a failure of an invariant the binary checks itself, printing
    it as a [FAIL:] line. *)

val finish : t -> unit
(** Exit 1 if any check failed, else print [check passed]. *)

(** {1 Writing} *)

type value =
  | Str of string  (** written verbatim between quotes *)
  | Int of int
  | Num of int * float  (** [Num (d, x)]: [x] with [d] decimals *)
  | Bool of bool
  | Obj of (string * value) list
  | List of value list

val write :
  string ->
  header:(string * value) list ->
  array:string ->
  (string * value) list list ->
  unit
(** [write file ~header ~array entries] writes the baseline layout —
    one header field per line, then [array] with one compact entry per
    line — and prints [wrote FILE]. *)

(** {1 Command lines} *)

val usage_error : usage:string -> string -> 'a
(** Print [usage: USAGE (got ARG)] on stderr and exit 2. *)

module Flag : sig
  type spec =
    | Unit of (unit -> unit)  (** a switch *)
    | String of (string -> unit)
    | Int of (int -> unit)  (** [int_of_string] syntax *)
    | Float of (float -> unit)  (** finite: ["nan"] and ["inf"] are refused *)

  val parse_list : (string * spec) list -> string list -> (unit, string) result
  (** Apply the specs to the arguments in order. [Error] quotes the first
      argument that is no known flag, or a flag whose value is missing or
      malformed, with that value. *)

  val parse : usage:string -> (string * spec) list -> unit
  (** {!parse_list} over the command line, or {!usage_error}. *)
end
