(** The committed-baseline gate shared by the [bench/exp_*] binaries.

    A baseline is a [BENCH_*.json] file written by {!write}: a few header
    fields and one array of flat entries, each entry tagged by one string
    field (["engine"], ["case"] or ["config"]). The virtual-time benches
    reproduce their file byte for byte ([test/baselines.t] compares it),
    so they only write it. [exp_throughput] and [exp_fleet] also measure
    wall-clock, which no machine reproduces: their [--check FILE] reads
    the file once with {!load}, holds each measured count against the
    committed one under a {!rule}, prints one [check] line per
    comparison and one [FAIL:] line per violation, and {!finish} exits 1
    if anything failed.

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
  | Exact  (** [current = committed]. *)
  | Within of float  (** [Within tol]: [|current - committed| <= tol]. *)
  | Band of float
      (** [Band r]: [committed * (1 - r) <= current <= committed * (1 + r)].
          For deterministic counts such as minor words: a rise is a
          regression, and a drop means the committed anchor is stale, so
          its [FAIL:] line says to regenerate the baseline. *)

val passes : rule -> committed:float -> float -> bool
(** [passes rule ~committed current]; [false] whenever [current] is
    NaN. *)

(** {1 Checking} *)

val check : t -> tag:string -> field:string -> rule -> float -> unit
(** [check t ~tag ~field rule current] looks up the committed value,
    prints the [check] line and, if the lookup or the rule fails, a
    [FAIL:] line on stderr, and records the failure. *)

val finish : t -> unit
(** Exit 1 if any check failed, else print [check passed]. *)

val require : bool -> ('a, unit, string, unit) format4 -> 'a
(** [require ok fmt ...]: unless [ok], print [fmt ...] as a [FAIL:] line
    and exit 1. For the claims a bench holds on every run, baseline or
    not. *)

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
  key:string ->
  header:(string * value) list ->
  array:string ->
  (string * value) list list ->
  unit
(** [write file ~key ~header ~array entries] writes the baseline layout
    — one header field per line, then [array] with one compact entry per
    line — and prints [wrote FILE]. An entry already in [file] whose
    [key] tag no entry of [entries] carries is kept, byte for byte; one
    whose tag an entry carries is replaced by it in place; the other
    entries follow, in order. The header is rewritten from [header]
    alone, so it must describe the whole file: what one run measured,
    its size included, belongs in that run's entries. *)

(** {1 Repeating} *)

val best_of : repeat:int -> by:('a -> float) -> (unit -> 'a) -> 'a
(** [best_of ~repeat ~by run] calls [run] [max 1 repeat] times and keeps
    the result scoring highest [by], the first of equals. Wall-clock
    noise on a shared machine is one-sided, so the best of N runs
    converges on the machine's true speed. *)

(** {1 Command lines} *)

val usage_error : usage:string -> string -> 'a
(** Print [usage: USAGE (got ARG)] on stderr and exit 2. *)

module Flag : sig
  type spec =
    | Unit of (unit -> unit)  (** a switch *)
    | String of (string -> unit)
    | Int of (int -> unit)  (** [int_of_string] syntax *)

  val parse_list : (string * spec) list -> string list -> (unit, string) result
  (** Apply the specs to the arguments in order. [Error] quotes the first
      argument that is no known flag, or a flag whose value is missing,
      malformed or refused (its setter raised [Invalid_argument]), with
      that value. *)

  val parse : usage:string -> (string * spec) list -> unit
  (** {!parse_list} over the command line, or {!usage_error}. *)
end
