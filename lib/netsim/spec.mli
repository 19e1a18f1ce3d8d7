(** Shared scanner for the compact command-line spec grammars.

    {!Fault.parse_spec}, {!Impair.parse_spec}, and {!Chaos.parse_spec}
    all speak dialects of one shape — [CH:ITEM,ITEM,...] with
    [NAME=VALUE] items, [@TIME] suffixes, and [A/B] argument pairs.
    These are the shared pieces; each parser keeps only its own
    vocabulary. Every error message names the offending fragment, the
    spec kind, and the complete spec string — and, when the parser
    walks items through {!located}, the character position of the
    offending item — so a mistyped flag is diagnosable from the
    message alone. *)

type ctx
(** A spec being parsed: its kind (for messages, e.g. ["fault"]), the
    full source string, and optionally the character position the
    parser is currently at. *)

val ctx : kind:string -> string -> ctx

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val errf : ctx -> ('a, unit, string, ('b, string) result) format4 -> 'a
(** Build an [Error] whose message ends with [" in KIND spec SPEC"] —
    or [" at char POS in KIND spec SPEC"] when the ctx is positioned
    (by {!located}). *)

val positive : ctx -> what:string -> string -> (float, string) result
val non_negative : ctx -> what:string -> string -> (float, string) result

val prob : ctx -> what:string -> string -> (float, string) result
(** A probability in [[0,1]]. *)

val int_ : ctx -> what:string -> string -> (int, string) result

val channel : ctx -> what:string -> string -> (int, string) result
(** A non-negative integer. *)

val channel_prefix : ctx -> (int * string, string) result
(** Split the spec's leading [CH:] off: the channel number and the
    remainder after the colon. *)

val located : ctx -> string -> (ctx * string) list
(** Comma-split and trim, each trimmed item with a ctx positioned at
    the item's first non-blank character. The string must be a suffix
    of the ctx's source (the whole spec, or the remainder returned by
    {!channel_prefix}), so positions index the string the user typed. *)

val kv : string -> string * string option
(** Split [NAME=VALUE] at the first [=]; [None] when there is none. *)

val timed : ctx -> string -> (string * float, string) result
(** Split [ITEM@TIME] at the last [@]: the item and its (non-negative)
    time. *)

val pair :
  ctx -> what:string -> sep:char -> string -> (string * string, string) result
(** Split a two-field argument like [P/DUR] at [sep]. *)
