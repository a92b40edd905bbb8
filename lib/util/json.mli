(** Minimal JSON: one value type, parser and printer, no dependencies.

    The one JSON writer and reader of the project (the toolchain
    deliberately has no JSON dependency). Newline-delimited consumers — the
    serve protocol, the engine trace files audited by [minflo audit-run],
    the batch/serve journal and the worker->parent event pipe — all speak
    this dialect: objects, arrays, strings, finite numbers, bools and null,
    one value per line. Typed errors ([Diag.to_json]) and SARIF reports are
    built as values of {!t} too.

    Numbers print in the shortest form that parses back to the identical
    float — the daemon's bit-identical replay guarantees ride on values
    surviving print/parse round trips. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** printer-only escape hatch: splices a pre-rendered JSON fragment
          verbatim. The parser never produces it. *)

val parse : string -> (t, string) result
(** Strict parse of one complete value; [Error] carries a message with a
    byte offset. Rejects trailing garbage. *)

val to_string : t -> string
(** One line, no trailing newline. [Num nan] and infinities render as
    [null]; records that may carry them (journal fields, error objects)
    spell floats with [Diag.json_float] instead. *)

(** {1 Accessors} — each returns [None] on a missing key or wrong shape. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val str_field : string -> t -> string option
val num_field : string -> t -> float option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option
