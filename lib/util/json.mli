(** Minimal JSON: one value type, parser and printer, no dependencies.

    The one JSON writer and reader of the project (the toolchain
    deliberately has no JSON dependency). Newline-delimited consumers — the
    serve protocol, the engine trace files audited by [minflo audit-run],
    the batch/serve journal and the worker->parent event pipe — all speak
    this dialect: objects, arrays, strings, finite numbers, bools and null,
    one value per line. The persisted documents — checkpoints, fuzz
    reproducers and [minflo bench] baselines — are values of {!t} too, as
    are typed errors ([Diag.to_json]) and SARIF reports.

    Numbers print in the shortest form that parses back to the identical
    float, and {!of_float} gives the non-finite ones a string spelling, so
    any float survives a print/parse round trip bit for bit — the
    bit-identical checkpoint resume and the daemon's replay guarantees ride
    on it. *)

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
    [null]; a float that may be non-finite is written with {!of_float}
    instead. *)

(** {1 Bit-exact floats} *)

val of_float : float -> t
(** The one float spelling of every persisted document: [Num v] when [v]
    is finite, otherwise the string ["infinity"], ["-infinity"] or
    ["nan:<16 hex digits>"] — the nan's bits, so its sign and payload
    survive. *)

val to_float : t -> float option
(** Reads what {!of_float} writes, bit-identically, plus the bare ["nan"]
    that older journals wrote for every nan. *)

(** {1 Accessors} — each returns [None] on a missing key or wrong shape. *)

val member : string -> t -> t option
val to_num : t -> float option
val to_int : t -> int option
(** An integral number below 2{^53} in magnitude, the range in which a
    float holds every integer exactly (a traced min-cost-flow objective
    passes 1e15 at 50k gates). *)

val str_field : string -> t -> string option
val num_field : string -> t -> float option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option

val float_field : string -> t -> float option
(** [float_field key obj] is {!to_float} of the member [key]. *)

val array_field : (t -> 'a option) -> string -> t -> 'a array option
(** [array_field elt key obj] is the array member [key], each element
    read by [elt]; [None] if any element is rejected. *)
