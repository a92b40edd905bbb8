(** Raw (pre-elaboration) netlists with source locations.

    Both netlist readers ({!Bench_format}, {!Verilog_format}) first produce
    this representation: the declarations exactly as written, each with its
    source position, before any name resolution. It exists for two reasons:

    - {!elaborate} centralizes the semantic phase both parsers used to
      duplicate — input declaration, fixpoint resolution of textual forward
      references, output marking, validation — with every failure reported
      as a located [Parse_error];
    - the static analyzer ([Minflo_lint.Lint]) runs on this form, because a
      malformed circuit (combinational cycle, multi-driven net, undriven
      signal) by definition cannot be represented as a {!Netlist.t}, which
      is a DAG by construction. Lint findings point at real source lines.

    A raw netlist makes no semantic promises: names may be duplicated,
    undefined or cyclic. *)

type loc = { line : int; col : int }
(** 1-based source position; 0 means unknown (e.g. {!of_netlist}). *)

val no_loc : loc

type gate_decl = {
  g_name : string;    (** the driven signal *)
  g_kind : Gate.kind;
  g_fanins : string list;
  g_loc : loc;
}

type t = {
  file : string option;
  circuit : string;                (** circuit / module name *)
  inputs : (string * loc) list;    (** declaration order *)
  outputs : (string * loc) list;
  gates : gate_decl list;
}

val max_token_length : int
(** Longest name/identifier either parser accepts (1024 bytes). Longer
    tokens — fuzz inputs, corrupted files — are rejected with a located
    [Parse_error] (an MF000 finding through the linter) at the point of
    lexing, before they can reach elaboration or a report. *)

val of_netlist : Netlist.t -> t
(** View an in-memory netlist as a raw netlist (locations unknown). Lets
    the linter run on generated circuits. *)

val elaborate : t -> (Netlist.t, Minflo_robust.Diag.error) result
(** Build and validate the netlist: declare inputs, resolve gates to a
    topological construction order (textual forward references are fine as
    long as the circuit is acyclic), mark outputs, {!Netlist.validate}.
    Every failure — duplicate name, undefined or cyclic fanin, arity
    violation, missing interface — is a located [Parse_error] carrying
    [file]. *)

val signal_names : t -> string list
(** Every distinct signal mentioned anywhere (inputs, outputs, gate outputs
    and fanins), in first-mention order. *)

(** {1 Reader front end}

    What both readers share around their grammars: reading the file,
    locating syntax errors, elaborating. *)

exception Located of int * int * string
(** [Located (line, col, message)]: a syntax error raised by a format's
    grammar; {!Reader} reports it as a [Parse_error] carrying the file
    name. *)

module Reader (Grammar : sig
  val parse_raw : ?file:string -> ?name:string -> string -> t
  (** The format's syntactic phase. [name], when given, overrides the
      circuit name the text declares. Fails only by raising {!Located}. *)
end) : sig
  val parse_raw_string :
    ?name:string -> string -> (t, Minflo_robust.Diag.error) result

  val parse_raw_file : string -> (t, Minflo_robust.Diag.error) result
  (** The circuit takes the file's basename, without its extension. An
      unreadable file is an [Io_error]; syntax errors carry the file
      name. *)

  val parse_string :
    ?name:string -> string -> (Netlist.t, Minflo_robust.Diag.error) result
  (** {!parse_raw_string} then {!elaborate}. *)

  val parse_file : string -> (Netlist.t, Minflo_robust.Diag.error) result
  (** {!parse_raw_file} then {!elaborate}. *)

  val parse_string_exn : ?name:string -> string -> Netlist.t
  (** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)

  val parse_file_exn : string -> Netlist.t
  (** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)
end
