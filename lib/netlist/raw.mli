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
