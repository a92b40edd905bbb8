(** Reader and writer for gate-level structural Verilog.

    The subset every ISCAS85 distribution and most academic netlists use:
    one module, [input]/[output]/[wire] declarations, and primitive gate
    instantiations with the output as the first terminal:

    {v module c17 (N1, N2, N3, N6, N7, N22, N23);
         input  N1, N2, N3, N6, N7;
         output N22, N23;
         wire   N10, N11, N16, N19;
         nand NAND2_1 (N10, N1, N3);
         ...
       endmodule v}

    Instance names are optional; [//] and [/* */] comments are handled;
    multiple declarations per keyword and statements spanning lines are
    fine. Behavioral constructs ([assign], [always], ...) are rejected with
    a located error. *)

val parse_raw_string :
  ?name:string -> string -> (Raw.t, Minflo_robust.Diag.error) result
(** Syntactic phase only: declarations with source locations, no name
    resolution. Semantically malformed circuits (cycles, duplicate or
    undefined signals) parse fine here — the linter consumes this form. *)

val parse_raw_file : string -> (Raw.t, Minflo_robust.Diag.error) result

val parse_string :
  ?name:string -> string -> (Netlist.t, Minflo_robust.Diag.error) result
(** The netlist takes the module's name unless [name] is given. Malformed or
    unsupported input yields [Error (Parse_error _)] with 1-based line and
    column numbers. Equivalent to {!parse_raw_string} then {!Raw.elaborate}. *)

val parse_file : string -> (Netlist.t, Minflo_robust.Diag.error) result
(** Unreadable files yield [Error (Io_error _)]; parse failures carry the
    file name. *)

val parse_string_exn : ?name:string -> string -> Netlist.t
(** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)

val parse_file_exn : string -> Netlist.t
(** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)

val to_string : Netlist.t -> string
(** Structural Verilog; identifiers unsuitable for Verilog are escaped with
    a [n_] prefix scheme so the output always re-parses. *)
