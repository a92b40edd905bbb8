(** Reader and writer for the ISCAS85 / ISCAS89 [.bench] netlist format.

    The format the original benchmark suite ships in:

    {v # comment
       INPUT(G1)
       OUTPUT(G22)
       G10 = NAND(G1, G3) v}

    Gates may be declared before use textually; a two-pass parse resolves
    forward references as long as the circuit is acyclic. Flip-flop ([DFF])
    declarations are rejected — this tool sizes combinational logic. *)

val parse_raw_string :
  ?name:string -> string -> (Raw.t, Minflo_robust.Diag.error) result
(** Syntactic phase only: statements with source locations, no name
    resolution. Semantically malformed circuits (cycles, duplicate or
    undefined signals) parse fine here — the linter consumes this form. *)

val parse_raw_file : string -> (Raw.t, Minflo_robust.Diag.error) result

val parse_string :
  ?name:string -> string -> (Netlist.t, Minflo_robust.Diag.error) result
(** [Error (Parse_error _)] with a 1-based line number on malformed input.
    A successful result is validated. Equivalent to {!parse_raw_string}
    followed by {!Raw.elaborate}. *)

val parse_file : string -> (Netlist.t, Minflo_robust.Diag.error) result
(** Netlist named after the file's basename. Unreadable files yield
    [Error (Io_error _)]; parse failures carry the file name. *)

val parse_string_exn : ?name:string -> string -> Netlist.t
(** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)

val parse_file_exn : string -> Netlist.t
(** @raise Minflo_robust.Diag.Error_exn instead of returning [Error]. *)

val to_string : Netlist.t -> string
(** Render in [.bench] syntax; [parse_string (to_string nl)] is structurally
    identical to [nl]. *)
