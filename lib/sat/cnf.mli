(** Tseitin encoding of netlists and SAT-based equivalence checking.

    The classic miter construction: encode both circuits over shared input
    variables, XOR each output pair, OR the XORs, and ask the SAT solver
    whether the result can be 1 — UNSAT means the circuits agree on every
    input. This is the repository's one equivalence checker ([minflo
    verify]); the test-suite checks its verdicts against exhaustive
    simulation with {!Minflo_netlist.Netlist.simulate}. *)

type verdict =
  | Equivalent
  | Differ of { output_index : int; counterexample : (string * bool) list }
      (** [counterexample] assigns the first netlist's inputs, by name;
          [output_index] is the position of the first primary output the
          two netlists disagree on under it. *)
  | Interface_mismatch
      (** different numbers of primary inputs or of primary outputs. *)

val equivalent :
  Minflo_netlist.Netlist.t -> Minflo_netlist.Netlist.t -> verdict
(** Inputs and outputs are paired by position. *)
