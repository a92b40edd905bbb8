(** A small CDCL-style SAT solver.

    DPLL search with two-watched-literal unit propagation, first-UIP
    conflict learning, and activity-ordered decisions — enough machinery to
    discharge the combinational-equivalence miters this repository builds
    (see {!Cnf}).

    Literals are non-zero integers in the DIMACS convention: variable [v]
    (from {!new_var}, numbered from 1) appears positively as [v] and
    negatively as [-v]. *)

type t

val create : unit -> t

val new_var : t -> int
(** A fresh variable, returned as its positive literal. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a disjunction of literals. The empty clause makes the instance
    trivially unsatisfiable. @raise Invalid_argument on literals naming
    unknown variables. *)

type outcome =
  | Sat of bool array
      (** model indexed by variable (entry 0 unused). *)
  | Unsat

val solve : ?assumptions:int list -> t -> outcome
(** Assumptions are temporary unit decisions; the solver can be re-solved
    with different assumptions (incremental use). *)
