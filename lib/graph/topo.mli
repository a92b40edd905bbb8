(** Topological ordering and DAG utilities.

    The sizing algorithms rely on processing the circuit DAG in topological
    order (forward for arrival times and sensitivity weights, backward for
    required times and the W-phase least-fixpoint sweep). *)

exception Cycle of Digraph.node list
(** Raised with (a fragment of) an offending cycle. *)

val sort : Digraph.t -> Digraph.node array
(** Kahn's algorithm. @raise Cycle if the graph is not a DAG. *)

val sort_opt : Digraph.t -> Digraph.node array option
(** [None] instead of raising. *)

val is_dag : Digraph.t -> bool

val levels : Digraph.t -> int array
(** [levels g] assigns each node the length of the longest edge path
    reaching it from any source (ASAP level). @raise Cycle on cycles. *)

val depth : Digraph.t -> int
(** Longest path length (in edges); 0 for an edgeless graph. *)
