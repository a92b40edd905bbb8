(** Strongly connected components (Tarjan's algorithm).

    The netlist linter uses this to not merely detect a combinational cycle
    but to report its member gates: every SCC with more than one node — or
    with a self-loop — is a cycle in the signal graph. Iterative
    implementation, so deep circuits cannot blow the OCaml stack. *)

val components : Digraph.t -> int array * int
(** [components g] is [(comp, count)]: [comp.(v)] is the id of [v]'s
    strongly connected component, with ids in reverse topological order of
    the condensation (a component's successors have strictly smaller ids).
    [count] is the number of components. *)

val cyclic_groups : Digraph.t -> Digraph.node list list
(** Only the components that contain a cycle: size > 1, or a single node
    with a self-loop. *)
