(** Graph traversals and reachability. *)

val dfs_post : Digraph.t -> roots:Digraph.node list -> Digraph.node list
(** Nodes in DFS postorder from the given roots (each node once). *)

val reachable : Digraph.t -> roots:Digraph.node list -> Minflo_util.Bitset.t
(** Forward reachability from the roots. *)

val reachable_rev : Digraph.t -> roots:Digraph.node list -> Minflo_util.Bitset.t
(** Backward reachability (who can reach a root). *)
