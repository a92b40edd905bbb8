(** Graphviz DOT export, for debugging circuit DAGs and flow networks. *)

val to_dot :
  ?name:string ->
  ?node_label:(Digraph.node -> string) ->
  ?edge_label:(Digraph.edge -> string) ->
  Digraph.t ->
  string
