(** Mutable directed graphs over dense integer node ids.

    Nodes and edges are created incrementally and identified by the [int]
    returned at creation; ids are dense, so client code attaches attributes
    in plain arrays indexed by id. This is the common representation for the
    circuit DAG of the paper (Section 2.2), the timing graph, and the
    min-cost-flow constraint network. *)

type t

type node = int
type edge = int

val create : ?nodes_hint:int -> unit -> t

val add_node : t -> node
(** Fresh node; ids are consecutive starting at 0. *)

val add_nodes : t -> int -> node
(** [add_nodes g k] adds [k] nodes and returns the id of the first. *)

val add_edge : t -> node -> node -> edge
(** [add_edge g u v] adds a directed edge [u -> v] and returns its id.
    Parallel edges and self-loops are allowed (flow networks use both). *)

val node_count : t -> int
val edge_count : t -> int

val src : t -> edge -> node
val dst : t -> edge -> node

val out_edges : t -> node -> edge list
(** Edges leaving a node, in insertion order. *)

val out_degree : t -> node -> int
val in_degree : t -> node -> int

val succ : t -> node -> node list
val pred : t -> node -> node list

val iter_nodes : t -> (node -> unit) -> unit
val iter_edges : t -> (edge -> unit) -> unit

val find_edge : t -> node -> node -> edge option
(** First edge [u -> v] if any. *)
