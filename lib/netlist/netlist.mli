(** Gate-level combinational netlists.

    A netlist is a DAG of primary inputs and gates; some nodes are marked as
    primary outputs. Node ids are dense integers in creation order, so
    client code (timing graphs, sizing state) attaches attributes in plain
    arrays. Netlists are built incrementally and then frozen by {!validate};
    all analysis functions expect a validated netlist. *)

type node_kind =
  | Input
  | Gate of Gate.kind

type t

type node = int

(** {1 Construction} *)

val create : ?name:string -> unit -> t

val name : t -> string

val add_input : t -> string -> node
(** @raise Invalid_argument on duplicate names. *)

val add_gate : t -> string -> Gate.kind -> node list -> node
(** [add_gate nl name kind fanins]. Fanins must already exist.
    @raise Invalid_argument on duplicate names, arity violations, or unknown
    fanin ids. *)

val mark_output : t -> node -> unit
(** Marks a node as a primary output (idempotent). *)

val validate : t -> unit
(** Checks global invariants: at least one input and one output, every
    output reachable from some input (non-degenerate), acyclicity is
    guaranteed by construction. @raise Invalid_argument on violation. *)

(** {1 Access} *)

val node_count : t -> int
val gate_count : t -> int
(** Number of gate nodes (excludes primary inputs). *)

val input_count : t -> int
val kind : t -> node -> node_kind
val node_name : t -> node -> string
val find : t -> string -> node option
val fanins : t -> node -> node list
val fanouts : t -> node -> node list
(** Nodes that read this node's value (computed once, cached). *)

val fanout_degree : t -> node -> int
val inputs : t -> node list
val outputs : t -> node list
val is_output : t -> node -> bool
val iter_nodes : t -> (node -> unit) -> unit
val iter_gates : t -> (node -> unit) -> unit

(** {1 Analysis} *)

val topo_order : t -> node array
(** Inputs first, then gates in dependency order. *)

val depth : t -> int
(** The largest logic level: 0 for inputs, 1 + max fanin level for gates. *)

val simulate : t -> bool array -> bool array
(** [simulate nl input_values] evaluates the circuit; input values are given
    in the order of {!inputs}. Returns one value per node. Used by the
    generator equivalence tests. *)

type stats = {
  num_inputs : int;
  num_outputs : int;
  num_gates : int;
  gates_by_kind : (Gate.kind * int) list;
  logic_depth : int;
  max_fanout : int;
  avg_fanin : float;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
