(** Dinic's maximum-flow algorithm.

    Not on the critical path of the sizing tool itself, but part of the flow
    substrate: it backs feasibility checks (a transportation instance is
    feasible iff the max flow from a super-source saturates all supplies)
    and gives the test-suite an independent feasibility oracle. *)

type t

val create : num_nodes:int -> t

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Returns an edge id usable with {!flow_on}. A reverse edge of capacity 0
    is added internally. *)

val max_flow : t -> source:int -> sink:int -> int
(** Computes (and returns) the maximum flow value. May be called once. *)

val flow_on : t -> int -> int
(** Flow carried by the given edge after {!max_flow}. *)
