(** Bellman-Ford shortest paths with negative-cost arcs.

    Used to (a) prime SSP potentials when the network has negative costs and
    (b) decide feasibility of difference-constraint systems (a system
    [pi(u) - pi(v) <= w] is feasible iff the constraint graph has no negative
    cycle, and shortest-path distances give a feasible assignment). *)

type graph = {
  num_nodes : int;
  arc_src : int array;
  arc_dst : int array;
  arc_weight : int array;
}

type result =
  | Distances of int array
      (** Shortest distance from the (virtual multi-)source; unreachable
          nodes hold [max_int / 4]. *)
  | Negative_cycle of int list
      (** Arc indices forming a negative-weight cycle. *)

val run : graph -> sources:int list -> result
(** Distances from the given sources (each at distance 0). With
    [sources = all nodes] this decides difference-constraint feasibility. *)

val run_all : graph -> result
(** [run g ~sources:(all nodes)]. *)
