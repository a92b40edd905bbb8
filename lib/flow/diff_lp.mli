(** Linear programs over difference constraints, solved by min-cost-flow
    duality.

    The D-phase optimization of the paper (Eq. 10) has the shape

    {v maximize   sum_v objective(v) * pi(v)
      subject to  pi(u) - pi(v) <= w(u, v)         for each constraint v}

    which is precisely the LP dual of a min-cost flow: each constraint
    becomes an arc [u -> v] with cost [w]; each variable becomes a node with
    supply [objective(v)]. Solving the flow with {!Network_simplex} yields
    optimal node potentials — the optimal [pi] of this LP.

    Variables are created with {!var}; all weights are integers (the caller
    integerizes real-valued slacks by scaling, as in the paper). *)

type t

type var = int

val create : ?vars_hint:int -> ?cons_hint:int -> unit -> t
(** The hints pre-size the flat constraint and objective arrays (which
    double when outgrown) — the D-phase rebuilds this LP every refinement
    iteration for a network whose shape it already knows, so sizing up
    front keeps per-iteration allocation at O(problem) with no growth
    doublings. *)

val var : t -> var
(** A fresh variable, initially with objective coefficient 0. *)

val add_le : t -> var -> var -> int -> unit
(** [add_le lp x y w] adds the constraint [x - y <= w]. *)

val add_objective : t -> var -> int -> unit
(** [add_objective lp x c] adds [c * x] to the maximization objective
    (cumulative). *)

val to_problem : t -> Mcf.problem
(** The dual min-cost-flow problem: one node per variable, one arc [x -> y]
    with cost [w] (and unbounded capacity) per constraint [x - y <= w], and
    supplies from the objective coefficients. Any MCF solver's optimal node
    potentials on this problem are an optimal LP assignment — this is what
    [minflo audit-cert] feeds the certificate auditor. *)

type outcome =
  | Solution of { values : int array; objective : int }
      (** Optimal variable assignment (one value per variable, in creation
          order) and the optimal objective value. With the [`Bellman_ford]
          solver the assignment is feasible but not necessarily optimal. *)
  | Infeasible_lp
      (** The constraints contain a negative cycle. *)
  | Unbounded_lp
      (** The objective can grow without bound (the dual flow problem is
          infeasible). *)
  | Aborted_lp
      (** A run budget ({!Minflo_robust.Budget}) was exhausted mid-solve. *)

type warm
(** Reusable warm-start state covering both exact solvers (each keeps its
    own: a spanning-tree basis for [`Simplex], Johnson potentials for
    [`Ssp]). Never share one [warm] across concurrently running solves. *)

val make_warm : unit -> warm
(** Fresh warm state; the first solve through it is a cold start. *)

val solve :
  ?solver:[ `Simplex | `Ssp | `Bellman_ford ] ->
  ?budget:Minflo_robust.Budget.t ->
  ?warm:warm ->
  ?canonical:bool ->
  ?on_solution:(Mcf.problem -> Mcf.solution -> unit) ->
  t ->
  outcome
(** [`Simplex] (default) and [`Ssp] solve the dual flow problem exactly.
    [`Bellman_ford] skips the flow solve and returns a merely {e feasible}
    assignment by shortest-path repair over the reversed constraint graph —
    the last rung of the D-phase solver chain. [budget] is
    threaded into the flow solver's pivot loop.

    [warm] lets consecutive solves over the same constraint-graph shape
    reuse solver state (see {!Network_simplex.solve_warm},
    {!Ssp.solve_warm}); ignored by [`Bellman_ford].

    [canonical] replaces the optimal potentials with
    {!Mcf.canonical_potentials} before anything observes them, so the
    returned assignment is independent of solver and starting basis —
    required when warm-started runs must reproduce cold runs bit-for-bit.

    [on_solution] observes (and may perturb, for fault injection) the flow
    solution — after canonicalization, so perturbations land on the final
    values — before it is mapped back to LP values; it is not called by
    [`Bellman_ford]. *)

val check_assignment : t -> int array -> (int, string) result
(** Verifies all constraints under the assignment; on success returns the
    objective value. The D-phase's divergence detector. *)
