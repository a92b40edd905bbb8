(** Successive-shortest-paths min-cost flow (cross-check solver).

    Bellman-Ford establishes initial potentials (handling negative arc
    costs); augmentations then run Dijkstra on reduced costs with Johnson
    potentials. Asymptotically [O(U * m log n)] with [U] the number of
    augmentations (at most one per supply node here, as arcs are mostly
    uncapacitated) — slower than {!Network_simplex} but completely
    independent of it, which makes it a strong oracle in property tests. *)

val solve : ?budget:Minflo_robust.Budget.t -> Mcf.problem -> Mcf.solution
(** Each augmentation (and each negative-cycle-cancellation round) ticks
    [budget]; on exhaustion the result has status [Aborted]. *)

val has_unbounded_negative_cycle : Mcf.problem -> bool
(** Whether the network contains a negative-cost cycle whose capacity is
    effectively unbounded (every arc at {!Mcf.infinite_capacity} scale) —
    the condition under which the minimum cost diverges. Shared by the
    solvers that do not detect this natively. *)

(** {1 Warm starts}

    Across solves that keep the network shape, the Johnson potentials of the
    previous optimum usually remain valid for the next problem (the D-phase
    LP has non-negative costs and mostly uncapacitated arcs). A {!state}
    retains them; when an O(m) reduced-cost check confirms validity, the
    next solve skips both the negative-cycle cancellation and the
    Bellman-Ford initialization and goes straight to Dijkstra
    augmentation. *)

type state
(** Reusable solver state. Never shared across concurrently running
    solves. *)

val make_state : unit -> state

val solve_warm :
  ?budget:Minflo_robust.Budget.t -> state -> Mcf.problem -> Mcf.solution
(** Like {!solve}, but seeds the potentials from [state] when the network
    shape matches the previous call and the retained potentials are still
    valid; otherwise falls back to the cold initialization. The state is
    kept after [Optimal] outcomes and dropped otherwise. *)
