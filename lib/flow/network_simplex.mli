(** Network simplex solver for minimum-cost flow.

    The primal network simplex method on a strongly feasible spanning tree
    (Cunningham's leaving-arc rule), in the style of
    Goldberg-Grigoriadis-Tarjan [9] / AMO ch. 11. The entering arc comes
    from an altering candidate list (LEMON's rule): each pivot re-prices a
    short list of arcs found violated before and scans new blocks of arcs
    only when that list runs low. A pivot changes reduced costs only on the
    arcs across the cut around the subtree it re-hangs, so after each such
    pivot the walk that shifts one side's potentials re-prices the incident
    arcs of that side's first nodes, at most one block of them, and adds
    the violated ones to the list, in thread order. Both entry points price
    this way.
    Integer costs and capacities; artificial big-M arcs provide the
    initial basis, so the network need not be connected.

    This is the production solver used by the D-phase. Complexity is
    polynomial in practice (near-linear on the shallow, sparse constraint
    graphs produced by circuit DAGs). *)

val solve : ?budget:Minflo_robust.Budget.t -> Mcf.problem -> Mcf.solution
(** Returns an optimal flow and optimal node potentials. The potentials are
    normalized so that the internal root has potential 0; they form a
    feasible, complementary-slack dual certificate (see
    {!Mcf.check_optimality}). [Infeasible] if supplies cannot be routed,
    [Unbounded] if a negative-cost cycle with unbounded capacity exists.
    Every pivot ticks [budget]; on exhaustion the solve stops immediately
    with status [Aborted]. *)

(** {1 Warm starts}

    The engine's D-phase solves a sequence of problems over one fixed
    network shape — only costs, capacities and supplies move between
    iterations. A {!state} retains the optimal spanning-tree basis of the
    previous solve; the next solve re-seeds it with the new data, repairs it
    back to strong feasibility (cut-and-reattach: a cut subtree re-hangs
    on a real arc that can carry its flow, or else on its node's
    artificial arc; see DESIGN §8), and resumes pivoting from there instead of
    climbing out of the all-artificial basis again. Certificates are
    unchanged in kind: the returned potentials are still feasible and
    complementary-slack, they may just sit on a different vertex of the
    optimal dual face than a cold solve's (use {!Mcf.canonical_potentials}
    when bit-identical duals matter). *)

type state
(** Reusable solver state. Between solves it holds the basis: arc
    endpoints (with the artificial arcs' orientation), arc states and the
    tree's parent links, 3(m+n) + 2(n+1) words for [m] arcs and [n]
    nodes, plus the network shape's node -> incident-arc index,
    2(m+n) + n + 2 words. A warm solve allocates its other working arrays
    afresh and re-derives flows and potentials from that basis. Never
    shared across concurrently running solves. *)

val make_state : unit -> state
(** A fresh, empty state: the first solve through it is a cold start. *)

val solve_warm :
  ?budget:Minflo_robust.Budget.t -> state -> Mcf.problem -> Mcf.solution
(** Like {!solve}, but reuses the basis in [state] when the network shape
    (node count, arc count, arc endpoints) matches the previous call;
    otherwise falls back to a cold start and repopulates the state. The
    state is kept after [Optimal] and [Aborted] outcomes and dropped after
    [Infeasible] / [Unbounded]. Warm and cold solves return the same
    optimal objective; the flow/potential vectors may differ within the
    optimal face when the optimum is degenerate. A cold start here does
    not climb out of the all-artificial basis: it starts from a strongly
    feasible crash basis that already routes each supply node's flow to
    a matching demand node over a real arc (DESIGN §8). *)
