(** The D-phase: delay-budget redistribution by min-cost flow (Eq. 10).

    Sizes are held fixed. Slack is materialized as FSDUs by ALAP delay
    balancing (by Theorem 1 any balanced configuration has the same optimum),
    then redistributed by an FSDU displacement [r] chosen to maximize
    [sum_i C_i (r(Dmy(i)) - r(i))] — the first-order area decrease — subject
    to per-vertex bounds on the delay change and non-negativity of every
    displaced FSDU. The LP is a difference-constraint system, i.e. the dual
    of a min-cost network flow; it is integerized by scaling (the paper's
    power-of-10 trick) and solved with the network simplex, whose optimal
    node potentials are exactly [r].

    Which solver runs, in what order and what a failure does is decided
    here alone: {!solve} builds the LP once per D/W pass and runs the
    solver chain on it. *)

type solver = [ `Auto | `Simplex | `Ssp | `Bellman_ford ]
(** The D-phase solver choice of the engine, batch jobs, the serve
    protocol and the CLI. [`Simplex] and [`Ssp] are exact; [`Bellman_ford]
    is a feasibility repair by Bellman-Ford shortest paths over the
    reversed constraint graph, trading optimality of the step for
    guaranteed progress; [`Auto] is the chain
    of all three. *)

val solver_name : solver -> string
(** ["auto"], ["simplex"], ["ssp"], ["bellman-ford"]; for a rung, also the
    suffix of its fault site ["dphase.<name>"] and the [step_solver] a
    trace records. *)

val solver_of_string : string -> solver option
(** The inverse of {!solver_name}, also accepting ["bf"] for
    ["bellman-ford"]. *)

type options = {
  eta : float;
      (** trust region: [MAXdD(i) = eta * delay(i)], [MINdD(i)] symmetric
          but floored above the intrinsic delay (Theorem 3's small-step
          requirement). *)
  scale : float;  (** delay integerization factor (units per time unit). *)
  solver : solver;
  canonical_duals : bool;
      (** replace the solver's optimal duals with
          {!Minflo_flow.Mcf.canonical_potentials} so the step taken is
          independent of solver and starting basis. Off by default (the
          historical behavior); forced on by the engine whenever warm starts
          are enabled, since a warm solve may otherwise land on a different
          vertex of the optimal dual face than a cold one. *)
}

val default_options : options

type certificate = {
  problem : Minflo_flow.Mcf.problem;
  solution : Minflo_flow.Mcf.solution;
}
(** The LP-duality evidence behind one D-phase step: the displacement
    min-cost-flow problem and the solution whose potentials became the
    displacement labels. {!Minflo_lint.Audit.check}-able as is; recorded in
    proof-carrying traces and re-verified by [minflo audit-run]. *)

type outcome = {
  budgets : float array;   (** new per-vertex delay budgets. *)
  delta : float array;     (** [dD_i = budgets_i - delays_i]. *)
  objective : float;       (** predicted first-order area decrease. *)
  lp_objective : int;
      (** the exact optimum of the integerized LP — identical across
          solvers even when integer ties make [objective] differ in the
          last float digits. *)
  rung : string;  (** {!solver_name} of the rung that produced the step. *)
  certificate : certificate option;
      (** with [~certify:true], the flow problem and solution the winning
          rung acted on (after canonicalization and any [Perturb] fault);
          [None] otherwise, and always [None] from [`Bellman_ford], which
          never constructs a flow solution. *)
}

type warm
(** Reusable warm-start state of the two exact rungs (a spanning-tree
    basis for [`Simplex], Johnson potentials for [`Ssp]), threaded through
    consecutive {!solve}s whose LPs keep the same shape; see
    {!Minflo_flow.Network_simplex.solve_warm} and
    {!Minflo_flow.Ssp.solve_warm}. Never share one across concurrently
    running solves. *)

val make_warm : unit -> warm
(** Fresh warm state; the first solve through it is a cold start. *)

val budgets_of_potentials :
  ?options:options -> delays:float array -> int array -> float array * float array
(** [(budgets, delta)] read off the displacement LP's potential vector
    (indexed by LP node, as in a {!certificate}'s solution): [delta_i =
    (pot(Dmy i) - pot(i)) / scale] and [budgets_i = delays_i + delta_i].
    {!solve} and the trace auditor both go through it. *)

val displacement_problem :
  ?options:options ->
  Minflo_tech.Delay_model.t ->
  sizes:float array ->
  delays:float array ->
  deadline:float ->
  (Minflo_flow.Mcf.problem, Minflo_robust.Diag.error) result
(** The displacement LP of Eq. 10 as its dual min-cost-flow problem, without
    solving it. This is the real-workload substrate for [minflo audit-cert]:
    solve it with any {!Minflo_flow.Mcf} solver and hand problem + solution
    to the certificate auditor. Fails like {!solve} does on an unsafe
    starting point ([Unsafe_timing]).

    Node [i] is r(i), node [n + i] is Dmy(i) and node [2n] is ground; each
    constraint [x - y <= w] is an uncapacitated arc [x -> y] of cost [w],
    and each node's supply is its objective coefficient. The arcs come per
    vertex the two trust-region arcs, then one arc per edge in edge-id
    order, then the ground arcs (source arc before sink arc) — the order
    the simplex's pivots and every warm basis depend on. *)

val solve :
  ?options:options ->
  ?budget:Minflo_robust.Budget.t ->
  ?warm:warm ->
  ?fault:Minflo_robust.Fault.t ->
  ?log:Minflo_robust.Diag.log ->
  ?certify:bool ->
  Minflo_tech.Delay_model.t ->
  sizes:float array ->
  delays:float array ->
  deadline:float ->
  (outcome, Minflo_robust.Diag.error) result
(** One D-phase: builds the displacement LP once (timing, FSDU balance,
    sensitivity weights, integerization), then runs the rungs of
    [options.solver] on it: one for a pinned solver, simplex → SSP →
    Bellman-Ford for [`Auto]. Only a {!Minflo_robust.Diag.retryable}
    failure moves on to the next rung; each failed rung is logged to [log]
    at [Warning] as ["fallback: rung <name> failed: <error>"].

    Typed failures: [Unsafe_timing] when the circuit misses the deadline
    going in (before any rung runs); [Budget_exhausted] when [budget]
    trips inside the flow solver; [Solver_diverged] when the returned
    duals violate the LP's own constraints (which deterministic solvers
    only do under fault injection); [Internal] for states the theory rules
    out.

    [fault] is consulted once per rung at site ["dphase.<rung>"]: [Fail e]
    fails the rung with [e] without solving, [Perturb mag] corrupts one
    dual value of the flow solution by [mag * scale] units so the
    divergence detector has something real to catch. [certify] (default
    [false]) fills the outcome's [certificate]: the flow and potentials the
    engine acted on, which the trace auditor re-checks from first
    principles. *)
