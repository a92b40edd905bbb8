(** MINFLOTRANSIT: the complete iterative-relaxation sizing tool
    (Section 2.4).

    1. Seed with a TILOS solution meeting the delay target.
    2. Alternate D-phase (redistribute delay budgets by min-cost flow) and
       W-phase (minimum sizes for those budgets) — each iteration is
       feasible and the area is non-increasing.
    3. Stop when the area improvement becomes negligible.

    The trust region [eta] bounds each D-phase's delay changes (Theorem 3's
    small-step condition); when an iteration fails to improve, [eta]
    shrinks geometrically before giving up.

    {b Resilience.} The driver is hardened through [minflo_robust]: run
    budgets ({!options.limits}) bound wall clock, D/W iterations and flow
    pivots — on exhaustion the best feasible sizing so far is returned,
    flagged, never an exception; each pass is one {!Dphase.solve} call,
    which under the [`Auto] solver degrades simplex → SSP → Bellman-Ford
    feasibility repair on retryable failures; oscillating rejected
    candidates terminate the run with a typed reason; and optional fault
    injection / invariant recording make every one of these paths
    testable. *)

type options = {
  max_iterations : int;  (** hard cap (default 100; paper: "a few tens"). *)
  solver : Dphase.solver;
      (** the D-phase solver chain {!Dphase.solve} runs each pass: [`Auto]
          = simplex → ssp → bellman-ford; a concrete solver pins a 1-rung
          chain (default [`Simplex]). *)
  tilos_bump : float;
  limits : Minflo_robust.Budget.limits;
      (** run budget for the whole optimization (default {!Minflo_robust.Budget.no_limits}). *)
  warm_start : bool;
      (** reuse flow-solver state (spanning-tree basis for the simplex,
          Johnson potentials for SSP) across D-phase solves, so iteration
          [k+1] starts from iteration [k]'s optimal basis instead of the
          all-artificial one. Implies [canonical_duals], which is what makes
          the warm trajectory — every iterate, every area, the final sizing
          — bit-identical to the cold one (verified by the test-suite and
          the fuzz oracle). Default [true]. Warm state is in-memory only and
          not part of a {!snapshot}: a resumed run's first D-phase is a cold
          solve, and it lands on the same iterate as the uninterrupted warm
          run because the canonical duals are unique. *)
  canonical_duals : bool;
      (** make every D-phase step independent of solver/basis by
          canonicalizing the LP duals ({!Minflo_flow.Mcf.canonical_potentials});
          forced on by [warm_start]. Default [true]. *)
}

val default_options : options

val eta0 : float
(** The initial trust region (0.5). It shrinks by half on every pass that
    stalls, and the run stops once it falls below 1e-3. *)

(** One accepted D/W pass as recorded in a proof-carrying trace
    ({!Minflo_lint.Trace}): every claim the engine makes about the step —
    the accepted sizing, its area and critical path, the D-phase delay
    budgets the W-phase met — together with the min-cost-flow certificate
    that justified the displacement. [step_certificate] is [None] exactly
    when the step came from the Bellman-Ford feasibility rung, which
    produces no flow solution. Delivered through the [?on_step] hook; a
    [step] carries enough to re-verify the pass from scratch. *)
type step = {
  step_iter : int;
  step_solver : string;
  step_eta : float;            (** trust region the D-phase ran with. *)
  step_area : float;           (** claimed area of [step_sizes]. *)
  step_cp : float;             (** claimed critical path of [step_sizes]. *)
  step_predicted : float;      (** D-phase first-order predicted gain. *)
  step_sizes : float array;
  step_budgets : float array;  (** D-phase budgets; the W-phase fixpoint
                                   claim is [delay <= budget] per vertex. *)
  step_certificate : Dphase.certificate option;
}

type stop_reason =
  | Stop_converged        (** trust region exhausted / no further gain. *)
  | Stop_max_iterations
  | Stop_budget of Minflo_robust.Diag.error
      (** a run budget tripped; carries the typed [Budget_exhausted]. *)
  | Stop_oscillation of { area : float; repeats : int }
      (** rejected candidates cycled on the same area: 3 in a row whose
          areas agree within a relative 1e-9. *)

(** {1 Checkpointable loop state}

    A {!snapshot} is the complete state of the D/W refinement loop at the
    bottom of one pass: sizes, best area, trust region, iteration counter
    and the oscillation detector — the loop keeps no other state. Because
    both phases are deterministic functions of that state, restarting from
    a snapshot (via the [?resume] argument of {!refine_from}) replays the remaining passes exactly — the
    final sizing is bit-identical to the uninterrupted run. The batch
    runner ([Minflo_runner.Checkpoint]) serializes snapshots to disk after
    every pass, which is what makes [--resume] after a crash, SIGKILL or
    budget trip lossless. *)
type snapshot = {
  snap_iter : int;              (** accepted-iteration counter. *)
  snap_sizes : float array;     (** current (best) sizing. *)
  snap_area : float;            (** area of [snap_sizes]. *)
  snap_eta : float;             (** current trust region. *)
  snap_osc_area : float;        (** oscillation detector: last rejected area. *)
  snap_osc_repeats : int;       (** oscillation detector: repeat count. *)
  snap_solver : string option;  (** rung of the last accepted D-phase. *)
}

val stop_reason_to_string : stop_reason -> string

type result = {
  sizes : float array;
  area : float;
  cp : float;
  met : bool;
  iterations : int;              (** accepted passes. *)
  tilos : Tilos.result;          (** the seed solution. *)
  area_saving_pct : float;       (** area saving over the TILOS seed, %. *)
  stop : stop_reason;
  solver_used : string option;
      (** rung of the most recent accepted D-phase ([None] if none). *)
  budget_exhausted : bool;
      (** the run ended on (or after tripping) a run budget; [sizes] is the
          best feasible solution found before that. *)
}

val optimize :
  ?options:options ->
  ?fault:Minflo_robust.Fault.t ->
  ?log:Minflo_robust.Diag.log ->
  ?on_iteration:(snapshot -> unit) ->
  ?on_step:(step -> unit) ->
  Minflo_tech.Delay_model.t ->
  target:float ->
  result
(** Runs TILOS then the D/W iteration. [met = false] when even TILOS cannot
    reach the target (the returned sizes are then the TILOS attempt). The
    run budget covers TILOS bumps and the refinement together. [fault]
    plans fire at the instrumented sites and [log] collects a
    severity-tagged event trail. A run is verified by feeding its records
    to [Minflo_lint.Trace.Auditor]: after it ends, from the steps [on_step]
    delivered ([Minflo_lint.Trace.check_run], [--check] in the CLI), or as
    each step is accepted, as [minflo bench] does. *)

val unmet_seed :
  budget:Minflo_robust.Budget.t -> Tilos.result -> result
(** What {!optimize} returns when the TILOS seed misses the target: the
    seed, unrefined, with the budget's stop reason. *)

val refine_from :
  ?options:options ->
  ?fault:Minflo_robust.Fault.t ->
  ?log:Minflo_robust.Diag.log ->
  ?on_iteration:(snapshot -> unit) ->
  ?on_step:(step -> unit) ->
  ?resume:snapshot ->
  ?budget:Minflo_robust.Budget.t ->
  Minflo_tech.Delay_model.t ->
  target:float ->
  init:float array ->
  tilos:Tilos.result ->
  result
(** The D/W iteration from a caller-supplied feasible sizing [init]; the
    given TILOS result is the baseline that [area_saving_pct] is measured
    against.

    [budget] is the run's meter (default: a fresh
    [Budget.start options.limits]; use {!Minflo_robust.Budget.resume} to
    restore checkpointed meters). [on_iteration] is called with a
    {!snapshot} at the bottom of every pass that will be followed by
    another; [resume] restarts the loop from such a snapshot instead of
    [init] (which is then ignored). Resuming from any snapshot of an
    interrupted run and letting it converge produces the same final
    sizing, bit for bit, as the uninterrupted run.

    [on_step] is the proof-carrying-trace hook: called once per {e
    accepted} iteration with the full {!step} evidence. Certificate capture
    in the D-phase is only enabled while a hook is installed, so runs
    without one pay nothing. [log] is the engine's only diagnostics
    channel: without one, the run reports nothing beyond its result. *)
