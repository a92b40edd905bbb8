(** The differential fuzzing oracle: one netlist through the whole stack.

    [run config nl] pushes a valid netlist through every layer the tool
    chain trusts — print/reparse round-trip, a SAT-miter proof that
    {!Minflo_netlist.Transform.to_nand_inv} and
    {!Minflo_netlist.Transform.expand_xor} keep its function, lint,
    delay-model extraction, a full TILOS + D/W sizing run per configured
    solver with its seed, accepted steps and result fed to the run
    auditor of [minflo audit-run] as the run produces them
    ({!Minflo_lint.Trace.run}, fingerprinted [check/<rule>/<solver>]),
    the cross-solver differential of
    {!Minflo_runner.Differential.compare} between the first engine leg and
    each other one (bit for bit between exact rungs, [met] only against
    Bellman-Ford), and an LP-level three-solver differential (network simplex /
    SSP / cost scaling) on the D-phase displacement problem with an
    independent {!Minflo_lint.Audit} of each certificate — and reports
    every anomaly as a fingerprinted failure.

    The oracle never raises and is {b bit-deterministic}: it is a pure
    function of [(config, netlist)]. All engine budgets are expressed in
    iterations and pivots — never wall-clock seconds — which is what makes
    [minflo replay] exact. An unmet delay target is {e not} a failure
    (tight specs are legitimately infeasible); only structural anomalies
    (crashes, typed diagnostics, audit findings, solver
    disagreement, fired fault sites) are.

    Fault injection: arming [fault_site] (any member of
    {!Minflo_robust.Fault.all_points}) makes the oracle plant the same
    fault the CLI's [--inject-fault] does — [Fail] at the engine sites,
    certificate corruption at the [audit.*] sites — and flag the site as a
    [fault-injected] failure when it actually fired. The sizing engine
    deliberately {e recovers} from injected phase failures (trust-region
    retry), so detection keys on {!Minflo_robust.Fault.fired}, not on the
    run's outcome. *)

type config = {
  target_factor : float;    (** delay target as a fraction of Dmin. *)
  dw_iterations : int;      (** D/W pass cap per engine leg. *)
  budget_iterations : int;  (** run-budget iteration ceiling (TILOS + D/W). *)
  budget_pivots : int;      (** run-budget pivot ceiling per engine leg. *)
  solvers : Minflo_sizing.Dphase.solver list;  (** engine legs to run. *)
  differential : bool;      (** enable the LP-level 3-solver stage. *)
  fault_site : string option;
  fault_seed : int;
}

val default_config : config
(** factor 0.6, 12 D/W passes, 4000 iterations, 2,000,000 pivots,
    legs [`Simplex] and [`Ssp], differential on, no fault. *)

type failure = {
  fingerprint : Fingerprint.t;
  info : string;  (** human-readable one-liner; not part of the identity. *)
}

(** Plain data (Marshal-safe across the supervisor's process boundary). *)
type outcome = {
  failures : failure list;  (** in detection order; empty = clean. *)
  gates : int;
  met : bool;               (** first engine leg met the target. *)
  area : float;             (** first engine leg's final area. *)
}

val fingerprints : outcome -> Fingerprint.t list
(** Deduplicated, in first-detection order. *)

val run : config -> Minflo_netlist.Netlist.t -> outcome
