(** Cross-solver differential verification of sizing jobs.

    The flow substrate ships three structurally independent MCF solvers;
    the paper's evaluation only ever exercises one at a time. Differential
    mode runs a job twice — once with its own solver, once with an
    independent counterpart — and compares the final areas: agreement
    within tolerance is strong evidence neither solver silently corrupted
    the run, and disagreement beyond it becomes a typed
    {!Minflo_robust.Diag.Differential_mismatch} diagnostic with a stable
    code that tests, scripts and the journal can key on.

    The comparison is on {e final area}, not intermediate LP objectives:
    exact solvers may pick different optimal bases (degenerate ties), so
    iterates can differ while the converged areas agree tightly. *)

val counterpart : Minflo_sizing.Dphase.solver -> Minflo_sizing.Dphase.solver
(** The independent solver to cross-check against: [`Ssp] for runs whose
    primary path is the network simplex ([`Simplex], [`Auto]) and for
    [`Bellman_ford]; [`Simplex] for [`Ssp]. *)

val default_tolerance : float
(** Relative area tolerance (0.02): generous enough for tie-breaking
    divergence between exact solvers, tight enough to flag a corrupted
    run (a poisoned solver typically degrades the area by far more). *)

val compare_outcomes :
  tolerance:float ->
  job_id:string ->
  a:Job.outcome ->
  b:Job.outcome ->
  (unit, Minflo_robust.Diag.error) result
(** [Error (Differential_mismatch _)] when the relative area gap exceeds
    [tolerance] or the two legs disagree on whether the target was met. *)
