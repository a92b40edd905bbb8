(** The deterministic benchmark suite behind [minflo bench].

    Each experiment runs the full engine (TILOS seed + D/W refinement) on
    one circuit in one mode — [cold] (fresh flow solve per D-phase) or
    [warm] (basis reuse across D-phases) — and records the final area, the
    {!Minflo_robust.Perf} counters spent, and the number of findings the
    run auditor of [minflo audit-run] ({!Minflo_lint.Trace.Auditor}),
    fed each record as the engine emits it, raised against the run (0 on a
    healthy engine). The audit's own counter ticks and time are left out
    of [counters] and [wall_seconds]. Counters and audit counts are pure
    functions of the inputs, so a checked-in baseline
    ([BENCH_pr38.json]) can be compared {e exactly} on every CI run; wall
    time is recorded for human eyes and never compared.

    Two grids exist: the ISCAS-85 grid ({!suite}, cold + warm legs, the
    trajectory-stability tracker since [BENCH_pr5.json]) and the synthetic
    scaling grid ({!scale_suite}, warm legs on 5k-50k-vertex generated
    circuits — ripple adders, array multipliers, a layered random DAG). *)

type experiment = {
  circuit : string;
  mode : string;  (** ["cold"] or ["warm"]. *)
  target_factor : float;
  gates : int;  (** delay-model vertex count. *)
  area : float;
  met : bool;
  iterations : int;
  audit_findings : int;
      (** findings of {!Minflo_lint.Trace.Auditor} over the run's
          records: MF210–MF215 on the seed, every accepted step and the
          final result, MF101–MF105 on each step's flow certificate. 0
          means the run audited clean. *)
  counters : Minflo_robust.Perf.counters;
  wall_seconds : float;  (** volatile; excluded from {!check}. *)
}

val suite : ?quick:bool -> unit -> experiment list
(** Runs the ISCAS benchmark grid: cold and warm legs for each circuit —
    [c432, c880] when [quick] (the CI smoke set), plus [c1908, c6288] in
    the full run. Order is deterministic. *)

val scale_suite : ?quick:bool -> unit -> experiment list
(** Runs the synthetic scaling grid (warm legs only): [rca1024, mul32]
    when [quick] (the CI scale-smoke set), plus [rca4096, mul64, dag50k]
    in the full run. All generators are deterministic, so every non-wall
    field is baseline-exact. *)

val render : experiment list -> string
(** The full baseline document, one JSON object: the
    ["minflo-bench/2"] schema header and one experiment per line (so
    diffs stay line-oriented). [area] is written to nine decimals and
    [target_factor] to three — the precision a baseline pins. *)

type baseline
(** A parsed baseline document: its experiments. *)

val load_baseline : string -> (baseline, Minflo_robust.Diag.error) result
(** Read and parse a baseline file. A missing or unreadable file is an
    [Io_error]; one that is not JSON, or has no ["experiments"] list, is
    [Storage_corrupt]. *)

val check : baseline:baseline -> experiment list -> (unit, string list) result
(** [check ~baseline experiments] compares this run against the
    baseline, member-exact in both directions on everything {e except}
    wall time: a member missing on either side is a divergence.
    Experiments are matched by (circuit, mode), so a [--quick] run checks
    cleanly against the full baseline; an experiment with no baseline entry
    is itself a divergence. [Error] carries one human-readable line per
    diverging experiment. *)

val pivot_reduction : experiment list -> circuit:string -> float option
(** Percent reduction in simplex pivots of the warm leg vs the cold leg
    for one circuit; [None] if either leg is missing. *)
