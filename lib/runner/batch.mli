(** The crash-safe batch runner: checkpointed, supervised, differential.

    [run] executes a grid of sizing {!Job.t}s through the {!Supervisor}
    (per-job process isolation, hard timeouts, retry with backoff,
    quarantine), journaling every lifecycle event to
    [<checkpoint-dir>/journal.jsonl] as it happens. With a checkpoint
    directory configured, each job writes a {!Checkpoint} after every D/W
    pass; with [resume] set, a re-run of the same grid

    - skips jobs the journal already records as complete ([job-ok]), and
    - restarts interrupted jobs from their last checkpoint — validated
      against the circuit hash, target and solver — with their budget
      meters restored, producing the same final sizing, bit for bit, as
      an uninterrupted run.

    A job that trips its run budget keeps its checkpoint and fails with
    the typed [Budget_exhausted]: re-running with [resume] and a larger
    budget continues it instead of starting over.

    With [differential] set, every job whose primary leg succeeds is
    re-run under an independent solver ({!Differential.counterpart}); any
    disagreement under {!Differential.compare} (bit for bit on exact
    rungs, [met] only against Bellman-Ford) is reported as a typed
    [Differential_mismatch] and journaled. *)

type config = {
  checkpoint_dir : string option;
      (** holds per-job [.ckpt] files and [journal.jsonl]; [None] disables
          checkpointing, journaling and resume. *)
  resume : bool;
  supervise : Supervisor.config;
  differential : bool;
  engine : Minflo_sizing.Minflotransit.options;
      (** base engine options; [solver] is overridden per job. *)
  fault_seed : int option;  (** recorded in checkpoints for bookkeeping. *)
  make_fault : Job.t -> Minflo_robust.Fault.t option;
      (** builds the fault plan for one attempt of one job, called inside
          the child so each attempt gets fresh fire counts (and may target
          specific jobs). Default: no plan. *)
  preflight : bool;
      (** run the {!Admission} gate before forking anything (default
          [true]). A parse error, an Error-severity finding or a target
          below the circuit's static floor (MF201) is structural — it
          would fail identically on every attempt — so the job is
          quarantined immediately: zero attempts, no retries, no backoff,
          journaled as [job-lint-quarantined] or
          [job-bounds-quarantined]. *)
}

val default_config : config

type job_report = {
  job : Job.t;
  outcome : (Job.outcome, Minflo_robust.Diag.error) result option;
      (** [None]: skipped — the journal already records this job complete. *)
  attempts : int;
  quarantined : bool;
  differential : (unit, Minflo_robust.Diag.error) result option;
      (** [None] unless differential mode ran a secondary leg for this job. *)
}

type summary = {
  reports : job_report list;  (** in the submitted job order. *)
  ok : int;
  failed : int;
  skipped : int;
  mismatches : int;  (** differential verdicts that are [Error _]. *)
}

val run_job :
  ?emit:Supervisor.emit ->
  ?exhausted_ok:bool ->
  config ->
  Job.t ->
  (Job.outcome, Minflo_robust.Diag.error) result
(** One job, in the calling process: load the circuit, seed with TILOS,
    refine with checkpointing after every pass (resuming from a validated
    checkpoint when configured). [emit] (from the supervisor) receives a
    [job-checkpoint] event per D/W pass and one final [job-perf] event
    carrying the {!Minflo_robust.Perf} counters the job spent.
    [exhausted_ok] (default [false]) turns a budget trip on a
    target-meeting sizing into a success carrying the best feasible
    solution (its [stop] field records the trip; the checkpoint is kept so
    a resubmission with a larger budget resumes) — the serve daemon's
    per-request budget semantics. Exposed for tests; {!run} is the
    supervised entry point. *)

val run :
  ?config:config -> Job.t list -> (summary, Minflo_robust.Diag.error) result
(** [Error _] only for batch-level failures (unusable checkpoint directory
    or journal); per-job failures are reported inside the summary. *)
