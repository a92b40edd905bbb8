(** The admission gate shared by [minflo batch] and [minflo serve].

    Some jobs fail identically on every attempt, under every solver: their
    circuit does not parse or carries an Error-severity lint finding, or
    their delay target lies below the circuit's static interval-bound
    floor (MF201, {!Minflo_lint.Bounds}). Both front doors turn such a job
    away before any worker is forked — zero attempts, a typed error — and
    journal which gate fired: batch as [job-lint-quarantined] /
    [job-bounds-quarantined], serve as [job-lint-quarantined] /
    [job-infeasible-quarantined].

    Verdicts are memoized per circuit spec: one parse and lint, one
    {!Job.recipe} and one bounds sweep per distinct circuit, then a float
    compare per job. *)

type gate = [ `Lint | `Bounds ]

type t

val create : unit -> t

val check : t -> Job.t -> (gate * Minflo_robust.Diag.error) option
(** [None] admits the job. Otherwise the gate that fired: [`Lint] for a
    parse error or the first Error-severity finding (checked first), then
    [`Bounds] for an infeasible target. A circuit that lints clean but
    fails to elaborate is admitted: its run reports the load error. *)

val recipe : t -> string -> (Job.recipe, Minflo_robust.Diag.error) result
(** The memoized {!Job.recipe} of a circuit spec, loading it on first
    need; the serve daemon's model prewarm. *)
