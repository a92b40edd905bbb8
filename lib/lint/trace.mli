(** Proof-carrying engine traces and their independent auditor (MF21x).

    A trace is newline-delimited JSON describing one MINFLOTRANSIT run:

    - a [header] record (schema version, circuit name, vertex count,
      delay target, size box);
    - a [tilos] record with the seed sizing and its claimed area/delay;
    - one [step] record per {e accepted} D/W iteration — the accepted
      sizes, the claimed area and critical path, the D-phase delay budgets
      the W-phase reports meeting, and (for the exact solvers) the full
      min-cost-flow certificate: the displacement LP's nodes, arcs and
      supplies plus the flow, potentials and objective the engine acted on;
    - a closing [final] record mirroring the run's result.

    The auditor replays the whole file against nothing but the circuit
    model: every claim is recomputed from the recorded sizes, every LP is
    rebuilt from scratch at the preceding sizing via
    {!Minflo_sizing.Dphase.displacement_problem}, and every flow
    certificate goes through the first-principles {!Audit.check}. A single
    tampered field — one arc cost, one flow value, one claimed area —
    surfaces as a typed finding: MF210 structural damage, MF211 claim
    mismatches, MF212 budget violations, MF213 non-monotone progress,
    MF214 final-record infeasibility, MF215 LP-rebuild mismatches, and
    MF101–MF105 for invalid flow certificates.

    Capacities equal to {!Minflo_flow.Mcf.infinite_capacity} are encoded
    as [-1] on the wire: the sentinel survives the float round trip that
    [max_int / 8] would not. *)

(** {1 Writing} *)

val write_run :
  string ->
  Minflo_tech.Delay_model.t ->
  circuit:string ->
  target:float ->
  steps:Minflo_sizing.Minflotransit.step list ->
  Minflo_sizing.Minflotransit.result ->
  (unit, Minflo_robust.Diag.error) result
(** [write_run path model ~circuit ~target ~steps result] writes a whole
    trace of a finished run to [path]: the header, the [tilos] record of
    [result.tilos], one [step] record per element of [steps] (in run order,
    as the engine's [?on_step] hook delivered them) and the [final] record.

    Records are written line-at-a-time through the instrumented
    {!Minflo_robust.Io} layer, so an interrupted write leaves a valid
    (truncated) prefix that the auditor reports as MF210 rather than
    garbage, and the [io.*] fault sites apply to every record. [Error] is
    the failure to create [path] or the first storage failure of any
    record; once one fails, the rest are skipped. Trace emission fails the
    [--trace] flag, never the sizing run it documents — the CLI reports
    this error (and exits nonzero) only after printing the run's
    results. *)

(** {1 Auditing} *)

val audit : Minflo_tech.Delay_model.t -> target:float -> string -> Finding.t list
(** [audit model ~target content] replays a complete trace (the raw file
    content) and returns every discrepancy. An empty list means the trace
    is machine-checked: the run really did produce a monotone sequence of
    feasible sizings with valid flow certificates, ending in a sizing that
    independently meets (or honestly misses) the target. [target] is the
    deadline the auditor expects; a header targeting anything else is
    rejected as MF210 — auditing someone else's trace proves nothing. *)

val audit_file :
  Minflo_tech.Delay_model.t ->
  target:float ->
  string ->
  (Finding.t list, Minflo_robust.Diag.error) result
(** {!audit} on a file path; an unreadable file is a typed
    {!Minflo_robust.Diag.Io_error}, not an exception. *)

val check_run :
  Minflo_tech.Delay_model.t ->
  target:float ->
  steps:Minflo_sizing.Minflotransit.step list ->
  Minflo_sizing.Minflotransit.result ->
  Finding.t list
(** [check_run model ~target ~steps result] verifies a finished run in
    process: {!audit} on the text {!write_run} would write for it (header,
    seed, [steps], final record). This is [minflo size --check]: exactly
    [--trace] followed by [minflo audit-run], without the file. Only the
    accepted steps are checked; a rejected pass never reaches the result.
    [steps] must carry certificates (the engine's [?on_step] hook turns
    certificate capture on), except Bellman-Ford steps, which have none by
    design. *)
