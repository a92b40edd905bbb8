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

    One {!Auditor} checks every run, fed a file's lines by [minflo
    audit-run], a finished run's records by [size --check] and the fuzz
    oracle, and each step as it is accepted by [minflo bench]. It trusts
    nothing but the circuit model: every claim is recomputed from the
    recorded sizes, every LP is rebuilt from scratch at the preceding
    sizing via {!Minflo_sizing.Dphase.displacement_problem}, and every
    flow certificate goes through the first-principles {!Audit.check}. A
    single tampered field — one arc cost, one flow value, one claimed
    area — surfaces as a typed finding: MF210 structural damage, MF211
    claim mismatches, MF212 budget violations, MF213 non-monotone
    progress, MF214 final-record infeasibility, MF215 LP-rebuild
    mismatches, and MF101–MF105 for invalid flow certificates.

    Capacities equal to {!Minflo_flow.Mcf.infinite_capacity} are encoded
    as [-1] on the wire: the sentinel survives the float round trip that
    [max_int / 8] would not. *)

(** {1 Records}

    The one builder of each record kind, for the file and the auditor
    alike. A non-finite float is built as [Null], as it prints, so
    [Json.parse (Json.to_string r)] is [r]. *)

val header :
  Minflo_tech.Delay_model.t -> circuit:string -> target:float -> Minflo_util.Json.t

val tilos_record : Minflo_sizing.Tilos.result -> Minflo_util.Json.t
val step_record : Minflo_sizing.Minflotransit.step -> Minflo_util.Json.t
val final_record : Minflo_sizing.Minflotransit.result -> Minflo_util.Json.t

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

(** A fold over a run's records in file order: header, [tilos], steps,
    [final]. It keeps the last waypoint's sizes, delays and area and the step
    count, so it holds one sizing and one LP at a time. Its STA sweeps
    and LP rebuilds tick {!Minflo_robust.Perf} counters. *)
module Auditor : sig
  type t

  val create : Minflo_tech.Delay_model.t -> target:float -> t
  (** A header targeting anything but [target] is MF210: auditing someone
      else's run proves nothing. *)

  val feed : t -> Minflo_util.Json.t -> unit

  val finish : t -> Finding.t list
  (** Every finding, by rule in order of first appearance, flow
      certificates last. [[]] means a monotone sequence of feasible
      sizings with valid flow certificates, ending in a sizing that
      independently meets (or honestly misses) the target. *)
end

val audit : Minflo_tech.Delay_model.t -> target:float -> string -> Finding.t list
(** [audit model ~target content] feeds each line of a trace (the raw
    file content) to an {!Auditor} and returns its findings. Lines are
    numbered as in the file, blank ones included; a line that is not JSON
    is MF210. *)

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
(** [check_run model ~target ~steps result] feeds the {!Auditor} the
    records {!write_run} would write for a finished run, as built, so it
    finds what [--trace] followed by [minflo audit-run] finds. This is
    [minflo size --check]. [steps] must carry certificates (the engine's
    [?on_step] hook turns certificate capture on), except Bellman-Ford
    steps, which have none by design. *)
