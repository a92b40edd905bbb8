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

    One function, {!run}, produces every trace: it runs the engine and hands
    each record on as the run produces it, to a {!File}, to an {!Auditor}
    ([size --check], the fuzz oracle, [minflo bench]) or to both at once,
    so no consumer holds more than one step. One {!Auditor} checks every
    run, fed a file's lines by [minflo audit-run] and {!run}'s records
    by everything else. It trusts nothing but the circuit model: every
    claim is recomputed from the recorded sizes, every LP is rebuilt from
    scratch at the preceding sizing via
    {!Minflo_sizing.Dphase.displacement_problem}, and every flow
    certificate goes through the first-principles {!Audit.check}. A
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
    alike: {!run} calls them, and so does a test that tampers a step in
    memory. A non-finite float is built as [Null], as it prints, so
    [Json.parse (Json.to_string r)] is [r]. *)

val header :
  Minflo_tech.Delay_model.t -> circuit:string -> target:float -> Minflo_util.Json.t

val tilos_record : Minflo_sizing.Tilos.result -> Minflo_util.Json.t
val step_record : Minflo_sizing.Minflotransit.step -> Minflo_util.Json.t
val final_record : Minflo_sizing.Minflotransit.result -> Minflo_util.Json.t

(** {1 Driving a traced run} *)

val run :
  ?options:Minflo_sizing.Minflotransit.options ->
  ?fault:Minflo_robust.Fault.t ->
  ?log:Minflo_robust.Diag.log ->
  emit:(Minflo_util.Json.t -> unit) ->
  Minflo_tech.Delay_model.t ->
  circuit:string ->
  target:float ->
  Minflo_sizing.Minflotransit.result
(** [run ~emit model ~circuit ~target] is
    {!Minflo_sizing.Minflotransit.optimize} with each of its records passed
    to [emit] as soon as the run produces it: the header before TILOS
    starts, the [tilos] record when the seed is ready (before the first
    D-phase solve), each [step] record when its pass is accepted, and the
    [final] record last, in the order [minflo audit-run] reads a file. The
    hooks turn certificate capture on, so an untraced run calls [optimize]
    directly. [emit]'s time counts against a wall-clock budget. *)

(** A trace file as an [emit] target. Records are written line-at-a-time
    through the instrumented {!Minflo_robust.Io} layer, so an interrupted
    write leaves a valid (truncated) prefix that the auditor reports as
    MF210 rather than garbage, and the [io.*] fault sites apply to every
    record. *)
module File : sig
  type t

  val create : string -> t
  (** Never fails: a failure to create the file is kept like any later
      storage failure, so it fails the [--trace] flag, never the run. *)

  val emit : t -> Minflo_util.Json.t -> unit
  (** One record, one line; skipped after the first storage failure. *)

  val close : t -> (unit, Minflo_robust.Diag.error) result
  (** The first storage failure, which the CLI reports (and exits nonzero
      on) only after printing the run's results. *)
end

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
