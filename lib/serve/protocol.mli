(** The serve wire protocol: newline-delimited JSON requests/responses.

    Every request is one JSON object on one line with an ["op"] field;
    every response is one JSON object on one line with an ["ok"] bool.
    Failures carry a typed {!Minflo_robust.Diag} error: a stable ["code"],
    a human ["message"], and the structured ["error"] object — so clients
    can branch on [overloaded] vs [draining] vs [lint] without parsing
    prose. *)

type submit = {
  circuit : string;       (** suite name or path, as in {!Minflo_runner.Job}. *)
  factor : float;         (** delay target as a fraction of Dmin. *)
  solver : Minflo_sizing.Dphase.solver;
  max_seconds : float option;    (** per-request run budget: wall clock. *)
  max_iterations : int option;   (** per-request run budget: D/W passes. *)
  max_pivots : int option;       (** per-request run budget: flow pivots. *)
  sleep_seconds : float;
      (** artificial pre-solve latency (load testing; default 0). *)
}

type request =
  | Submit of submit
  | Status of string          (** one job's lifecycle state. *)
  | Result of { id : string; wait : bool }
      (** final result; [wait] parks the connection until terminal. *)
  | Cancel of string
  | Stats                     (** queue depth, perf counters, job counts. *)
  | Health                    (** liveness/readiness probe. *)
  | Drain
      (** stop admitting, finish in-flight work, seal the journal, exit. *)

val job_of : submit -> Minflo_runner.Job.t
(** The sizing job a submission asks for: its circuit, factor and solver. *)

val job_key : submit -> string
(** The job's identity — {!Minflo_runner.Job.id} plus a suffix for any
    custom budget or sleep. Submitting the same key twice is idempotent:
    the daemon answers the second from its result cache. *)

val submit_fields : submit -> (string * Minflo_util.Json.t) list
(** The one spelling of a submission: {!Minflo_runner.Job.fields}, then
    each budget that is set and a positive [sleep_seconds]. The wire
    request is these fields after [{"op": "submit"}]; the daemon's
    [serve-accepted] journal line carries the same fields. *)

val submit_of_json : Minflo_util.Json.t -> (submit, string) result
(** Reads {!submit_fields} back, from a request or a [serve-accepted]
    line (other members are ignored). A missing [solver] means [auto];
    a budget that is not positive is dropped. [Error] names the first bad
    field. *)

val request_to_json : request -> Minflo_util.Json.t
val request_of_json : Minflo_util.Json.t -> (request, string) result

val ok : (string * Minflo_util.Json.t) list -> Minflo_util.Json.t
(** [{"ok": true, ...fields}]. *)

val error_response :
  ?fields:(string * Minflo_util.Json.t) list ->
  Minflo_robust.Diag.error ->
  Minflo_util.Json.t
(** [{"ok": false, "code": ..., "message": ..., "error": {...}}]. *)

val bad_request : string -> Minflo_util.Json.t
(** Protocol-level failure (unparsable line, unknown op): code
    ["bad-request"]. *)
