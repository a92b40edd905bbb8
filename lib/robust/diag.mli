(** Structured diagnostics for the whole tool stack.

    Every failure mode a caller might want to react to programmatically is a
    constructor of {!error}; free-text [failwith]/[string] errors are reserved
    for genuine internal bugs ({!Internal}). The sizing engine, the flow
    solvers and the netlist parsers all report through this type, so the CLI
    can map any failure to a stable exit code and a rendered message, and
    tests can assert on the *kind* of failure rather than on message text.

    A {!log} is a severity-tagged event trail the engine threads through a
    run; it is cheap (a vector of records), deterministic, and renderable as
    text for post-mortem analysis. *)

type severity = Debug | Info | Warning | Error

val severity_rank : severity -> int
(** [Debug = 0] … [Error = 3]; total order for filtering. *)

val severity_to_string : severity -> string

type error =
  | Parse_error of { file : string option; line : int; col : int; msg : string }
      (** Malformed [.bench] / [.v] input, with source location
          ([col] is 1-based; 0 when the column is unknown). *)
  | Lint_error of { rule : string; file : string option; line : int; msg : string }
      (** A static-analysis finding of error severity (see
          [Minflo_lint.Rule] for the stable [rule] ids, ["MF001"]…). The
          batch pre-flight gate quarantines circuits with this error
          before forking a job. *)
  | Unknown_circuit of { name : string; known : string list }
      (** A circuit spec that is neither a file nor a suite entry. *)
  | Io_error of { file : string; msg : string }
      (** A file could not be read or written for an OS-level reason other
          than a full disk (EIO, EACCES, a vanished path, a short read, a
          torn rename). Durable-state writers ({!Io}) report this instead of
          letting [Unix.Unix_error]/[Sys_error] escape. *)
  | Disk_full of { file : string }
      (** A write to [file] failed with ENOSPC (or the injected
          [io.enospc] fault). Non-transient: batch quarantines the job,
          serve enters read-only degraded mode. *)
  | Storage_corrupt of { file : string; detail : string }
      (** Recovery state on disk is inconsistent with what the journal
          promised: a result recorded as done cannot be reconstructed, a
          stale temp file shadowed real state, or a recovered record fails
          re-validation. Distinct from {!Checkpoint_invalid} (a single
          unusable checkpoint file): this one means the *store* broke an
          invariant. *)
  | Infeasible_budget of {
      vertex : int;
      label : string;
      budget : float;
      intrinsic : float;
    }
      (** A delay budget at or below the intrinsic delay [a_ii]: no size can
          achieve it (the W-phase failure mode). *)
  | Unsafe_timing of { cp : float; deadline : float }
      (** The circuit misses the deadline before optimization even starts. *)
  | Solver_diverged of { solver : string; iters : int }
      (** A flow solver failed to reach optimality (stalled, cycled, or was
          defeated by degenerate pivots). *)
  | Numeric of { what : string; value : float }
      (** A non-finite or out-of-range number where a sane one was required. *)
  | Budget_exhausted of { resource : string; spent : float; limit : float }
      (** A run budget (wall clock, iterations, pivots) ran out. *)
  | Unmet_target of { target : float; achieved : float }
      (** Optimization finished but the delay target was not reached. *)
  | Infeasible_target of {
      target : float;
      lower_bound : float;
      witness : string list;
    }
      (** The target is below the interval-bound lower bound on the circuit
          delay ({!Minflo_lint.Bounds}): provably unreachable by any sizing,
          detected before any solve. [witness] is the statically-critical
          path (vertex labels) whose best-case delay already exceeds the
          target. *)
  | Invariant of { what : string; detail : string }
      (** A checked invariant failed: a flow certificate, an FSDU balance,
          or the audit of a run's trace ([minflo size --check]). *)
  | Fault_injected of { site : string }
      (** A deliberate test fault (see {!Fault}). *)
  | Checkpoint_invalid of { file : string; reason : string }
      (** A checkpoint that cannot seed a resume: wrong magic/version,
          truncated, or written for a different circuit (hash mismatch). *)
  | Differential_mismatch of {
      job : string;
      solver_a : string;
      solver_b : string;
      value_a : float;
      value_b : float;
      tolerance : float;
    }
      (** Two independent solvers disagreed on a job's result beyond
          tolerance — evidence of a solver bug (or an injected fault). *)
  | Job_timeout of { job : string; seconds : float }
      (** A supervised batch job exceeded its hard wall-clock timeout and
          was killed. Transient: the supervisor retries it. *)
  | Job_crashed of { job : string; detail : string }
      (** A supervised batch job died without reporting a result (signal,
          nonzero exit, unreadable result file). Transient. *)
  | Overloaded of { depth : int; limit : int }
      (** The serve daemon's bounded admission queue is full: the request
          was rejected outright (explicit backpressure) instead of being
          queued unboundedly. Safe for the client to retry later. *)
  | Draining
      (** The serve daemon received a drain request (or SIGTERM) and no
          longer admits work; in-flight jobs are being finished or
          checkpointed. *)
  | Journal_locked of { file : string }
      (** Another live minflo process holds the advisory lock on this run
          directory's journal; a second writer would interleave and corrupt
          it, so the open fails fast instead. *)
  | Connect_refused of { endpoint : string; attempts : int }
      (** No daemon is listening at [endpoint] (connection refused, or a
          missing unix socket), still true after [attempts] tries. Safe to
          retry once a daemon is up. *)
  | Net_timeout of { endpoint : string; op : string; seconds : float }
      (** A network deadline expired: the peer at [endpoint] produced no
          [op] (["connect"], ["response"], …) within [seconds]. Replaces
          hanging forever on a stalled or half-open connection. *)
  | Torn_response of { endpoint : string; bytes : int }
      (** The connection closed (or the line ended) before a complete JSON
          response line arrived — a daemon death or a torn write, never a
          parse crash. [bytes] is the length of the incomplete line. *)
  | Internal of string  (** A bug: a state the design rules out. *)

exception Error_exn of error
(** For contexts that cannot return a [result]; carries the typed error. *)

val fail : error -> 'a
(** [raise (Error_exn e)]. *)

val retryable : error -> bool
(** [Solver_diverged], [Numeric] and [Fault_injected]: what a different
    solver or a fresh attempt could avoid. The D-phase solver chain moves
    to its next rung on them and the batch supervisor retries them; any
    other error is structural and is never masked by a weaker solver. *)

val error_code : error -> string
(** Stable machine-readable tag, e.g. ["parse-error"], ["budget-exhausted"].
    Documented in the README's failure-mode table; tests and scripts key on
    it. *)

val to_string : error -> string

val to_json : error -> Minflo_util.Json.t
(** The JSON object [{"code": …, …}] with the constructor's fields — what
    the batch journal, serve responses and the serve journal embed as
    their ["error"] member. Floats are spelled with
    {!Minflo_util.Json.of_float}, so a non-finite one never degrades to
    [null]. *)

(** {1 Event log} *)

type event = { severity : severity; source : string; message : string }

type log

val create_log : unit -> log

val log : log -> severity -> source:string -> string -> unit

val logf :
  log -> severity -> source:string -> ('a, unit, string, unit) format4 -> 'a

val events : log -> event list
(** In emission order. *)

val events_above : log -> severity -> event list

val event_to_string : event -> string
