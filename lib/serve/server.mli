(** The sizing-as-a-service daemon.

    [run] listens on a unix socket — and, with [tcp] set, a TCP endpoint
    too — for newline-delimited JSON requests
    ({!Protocol}) and schedules accepted sizing jobs across forked workers
    ({!Minflo_runner.Supervisor}'s pool — per-attempt hard timeouts,
    exponential-backoff retry of transient failures, quarantine of
    deterministic ones). The parent process is the only journal writer and
    the only scheduler; workers inherit the delay-model cache
    copy-on-write.

    Robustness contract:

    - {b admission control}: a bounded queue; a full queue answers
      [overloaded] (typed, with depth and limit) instead of accepting
      unbounded work. Rejections tick {!Minflo_robust.Perf} counters.
    - {b idempotency / result cache}: a job's key
      ({!Protocol.job_key}) identifies its work; resubmitting a served key
      is answered from the in-memory result cache with zero solves. The
      cache is LRU under [cache_bytes]; an eviction under memory pressure
      costs a journal re-read on the next query, never the answer.
    - {b connection deadlines}: client descriptors are nonblocking with
      buffered writes; a peer stalled mid-request or ignoring its
      response past [io_timeout_seconds] is disconnected, so a half-open
      or wedged connection can never stall the accept loop or leak a
      descriptor.
    - {b worker watchdog}: a forked worker heartbeats over its event
      pipe; one silent past [watchdog_seconds] (wedged, SIGSTOPped,
      livelocked) is SIGKILLed and its job retried like any other
      transient crash.
    - {b crash recovery}: every accepted job is journaled ([serve-accepted],
      fsynced) before the client hears "accepted"; terminal states are
      journaled too ([job-result] carries the full result, round-tripping
      bit-identically). A daemon restarted on the same run directory
      replays the journal: finished jobs restock the result cache,
      accepted-but-unfinished ones are requeued and — thanks to the batch
      layer's checkpoints — resume to bit-identical results.
    - {b single instance}: the journal's advisory lock makes a second
      daemon on the same run directory fail fast with [journal-locked].
    - {b degraded mode}: a failed journal write (disk full, I/O error)
      flips the daemon read-only instead of killing it: new admissions
      are answered with a typed [storage-error] rejection carrying the
      underlying diagnostic, while cached results, queries and in-flight
      work keep being served. [health] reports [degraded]; [stats]
      carries a [degraded] flag. Nothing is ever queued whose acceptance
      could not be made durable.
    - {b graceful drain}: SIGTERM/SIGINT (or the [drain] op) stops
      admission, finishes or checkpoints in-flight work, seals the journal
      and exits. SIGKILL is the tested worst case: recovery handles it.

    Per-request budgets map to {!Minflo_robust.Budget} limits; a budget
    that trips on a target-meeting sizing returns that best feasible
    result (flagged via its [stop] field) rather than an error. *)

type config = {
  socket_path : string;
  tcp : string option;
      (** also listen on this ["HOST:PORT"] (port [0] lets the kernel
          pick; the actual endpoint is journaled in [serve-start]'s
          [tcp] field). [None]: unix socket only. *)
  run_dir : string;        (** journal, checkpoints, recovery state. *)
  parallel : int;          (** concurrent forked workers. *)
  queue_capacity : int;    (** admission queue bound. *)
  timeout_seconds : float option;  (** per-attempt hard kill. *)
  watchdog_seconds : float option;
      (** worker liveness deadline ({!Minflo_runner.Supervisor}): a
          worker whose event pipe stays silent this long is SIGKILLed
          and its job requeued. [None] disables. *)
  io_timeout_seconds : float;
      (** per-connection deadline: a peer stalled mid-request or not
          reading its response this long is disconnected. Parked
          [result --wait] connections (no pending bytes either way) are
          exempt. *)
  cache_bytes : int;
      (** result-cache byte budget; LRU eviction past it (evicted
          results remain answerable from the journal). *)
  retries : int;
  backoff_base : float;
  preflight : bool;
      (** run the {!Minflo_runner.Admission} gate (lint, then MF201) on
          each submission. *)
}

val journal_accepted :
  Minflo_runner.Journal.t ->
  string ->
  Protocol.submit ->
  (unit, Minflo_robust.Diag.error) result
(** [journal_accepted jr key spec] appends job [key]'s [serve-accepted]
    line, {!Protocol.submit_fields} of [spec], and reports whether it
    became durable. *)

val journal_result :
  Minflo_runner.Journal.t ->
  string ->
  Minflo_runner.Job.outcome ->
  (unit, Minflo_robust.Diag.error) result
(** [journal_result jr key o] appends job [key]'s [job-result] line,
    {!Minflo_runner.Job.outcome_fields} of [o]; recovery reads it back
    bit for bit. *)

val recovery_snapshot : string -> (string * string) list
(** [recovery_snapshot journal_path] replays a serve journal exactly as a
    restarting daemon would and returns, in acceptance order, each job key
    with the state the daemon would reconstruct for it ([accepted],
    [running], [done], [failed], [cancelled]). Used by the torture harness
    to assert that a journal surviving an injected crash still recovers to
    a coherent table. *)

val run : config -> (unit, Minflo_robust.Diag.error) result
(** Run the daemon until drained. Returns [Error Journal_locked] if
    another live daemon owns the run directory, [Error (Io_error _)] if
    the run directory cannot be made or the socket is in use or cannot be
    bound (say, in a directory that does not exist); otherwise blocks
    until a drain completes and returns [Ok ()]. The [minflo serve] flags
    state the defaults. *)
