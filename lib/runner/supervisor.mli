(** Supervised execution of batch tasks in isolated child processes.

    Each task runs in a forked child with a hard wall-clock timeout; a
    hang, crash (segfault, OOM-kill, SIGKILL) or typed failure in one job
    can never take down the batch or corrupt another job's state. The
    supervisor classifies failures:

    - {e transient} — timeouts, crashes, and the retryable solver errors
      of {!Minflo_robust.Diag.retryable} — are retried with
      exponential backoff, up to the configured retry budget;
    - {e deterministic} — structural errors (unmet target, parse errors,
      infeasible budgets, …), or a typed solver error repeating with the
      same code on consecutive attempts — quarantine the job immediately:
      it is reported failed and never retried, so a poisoned input cannot
      consume the batch's time.

    Results cross the process boundary via [Marshal] on a per-job scratch
    file, so task thunks must return plain data (no closures, no abstract
    handles). Tasks run to completion in submission order subject to the
    parallelism cap; the returned list is in submission order. *)

type config = {
  parallel : int;                  (** concurrent children (default 1). *)
  timeout_seconds : float option;  (** per-attempt hard kill (SIGKILL). *)
  retries : int;                   (** extra attempts for transient failures. *)
  backoff_base : float;            (** first retry delay, seconds; doubles. *)
  isolate : bool;
      (** [false] runs thunks in-process (no fork, no timeout enforcement)
          — retained for tests and debugging; retry/quarantine logic is
          identical. *)
  watchdog_seconds : float option;
      (** Liveness deadline (isolated mode only). Each worker carries a
          SIGALRM heartbeat timer writing a liveness record to its event
          pipe every [watchdog/4] seconds; a worker whose pipe stays
          silent — no events, no heartbeats — for longer than this is
          SIGKILLed ([job-watchdog-kill] journaled) and the job requeued
          through the ordinary transient-retry path. Catches wedged
          workers (SIGSTOP, livelock, a hang in a non-OCaml call) long
          before the absolute [timeout_seconds] would. [None] disables. *)
}

val default_config : config
(** [parallel = 1; timeout_seconds = None; retries = 2;
    backoff_base = 0.5; isolate = true; watchdog_seconds = None]. *)

type 'a outcome = {
  verdict : ('a, Minflo_robust.Diag.error) result;
  attempts : int;       (** attempts actually made (>= 1). *)
  quarantined : bool;   (** failed deterministically; retries withheld. *)
}

type emit = ?fields:(string * Minflo_util.Json.t) list -> string -> unit
(** A worker's channel for journal events, with {!Journal.event}'s fields.
    In isolated mode the event crosses a dedicated worker->parent pipe as
    one {!Minflo_util.Json} object per line and the {e parent}
    appends it (the journal stays single-writer, so its crash-safety
    guarantees survive any parallelism level); in-process mode appends
    directly. Events carry the task's id as their [job] field. All events
    a worker emitted are journaled before the task's verdict event, so
    within-job event order is deterministic regardless of [parallel]. *)

val run_all_tasks :
  ?config:config ->
  ?journal:Journal.t ->
  ?on_done:(string -> 'a outcome -> unit) ->
  (string * (emit -> ('a, Minflo_robust.Diag.error) result)) list ->
  (string * 'a outcome) list
(** [run_all_tasks tasks] supervises every [(id, thunk)] and returns the
    outcomes in submission order. Each thunk receives an {!emit} through
    which the worker can add its own events (checkpoint progress, perf
    counters) to the journal from inside the child process. Lifecycle
    events ([job-spawn], [job-retry], [job-timeout], [job-crashed],
    [job-quarantined], [job-failed]) are appended to [journal] as they
    happen. [on_done] runs in the parent the moment a task reaches its
    final outcome (success, quarantine or retry exhaustion) — the batch
    layer uses it to journal completions crash-safely as they happen,
    not when the batch ends. *)

(** {1 Incremental pool}

    The batch entry points above block until every task finishes. A
    long-running daemon instead needs to feed tasks in as they arrive and
    harvest outcomes between [select] wake-ups; [pool_step] does one
    non-blocking scheduling round (spawn into free slots, SIGKILL
    overdue workers, reap exited ones, drain worker event pipes) and
    returns whatever finished since the last call. Retry, backoff,
    quarantine and journaling semantics are identical to {!run_all_tasks}
    — that function is itself implemented on the pool. *)

type 'a pool

val pool_create :
  ?config:config ->
  ?journal:Journal.t ->
  ?on_done:(string -> 'a outcome -> unit) ->
  unit ->
  'a pool
(** An empty pool. [on_done] fires in the submitting process the moment a
    task reaches a final outcome (also reported by the next {!pool_step}).
    Workers forked by the pool reset SIGTERM/SIGINT to their default
    disposition, so a daemon's drain/seal handlers never run — and never
    touch the journal — inside a child. *)

val pool_submit :
  'a pool ->
  id:string ->
  (emit -> ('a, Minflo_robust.Diag.error) result) ->
  unit
(** Enqueue a task; it starts on a later {!pool_step} when a slot frees
    up. Ids are the caller's concern — submitting a duplicate id yields
    two independent tasks. *)

val pool_step : 'a pool -> (string * 'a outcome) list
(** One non-blocking scheduling round; returns tasks that reached a final
    outcome during this call, in completion order. Call it regularly
    (e.g. on every [select] timeout): timeout enforcement and retry
    backoff both advance only inside [pool_step]. *)

val pool_cancel :
  'a pool -> string -> [ `Cancelled_pending | `Killed_running | `Not_found ]
(** Cancel a task by id. A task still queued (or awaiting a retry slot)
    is silently dropped and never reported by {!pool_step}. A running
    task's worker is SIGKILLed; the task then finishes — without retry —
    with [Error (Job_crashed {detail = "cancelled"})] on a later
    {!pool_step}. *)

val pool_load : 'a pool -> int
(** Running plus queued tasks; queued = submitted-but-unstarted plus
    retries awaiting backoff. *)

val pool_idle : 'a pool -> bool
(** [pool_load = 0]: every submitted task has reached a final outcome. *)
