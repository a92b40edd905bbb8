(** Crash-safe append-only JSONL journal of batch events.

    Every job event the supervisor observes — start, attempt, retry,
    success, quarantine, timeout, differential verdict — is one JSON
    object per line, appended, flushed and fsynced before the runner
    proceeds, so the journal is a faithful prefix of the run even after a
    SIGKILL. Lines are written and read with {!Minflo_util.Json}; typed
    errors are embedded as {!Minflo_robust.Diag.to_json} objects, so
    scripts can key on the same stable [code] fields the CLI exit codes are
    derived from.

    The journal doubles as the batch's completion record: on [--resume],
    {!completed} scans an existing journal and returns the jobs that
    already finished, which the runner then skips. Every reader below
    parses each line strictly and drops one that does not parse — which is
    what a line torn by a crash mid-write is. *)

type t

val open_append : string -> (t, Minflo_robust.Diag.error) result
(** Open (creating if needed) for appending. Takes the single-writer lock,
    seals a torn final line, then garbage-collects stale [*.tmp] files
    anywhere under the journal's directory (orphans of a crash
    mid-[atomic_replace]) and journals a ["tmp-swept"] event naming them. *)

val path : t -> string

val event :
  t ->
  ?job:string ->
  ?error:Minflo_robust.Diag.error ->
  ?fields:(string * Minflo_util.Json.t) list ->
  string ->
  unit
(** [event t ~job ~error ~fields name] appends one line
    [{"event": name, "seq": n, "t": seconds, "job": …, …fields, "code": …,
    "error": {…}}] and fsyncs it. Write float fields with
    {!Minflo_util.Json.of_float}, so a non-finite one survives as a string,
    and read them back with {!Minflo_util.Json.float_field}, which also
    reads the ["%h"] strings older journals wrote. Write failures are
    silent — journaling must never kill the run it documents — but the
    typed error is remembered (see {!last_error}). All bytes go through the
    instrumented {!Minflo_robust.Io} layer, so [io.*] fault sites and the
    torture harness's crash boundaries apply. *)

val event_checked :
  t ->
  ?job:string ->
  ?error:Minflo_robust.Diag.error ->
  ?fields:(string * Minflo_util.Json.t) list ->
  string ->
  (unit, Minflo_robust.Diag.error) result
(** Like {!event}, but reports the write/fsync failure to the caller —
    for paths where the append is load-bearing (the serve daemon's
    "accepted means recoverable" promise: the acceptance line must be
    durable before the client hears [accepted]). *)

val last_error : t -> Minflo_robust.Diag.error option
(** The most recent append failure swallowed by {!event} ([None] when every
    append so far landed). *)

val close : t -> unit

val completed : string -> (string, float) Hashtbl.t
(** [completed path] scans the journal for ["job-ok"] events and returns
    job id -> final area. Missing file means an empty table; malformed or
    truncated lines are skipped. *)

val canonical : string -> string list
(** The journal's lines in canonical form: volatile fields ([seq], [t],
    [backoff_seconds], [pid]) removed from each parsed object, which is
    re-rendered with {!Minflo_util.Json.to_string}; torn lines dropped;
    lines stably sorted by their [job] field (lines without one first, in
    original order). Two runs of the same batch are equivalent iff their canonical
    journals are equal — in particular, [-j N] reorders events {e between}
    jobs but never within one, so the canonical journal of a parallel run
    is bit-identical to the sequential run's. The test-suite and the batch
    differential rely on exactly this. *)

val scan : string -> (string * Minflo_util.Json.t) list
(** [scan path] returns every complete event line as [(event, object)], in
    journal order; torn lines are dropped. Read fields with the
    {!Minflo_util.Json} accessors. Missing file means an
    empty list. This is the serve daemon's recovery substrate: accepted-but-
    unfinished jobs are exactly those with an acceptance event and no
    terminal event. *)
