(** Instrumented I/O for durable state.

    Every writer whose bytes must survive a crash — the batch journal, the
    versioned checkpoints, proof-carrying trace files, fuzz repro records and
    the serve daemon's journal/result paths — funnels its file operations
    through this module instead of calling [Unix]/[Stdlib] directly. That
    buys three things at one choke point:

    - {b typed failures}: a full disk surfaces as {!Diag.Disk_full}, any
      other OS refusal as {!Diag.Io_error}; no [Sys_error] or
      [Unix.Unix_error] escapes to kill a daemon;
    - {b deterministic fault injection}: the [io.*] sites in
      {!Fault.all_points} ([io.enospc], [io.eio-read], [io.short-write],
      [io.fsync-lost], [io.torn-rename], [io.crash-after-write]) are fired
      here, against the ambient plan installed with {!set_fault}, so tests
      can drive any writer into any storage failure without mocking the
      filesystem;
    - {b crash-point enumeration}: every durable write (and the rename
      inside {!atomic_replace}) is a numbered {e write boundary}; the
      torture harness ({!Torture}) arms [io.crash-after-write] at boundary
      [k] to simulate a process death exactly there, in clean (full write,
      then crash) or torn (prefix of the write, then crash) mode.

    The fault plan is ambient (process-global) because journal/checkpoint
    call sites never thread a {!Fault.t}; production runs simply never call
    {!set_fault}, so every operation is a thin EINTR-safe wrapper. *)

exception Simulated_crash of { site : string; boundary : int }
(** Raised when [io.crash-after-write] fires: the simulated process death.
    Deliberately NOT a {!Diag.Error_exn} and not a [Unix.Unix_error], so the
    best-effort [try … with] guards around journal appends cannot swallow it
    by accident. After it is raised once, the layer is {e frozen}: every
    further instrumented operation re-raises, so on-disk state stays exactly
    as it was at the crash point even if an intermediate handler catches the
    exception. *)

(** {1 Ambient fault plan and crash bookkeeping} *)

val set_fault : Fault.t option -> unit
(** Install (or clear, with [None]) the process-global fault plan consulted
    by every operation below. *)

val boundaries : unit -> int
(** Write boundaries crossed since the last {!reset}: one per {!write_all}
    (however invoked — directly, via a {!sink}, {!write_file} or
    {!atomic_replace}) plus one per rename inside {!atomic_replace}. The
    torture harness counts a fault-free run, then sweeps [1..boundaries]. *)

val crashed : unit -> bool
(** [true] once {!Simulated_crash} has been raised (layer frozen). *)

val reset : unit -> unit
(** Zero the boundary counter and un-freeze the layer (testing only). *)

(** {1 EINTR-retrying primitives}

    Thin wrappers over [Unix.read]/[Unix.write] that retry on [EINTR] and
    otherwise re-raise — for non-durable fd loops (supervisor event pipes,
    socket reads, the journal's seal probe) where a stray [SIGCHLD]/[SIGALRM]
    mid-syscall must not tear a record. Not instrumented, no typing. *)

val read_retry : Unix.file_descr -> bytes -> int -> int -> int
val write_substring_retry : Unix.file_descr -> string -> int -> int -> int

val really_write_substring : Unix.file_descr -> string -> unit
(** Loop {!write_substring_retry} until every byte is written (raises on
    any non-EINTR error). For pipes, not durable files. *)

(** {1 Instrumented operations} *)

val write_all : Unix.file_descr -> path:string -> string -> (unit, Diag.error) result
(** Write the whole string to [fd] (EINTR-safe, short-write looping),
    crossing one write boundary. Injection: [io.enospc] fails with
    {!Diag.Disk_full} before any byte; [io.short-write] writes a prefix and
    fails with {!Diag.Io_error}; [io.crash-after-write] completes the write
    ([Fail] action) or writes a [Perturb]-fraction prefix, then raises
    {!Simulated_crash}. A real [ENOSPC] maps to {!Diag.Disk_full}; any other
    [Unix_error] to {!Diag.Io_error}. *)

val fsync : Unix.file_descr -> path:string -> (unit, Diag.error) result
(** [Unix.fsync], typed. Injection: [io.fsync-lost] silently skips the real
    fsync and reports success — the write is claimed durable but is not
    (the crash harness then shows whether recovery tolerates it). *)

val read_file : string -> (string, Diag.error) result
(** Whole-file read, EINTR-safe. Injection: [io.eio-read] fails with
    {!Diag.Io_error} (a simulated medium error). A missing file is an
    {!Diag.Io_error} too — callers that treat absence as "no state yet"
    check [Sys.file_exists] first. *)

val write_file : string -> string -> (unit, Diag.error) result
(** Create/truncate + {!write_all} + close. Non-atomic — for report outputs
    ([-o] SARIF, audit JSON, bench results) where a torn file on crash is
    acceptable; durable state uses {!atomic_replace}. *)

val atomic_replace : string -> string -> (unit, Diag.error) result
(** The full crash-safe replace dance: write [path ^ ".tmp"], fsync it,
    close, rename over [path], then fsync the containing directory
    (best-effort). The rename is its own write boundary, so
    the torture harness exercises "crashed between write and rename" (temp
    file left behind; the stale-tmp GC must sweep it, and recovery must
    never load it) and "crashed after rename, before dir fsync". Injection:
    [io.torn-rename] stops after the temp write and fails with
    {!Diag.Io_error}, leaving the [.tmp] in place — the graceful-error
    twin of that crash. On any failure before the rename the temp file is
    removed best-effort (except under [io.torn-rename]/crash, which model a
    process that never got the chance). *)

val mkdirs : string -> (unit, Diag.error) result
(** [mkdir -p], typed: creates [dir] and any missing parents. A path
    component that exists but is not a directory, or any OS refusal, is a
    {!Diag.Io_error}. No injection. *)

val sweep_tmp : ?recurse:bool -> string -> string list
(** Unlink every [*.tmp] file directly in the directory (and below it, with
    [~recurse:true]) — the orphans a crash mid-{!atomic_replace} leaves
    behind. Returns the paths removed, sorted; a missing directory is []. No
    injection (it runs on the recovery side). *)

(** {1 Line sinks}

    An append-only line writer over an instrumented fd — what the trace
    writer (and any JSONL emitter) uses so each line is a write boundary
    with typed failure. *)

type sink

val create_sink : ?append:bool -> string -> (sink, Diag.error) result
(** Open (create/truncate, or append with [~append:true]) [path]. *)

val sink_write_line : sink -> string -> (unit, Diag.error) result
(** Write [line ^ "\n"] via {!write_all}. *)

val sink_close : sink -> unit
(** Close (idempotent, best-effort). *)
