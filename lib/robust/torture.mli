(** Crash-point torture harness.

    Enumerates every write boundary a workload crosses (counted by the
    instrumented {!Io} layer), then replays the workload once per boundary
    with a simulated process death pinned exactly there — in {e clean} mode
    (the write at the boundary completes, then the process dies) and in
    {e torn} mode (only a prefix of the write lands) — and asks the caller's
    [verify] to check the recovery invariants against the frozen on-disk
    state: the journal seals or truncates to a valid prefix, a resumed run
    is bit-identical to an uninterrupted one, surviving traces still audit
    clean, and no stale [.tmp] file is ever loaded.

    Each simulation runs the workload in a {e forked child}: the crash
    ({!Io.Simulated_crash}) unwinds — or is swallowed by a catch-all, in
    which case the frozen {!Io} layer keeps the disk state pinned anyway —
    and the child exits with a code classifying what happened, so leaked
    fds, advisory journal locks and half-unwound state die with the process
    instead of polluting the next simulation. [setup] and [verify] run in
    the parent, fault-free.

    The harness is workload-agnostic (this library sits below the runner and
    serve layers); the concrete batch+trace+serve-journal workload lives in
    the [minflo torture] subcommand. *)

type mode = Clean | Torn

val mode_to_string : mode -> string

type outcome =
  | Crashed  (** the child died at the boundary, as scheduled (exit 77). *)
  | Crash_swallowed
      (** a catch-all handler absorbed the crash exception, but the frozen
          {!Io} layer kept the disk state pinned at the boundary (exit 78).
          Recovery invariants are still checked; the swallowing itself is
          reported so over-broad handlers are visible. *)
  | Never_fired
      (** the workload completed without reaching the boundary — only
          possible if the replay diverged from the counted run; always a
          violation. *)
  | Errored of string  (** the child died some other way (exit 76/signal). *)

type sim = {
  sim_boundary : int;  (** 1-based write boundary the crash was pinned to. *)
  sim_mode : mode;
  sim_outcome : outcome;
  sim_violations : string list;
      (** [verify]'s findings for this crash point, plus harness-detected
          divergence ({!Never_fired}, {!Errored}). Empty = invariants held. *)
}

type report = {
  total_boundaries : int;  (** write boundaries in the fault-free run. *)
  sims : sim list;
}

val crash_points : report -> int
(** Simulations where the crash actually took effect ({!Crashed} or
    {!Crash_swallowed}) — the "distinct crash points exercised" count. *)

val violations : report -> (sim * string) list
(** Every violation, flattened, in simulation order. *)

val run :
  ?seed:int ->
  ?max_sims:int ->
  ?progress:(int -> int -> unit) ->
  setup:(unit -> unit) ->
  workload:(unit -> unit) ->
  verify:(boundary:int -> mode:mode -> string list) ->
  unit ->
  (report, Diag.error) result
(** [run ~setup ~workload ~verify ()]:

    + [setup ()]; run [workload] once fault-free in-process to count its
      write boundaries (a workload that fails or crosses no boundary is an
      error);
    + for each selected boundary [k] and each mode, {!Clean} then
      {!Torn}: [setup ()], fork, arm [io.crash-after-write] at
      boundary [k] in the child, run [workload] to its death, then run
      [verify ~boundary:k ~mode] in the parent against the on-disk wreckage.

    [setup] must restore the state directory to the same initial condition
    every time (the boundary numbering relies on the workload being
    deterministic from that state). [max_sims] caps the total number of
    simulations by striding evenly over the boundary range (default: all).
    Each child's stdout/stderr go to /dev/null. [progress] is called as [progress done total] after each
    simulation. [seed] seeds each child's fault plan. *)
