(** Versioned, crash-safe on-disk checkpoints for sizing runs.

    A checkpoint freezes a {!Minflo_sizing.Minflotransit.snapshot} (the
    complete D/W loop state) together with everything needed to validate
    and restart the run: a format version, a structural hash of the
    circuit, the absolute delay target, the solver, the TILOS seed the
    refinement started from, the run-budget meters, and the fault-plan
    seed. The file is one JSON object,
    [{"format": "minflo-checkpoint", "version": 2, …}], whose floats are
    spelled with {!Minflo_util.Json.of_float}, so a round trip through the
    file is bit-exact — the foundation of the resume-equals-uninterrupted
    guarantee.

    Writes are atomic: the file is written to a [.tmp] sibling, fsynced,
    and renamed over the destination, so a crash mid-checkpoint leaves the
    previous checkpoint intact. Loads parse strictly (a truncated file is
    not JSON) and, with {!validate}, check magic, version and circuit hash,
    returning a typed {!Minflo_robust.Diag.Checkpoint_invalid} on any
    mismatch — a stale or foreign checkpoint can never silently seed a
    resume. *)

type t = {
  circuit : string;        (** circuit spec the run was started with. *)
  circuit_hash : int64;    (** {!hash_netlist} of that circuit. *)
  target : float;          (** absolute delay target. *)
  solver : string;         (** its {!Minflo_sizing.Dphase.solver_name}. *)
  fault_seed : int option; (** seed the run's fault plan was built from. *)
  snapshot : Minflo_sizing.Minflotransit.snapshot;
  tilos : Minflo_sizing.Tilos.result;  (** the seed the loop refines. *)
  budget_iterations : int;
  budget_pivots : int;
  budget_elapsed : float;  (** seconds of budgeted wall clock consumed. *)
}

val version : int
(** Current format version. Files written by other versions are rejected
    (see DESIGN.md for the versioning rules). *)

val hash_netlist : Minflo_netlist.Netlist.t -> int64
(** FNV-1a over the canonical [.bench] rendering: stable across processes
    and builds, sensitive to any structural change. *)

val save : string -> t -> (unit, Minflo_robust.Diag.error) result
(** [save path ck] atomically replaces [path]. [Io_error] on failure. *)

val load : string -> (t, Minflo_robust.Diag.error) result
(** [Checkpoint_invalid] when the file is truncated or otherwise not JSON,
    has the wrong magic or version, or misses a field or has a malformed
    one (the reason names the key); [Io_error] when unreadable. The circuit
    hash is {e not} checked here — pair with {!validate}. *)

val validate :
  file:string -> t -> circuit_hash:int64 -> target:float -> solver:string ->
  (unit, Minflo_robust.Diag.error) result
(** Rejects (as [Checkpoint_invalid], carrying [file]) a checkpoint whose
    circuit hash, target or solver does not match the run being resumed. *)

(** {1 Versioned JSON documents}

    The reader checkpoints and fuzz reproducers share. *)

val read_document :
  format:string -> version:int -> string ->
  (Minflo_util.Json.t, Minflo_robust.Diag.error) result
(** [read_document ~format ~version path] reads [path] as one JSON object
    whose ["format"] and ["version"] members are [format] and [version].
    [Io_error] when unreadable; otherwise [Checkpoint_invalid] when the
    file does not parse (truncation included), is a line-oriented version 1
    file, or carries another format or version. *)

val field :
  string -> Minflo_util.Json.t -> (string -> Minflo_util.Json.t -> 'a option) ->
  string -> ('a, Minflo_robust.Diag.error) result
(** [field path doc read key] is [read key doc], or a [Checkpoint_invalid]
    on [path] naming [key] as missing or malformed. *)
