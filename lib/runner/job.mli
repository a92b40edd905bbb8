(** Batch job descriptions.

    A job is one cell of the paper's evaluation grid: a circuit, a delay
    target expressed as a fraction of the minimum-size delay, and the
    D-phase solver to run it with. Jobs have stable string ids (used as
    checkpoint file names and journal keys) and a deterministic ordering,
    so a resumed batch enumerates exactly the same work as the original. *)

type t = {
  circuit : string;  (** suite name or path to a [.bench] / [.v] file. *)
  factor : float;    (** delay target as a fraction of Dmin. *)
  solver : Minflo_sizing.Dphase.solver;
}

val id : t -> string
(** Stable id, e.g. ["c432@0.500/simplex"]. Unique within a batch grid. *)

val file_slug : t -> string
(** {!id} with every character outside [[A-Za-z0-9._-]] replaced by ['-']:
    safe as a file name inside the checkpoint directory. *)

val fields : t -> (string * Minflo_util.Json.t) list
(** [circuit], [factor] and [solver], as the serve protocol, its journal
    and its result responses spell them. *)

val cross :
  circuits:string list ->
  factors:float list ->
  solvers:Minflo_sizing.Dphase.solver list ->
  t list
(** The full evaluation grid, circuits-major, in deterministic order. *)

val load_circuit : string -> (Minflo_netlist.Netlist.t, Minflo_robust.Diag.error) result
(** Resolve a circuit spec exactly like the CLI: an existing [.v] or
    [.bench] file path, the embedded [c17], or an {!Minflo_netlist.Iscas85}
    suite name. *)

val load_raw : string -> (Minflo_netlist.Raw.t, Minflo_robust.Diag.error) result
(** Same spec resolution, but stop before elaboration: files are parsed to
    their raw form (with source locations, no name resolution), built-in
    circuits go through {!Minflo_netlist.Raw.of_netlist}. This is what the
    batch pre-flight lint gate runs on. *)

(** Plain-data result of a completed sizing job — free of closures and
    abstract types so it can cross the child-process boundary via
    [Marshal]. *)
type outcome = {
  job : t;
  area : float;          (** final area (absolute units). *)
  area_ratio : float;    (** final area over the minimum-size area. *)
  cp : float;            (** final critical path. *)
  target : float;        (** absolute delay target ([factor *. dmin]). *)
  met : bool;
  iterations : int;
  saving_pct : float;    (** area saving over the TILOS seed. *)
  stop : string;         (** rendered {!Minflo_sizing.Minflotransit.stop_reason}. *)
  resumed : bool;        (** this outcome continued from a checkpoint. *)
  perf : Minflo_robust.Perf.counters;
      (** solver work this job spent (process-global counters diffed across
          the run) — lets a supervising parent accumulate worker effort. *)
}

(** {1 The job recipe}

    How every front door — {!Batch.run_job}, the {!Admission} gate, the
    serve daemon's model prewarm and {!Benchmarks} — turns a circuit and
    a delay factor into a sizing problem. *)

type recipe = {
  model : Minflo_tech.Delay_model.t;
      (** the Elmore model under {!Minflo_tech.Tech.default_130nm}, from
          {!Minflo_tech.Model_cache}. *)
  dmin : float;  (** {!Minflo_sizing.Sweep.dmin}: the minimum-size delay. *)
}

val recipe : Minflo_netlist.Netlist.t -> recipe

val target : recipe -> factor:float -> float
(** The absolute delay target, [factor *. dmin]. *)

(** {1 The outcome record on disk and on the wire} *)

val outcome_fields : outcome -> (string * Minflo_util.Json.t) list
(** [area], [area_ratio], [cp], [target], [met], [iterations],
    [saving_pct], [stop] and [resumed], in that order; floats through
    {!Minflo_util.Json.of_float}, so every value survives bit for bit.
    The batch [job-ok] event, the serve [job-result] event and the serve
    [result] response all carry exactly these fields. [job] and [perf]
    are not written: the job is the line's key, the counters travel in
    [job-perf]. *)

val outcome_of_json : t -> Minflo_util.Json.t -> outcome option
(** Reads what {!outcome_fields} writes from an object that carries them
    (extra members are ignored), for [job]; [perf] comes back zero.
    [None] when a field is missing or mistyped. *)
