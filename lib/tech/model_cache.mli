(** Process-wide cache of Elmore delay models, keyed by circuit content.

    Building a {!Delay_model.t} walks the whole netlist and allocates the
    coefficient tables; the bench harness, the batch runner's pre-flight and
    the parameter sweep all repeatedly build models for the {e same}
    circuits. This cache shares one build per (technology, circuit) pair.

    The key is content-based — FNV-1a 64 over the canonical [.bench]
    rendering, the same hash the batch checkpoints use to bind a checkpoint
    to its circuit — so two structurally identical netlists loaded through
    different paths share an entry, and any structural edit misses. *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit. Stable across processes (unlike [Hashtbl.hash] on boxed
    data); the hash used by batch checkpoints and this cache. *)

val hash_netlist : Minflo_netlist.Netlist.t -> int64
(** [fnv1a64] of the canonical [.bench] rendering. *)

val model : ?tech:Tech.t -> Minflo_netlist.Netlist.t -> Delay_model.t
(** The Elmore model of [nl] under [tech] (default {!Tech.default_130nm}),
    built on first request and shared afterwards. The returned model is
    shared mutable-free data — safe to use from any number of readers. *)

val clear : unit -> unit
(** Drop every cached model (tests; memory-sensitive long runs). *)
