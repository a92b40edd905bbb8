(** Delay balancing with Fictitious Specific Delay Units (FSDUs).

    A balanced configuration assigns a non-negative FSDU to every edge of
    the timing DAG — plus a virtual input edge for every source vertex and a
    virtual output edge for every sink — such that along *every* full
    source-to-sink path, [sum of vertex delays + sum of FSDUs = deadline].
    The FSDUs materialize all slack in the circuit; the D-phase then
    redistributes them by FSDU displacement (Eq. 9), which provably
    preserves path balance (Theorem 2) and, with inputs and the output
    dummy pinned, the critical path (Corollary 1).

    Configurations are generated from a vertex potential [p] (any function
    with [p(j) >= p(i) + delay(i)] on edges, [0 <= p] at sources,
    [p(i) + delay(i) <= deadline] at sinks): [`Alap] uses required times
    (slack pushed toward the inputs), [`Asap] uses arrival times (slack
    pushed toward the outputs). Theorem 1 — all balanced configurations are
    FSDU-displaced versions of each other — shows as the difference of
    potentials, which {!displacement_between} returns. *)

type t = {
  potential : float array;
  edge_fsdu : float array;    (** per timing edge id *)
  source_fsdu : float array;  (** meaningful at vertices with no fanin *)
  sink_fsdu : float array;    (** meaningful at sink vertices *)
  deadline : float;
}

val balance :
  ?mode:[ `Alap | `Asap ] ->
  ?sta:Sta.t ->
  Minflo_tech.Delay_model.t ->
  delays:float array ->
  deadline:float ->
  t
(** Requires a safe circuit ({!Tolerance.safe}); FSDUs are non-negative
    then. Default mode [`Alap]. [?sta] supplies an analysis already
    computed for the same [delays] and [deadline] (the D-phase's safety
    probe): the balancer then skips its own full sweep and ticks the
    [full_sweeps_avoided] perf counter. *)

val check :
  Minflo_tech.Delay_model.t ->
  delays:float array ->
  t ->
  (unit, Minflo_robust.Diag.error) result
(** Verifies non-negativity of every FSDU and exact path balance (via the
    potential identity on each edge); failures are typed
    [Invariant {what = "fsdu-balance"; _}] diagnostics. Test-suite oracle
    for Theorems 1-2 and the [--check] post-phase invariant. *)

val displacement_between : t -> t -> float array
(** [displacement_between a b]: the vertex relabeling [r] with
    [b = displace a r] (Theorem 1). *)

val displace : Minflo_tech.Delay_model.t -> t -> float array -> t
(** Apply an FSDU displacement [r] (Eq. 9): each edge FSDU becomes
    [fsdu + r(dst) - r(src)], source edges use [r(src_vertex)], sink edges
    [-r(sink_vertex)] (the virtual endpoints are pinned at 0). The result
    may violate non-negativity; {!check} decides legality. *)
