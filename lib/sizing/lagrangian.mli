(** A Lagrangian-relaxation sizer, after Chen-Chu-Wong [8] — the exact
    method the paper compares itself against qualitatively.

    Multipliers live on the timing-graph edges and must satisfy
    flow conservation at every vertex (the KKT condition that makes the
    arrival-time variables drop out of the Lagrangian); given conserved
    multipliers, the size subproblem decomposes into per-vertex updates
    with a closed form. This implementation maintains conservation by
    construction — multipliers are built by distributing one unit of flow
    backward from each sink, weighted by edge criticality — and alternates
    multiplier re-distribution with coordinate size updates, repairing any
    infeasible iterate with a short TILOS resume.

    It is intentionally independent of the D/W machinery: a second
    optimizer whose results bracket MINFLOTRANSIT's in the ablations of
    [minflo bench --paper]. *)

type result = {
  sizes : float array;
  area : float;
  cp : float;
  met : bool;
  outer_iterations : int;
}

val size : Minflo_tech.Delay_model.t -> target:float -> result
(** Seeds with TILOS, then runs 40 outer multiplier updates of 4
    coordinate sweeps each; returns the best feasible iterate found.
    [met=false] iff even the TILOS seed missed the target. *)
