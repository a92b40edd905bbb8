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

type options = {
  iterations : int;     (** outer multiplier updates (default 30). *)
  inner_sweeps : int;   (** coordinate sweeps per size subproblem. *)
  temperature : float;  (** softmax sharpness for criticality flows. *)
}

val default_options : options

type result = {
  sizes : float array;
  area : float;
  cp : float;
  met : bool;
  outer_iterations : int;
}

val size :
  ?options:options -> Minflo_tech.Delay_model.t -> target:float -> result
(** Seeds with TILOS; returns the best feasible iterate found. [met=false]
    iff even the TILOS seed missed the target. *)
