(** Empirical local-optimality probing (Theorem 3's claim, testable).

    The paper argues MINFLOTRANSIT converges to the optimum of the (convex)
    sizing problem. This module stress-tests a solution numerically: it
    draws random small perturbation directions, projects them to keep the
    circuit feasible, and reports the best area improvement found. A
    converged solution should admit (essentially) none, while a greedy
    TILOS solution of the same instance typically admits plenty — the
    `ablate` bench prints both side by side. *)

type report = {
  trials : int;
  improved : int;            (** perturbations that cut area and kept timing. *)
  best_gain_pct : float;     (** largest area reduction found, in percent. *)
  best_sizes : float array option;
}

val probe :
  ?trials:int ->
  seed:int ->
  Minflo_tech.Delay_model.t ->
  target:float ->
  sizes:float array ->
  report
(** Each trial scales a random subset of sizes by factors in
    [1 +- 0.05], clamps to bounds, rejects timing violations, and
    greedily shrinks whatever slack the move opened (a W-phase pass at the
    perturbed point's own delays). *)
