(** Pre-solve interval bound analysis over the timing DAG (MF20x rules).

    The Elmore decomposition [delay_i = a_self + (b + sum a_ij x_j) / x_i]
    with non-negative coefficients is componentwise monotone: decreasing in
    the gate's own size, increasing in every fanout size. Evaluating it at
    the corners of the size box therefore yields, for every vertex, an
    interval \[[d_lo], [d_hi]\] that contains the vertex delay under {e
    every} feasible sizing. Two forward and two backward topological sweeps
    propagate these to arrival-time, downstream-tail and circuit-delay
    bounds — a few array passes, no LP and no TILOS seed.

    Soundness: for any sizing [x] within bounds, [cp_lo <= CP(x) <= cp_hi].
    So a target below [cp_lo] is statically infeasible (MF201, with a
    witness critical path under best-case delays); a gate whose best-case
    through-path delay already reaches the target has no sizing freedom
    (MF202); a gate whose worst-case through-path delay still clears the
    target is slack-irrelevant and can be frozen at minimum size (MF203).
    The monotonicity itself is checked against the technology by probing
    {!Minflo_tech.Gate_model.of_gate} across arities (MF204). *)

type t = {
  d_lo : float array;    (** per-vertex delay lower bound *)
  d_hi : float array;    (** per-vertex delay upper bound *)
  at_lo : float array;   (** arrival-time lower bound (input convention) *)
  at_hi : float array;   (** arrival-time upper bound *)
  tail_lo : float array; (** longest downstream continuation, lower bound *)
  tail_hi : float array; (** longest downstream continuation, upper bound *)
  cp_lo : float;         (** circuit-delay lower bound over the size box *)
  cp_hi : float;         (** circuit-delay upper bound over the size box *)
}

val compute : Minflo_tech.Delay_model.t -> t
(** Four linear sweeps in topological order. *)

val witness_path : Minflo_tech.Delay_model.t -> t -> int list
(** The critical path under best-case ([d_lo]) delays, source to finishing
    vertex — the certificate that [cp_lo] is actually achieved by a path. *)

val infeasible : t -> target:float -> bool
(** [not (meets ~target cp_lo)] ({!Minflo_timing.Tolerance.meets}): even
    the delay floor fails the engine's acceptance test, so no sizing
    whatsoever can meet the target. Reading the engine's own test means a
    target the engine would accept is never reported as statically
    infeasible. *)

val infeasible_target_error :
  Minflo_tech.Delay_model.t ->
  t ->
  target:float ->
  Minflo_robust.Diag.error option
(** [Some (Infeasible_target ...)] with the witness path's labels when
    {!infeasible}; the typed form the serve admission gate and the batch
    preflight journal. *)

val pinned : Minflo_tech.Delay_model.t -> t -> target:float -> int list
(** Vertices whose lower bound on the longest path through them over all
    feasible sizings, [at_lo + d_lo + tail_lo], is at least
    [target * (1 - 1e-6)]. *)

val irrelevant : Minflo_tech.Delay_model.t -> t -> target:float -> int list
(** Vertices whose upper bound on the longest path through them,
    [at_hi + d_hi + tail_hi], is at most [target * 0.95]. *)

val check : Minflo_tech.Delay_model.t -> target:float -> Finding.t list
(** The finding-producing entry point. MF201 short-circuits MF202/MF203 — a
    statically infeasible target makes per-gate freedom analysis vacuous.
    Per-gate findings are capped at 32 per rule with a truncation summary. *)

val check_tech : Minflo_tech.Tech.t -> Finding.t list
(** MF204: probe every gate kind at every arity [1 .. max_stack] and demand
    positive, arity-monotone model entries. *)
