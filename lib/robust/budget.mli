(** Run budgets: explicit resource ceilings for an optimization run.

    MINFLOTRANSIT's relaxation loop and the flow solvers underneath it are
    iterative; on degenerate inputs they can run far past any useful point.
    A {!t} is a mutable meter the engine threads through every loop that can
    spin — the D/W iteration, the network-simplex/SSP pivot loops, TILOS
    bumping — so that a run is bounded by wall clock, by iterations, and by
    total solver pivots, whichever trips first. On exhaustion the engine
    returns its best feasible solution so far, flagged, rather than running
    unbounded or raising.

    Checks are designed for hot loops: pivot ticks are counter updates, and
    the wall clock is consulted only every 1024 pivot ticks. *)

type limits = {
  wall_seconds : float option;   (** wall-clock deadline for the whole run. *)
  max_iterations : int option;   (** outer iterations (D/W rounds, bumps). *)
  max_pivots : int option;       (** cumulative flow-solver pivots. *)
}

val no_limits : limits

val limits :
  ?wall_seconds:float -> ?max_iterations:int -> ?max_pivots:int -> unit -> limits

type t

val start : limits -> t
(** A fresh meter; the wall clock starts now. Time is read from the
    monotonic clock ({!Mono}), so system-clock jumps can neither trip nor
    extend a wall-second budget. *)

val resume : limits -> elapsed:float -> iterations:int -> pivots:int -> t
(** A meter continuing a checkpointed run: the wall clock is backdated by
    [elapsed] seconds and the counters restored, so the resumed run only
    has whatever headroom the interrupted run had left. The trip state is
    re-derived from the restored meters on the next {!check}. *)

val tick_pivot : t -> bool
(** Count one solver pivot. [false] once any resource is exhausted — the
    solver should abort; the verdict is sticky and repeat calls stay
    [false]. *)

val tick_iteration : t -> unit
(** Count one outer iteration (does not itself trip the meter; pair with
    {!check}). *)

val iterations : t -> int
val pivots : t -> int
val elapsed : t -> float

val check : t -> Diag.error option
(** Re-reads every resource (including the wall clock) and returns the typed
    [Budget_exhausted] reason of the first exhausted one. *)

val exhausted : t -> bool
