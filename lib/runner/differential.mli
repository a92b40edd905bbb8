(** Cross-solver differential verification: the one engine-level agreement
    check, run by [minflo batch --differential] ({!Batch.run}) and the fuzz
    oracle alike.

    A job runs twice, once with its own D-phase solver and once with an
    independent counterpart, and the two legs are compared with no
    tolerance. The engine canonicalizes the D-phase duals, so the step is
    independent of which exact solver found the optimum: two legs on exact
    rungs ([`Simplex], [`Ssp], [`Auto]) land on the same iterates and must
    agree bit for bit on met, area and iterations. [`Bellman_ford] is a
    feasibility repair whose area is no optimum, so a pair with a
    Bellman-Ford leg compares met only. A disagreement is a typed
    {!Minflo_robust.Diag.Differential_mismatch} with a stable code that
    tests, scripts and the journal key on. *)

val counterpart : Minflo_sizing.Dphase.solver -> Minflo_sizing.Dphase.solver
(** The independent solver to cross-check against: [`Ssp] for runs whose
    primary path is the network simplex ([`Simplex], [`Auto]) and for
    [`Bellman_ford]; [`Simplex] for [`Ssp]. *)

type leg = Minflo_sizing.Dphase.solver * bool * float * int
(** One run's [(solver, met, area, iterations)]. *)

val compare : job:string -> leg -> leg -> (unit, Minflo_robust.Diag.error) result
(** [Error (Differential_mismatch _)] naming the first of met, area and
    iterations on which the legs differ (by {!Int64.bits_of_float}); only
    met is compared when either leg is [`Bellman_ford]. *)
