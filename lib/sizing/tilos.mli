(** The TILOS baseline [1, 15]: sensitivity-guided greedy upsizing.

    Starting from minimum sizes, repeatedly pick the critical-path vertex
    whose upsizing by the bump factor buys the most local path-delay
    reduction per unit of added area, and bump it — until the target delay
    is met or no critical vertex helps. The paper seeds MINFLOTRANSIT with
    a TILOS solution (bump 1.1) and reports TILOS as the baseline that
    MINFLOTRANSIT's area savings are measured against. *)

type result = {
  sizes : float array;
  met : bool;           (** target delay achieved *)
  bumps : int;          (** upsizing steps taken *)
  final_cp : float;
  area : float;
}

val size :
  ?bump:float (* default 1.1, as in Section 3 *) ->
  ?budget:Minflo_robust.Budget.t (* each bump ticks it; exhaustion stops the
                                    greedy with the best-so-far sizing *) ->
  ?init:float array (* resume from an existing sizing instead of minimum *) ->
  Minflo_tech.Delay_model.t ->
  target:float ->
  result
(** Stops once the target is met, no critical vertex helps, the budget
    trips, or after 2 000 000 bumps, whichever comes first. *)
