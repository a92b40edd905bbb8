(** The tolerance contract: each float decision behind the paper's promises
    about a sizing is made here, once, and every engine check, auditor and
    oracle reads it. DESIGN.md §14 lists the callers, why each value, and
    the tolerances private to one algorithm that stay outside. *)

val meets : target:float -> float -> bool
(** [meets ~target cp] is [cp <= target * (1 + 1e-9)]: the critical path
    meets the target up to relative float noise. *)

val non_negative : float -> bool
(** [non_negative s] is [s >= -1e-6]: a slack or an FSDU counts as
    non-negative. *)

val safe : Sta.t -> bool
(** Every vertex slack is {!non_negative}: the paper's safe circuit, which
    the D-phase and FSDU balancing require. (Vertex slacks bound edge
    slacks from below: [esl(i->j) = RT(j) - AT(i) - delay(i) >= sl(i)].)
    The tolerance is absolute, so at transistor granularity, where delays
    reach 1e5–1e7, a sizing accepted through {!meets} can read unsafe here
    and the D-phase refuses it ("circuit unsafe"). Making it relative to
    the deadline is the known fix; it moves a frozen benchmark row. *)

val in_box : Minflo_tech.Delay_model.t -> float -> bool
(** [in_box model x]: [x] is finite and lies in
    [\[min_size - 1e-9, max_size + 1e-9\]]. *)

val budget_met : budget:float -> float -> bool
(** [budget_met ~budget d] is [d <= budget + 1e-6 + 1e-9 * |budget|]: a
    W-phase delay meets its D-phase budget. The relative term keeps the
    test above float rounding at transistor scale. *)

val critical_rel : float
(** [1e-7]: the relative tolerance ({!Incremental.critical_set}'s
    [eps_rel]) of the near-critical set TILOS bumps from and the fuzz
    oracle compares. *)
