(** Area-delay trade-off harness (Figure 7 and Table 1 of the paper).

    All quantities are normalized the way the paper plots them: delays as a
    fraction of the minimum-size circuit delay [Dmin], areas as a multiple
    of the minimum-size circuit area. *)

type point = {
  factor : float;         (** target / Dmin. *)
  target : float;
  tilos_area_ratio : float;    (** TILOS area / min area; [nan] if unmet. *)
  minflo_area_ratio : float;   (** MINFLOTRANSIT area / min area. *)
  saving_pct : float;          (** area saving of MINFLOTRANSIT over TILOS. *)
  tilos_met : bool;
  minflo_met : bool;
  iterations : int;
  tilos_seconds : float;
  minflo_extra_seconds : float;
      (** time of the D/W refinement on top of TILOS. *)
}

val dmin : Minflo_tech.Delay_model.t -> float
(** Delay of the minimum-size circuit. *)

val min_area : Minflo_tech.Delay_model.t -> float

val at_factor : Minflo_tech.Delay_model.t -> factor:float -> point
(** One Table 1 row: size with TILOS and MINFLOTRANSIT (default options)
    at [target = factor * Dmin], with wall-clock timing. *)

val curve : Minflo_tech.Delay_model.t -> factors:float list -> point list
(** The Figure 7 series. Infeasible factors yield points with
    [tilos_met = false]. *)

val print_curve : point list -> unit
(** Print points as a table on stdout: factor, TILOS and MINFLOTRANSIT
    area ratios, saving and iterations. *)

val table1_factor : Minflo_tech.Delay_model.t -> spec:float -> float
(** Table 1's row-selection rule, decided on TILOS alone. The paper reports
    rows whose area penalty is 1.5-1.75x the minimum-size circuit. A [spec]
    (delay factor) that TILOS cannot meet, or that already puts its penalty
    at 1.45x or more, is kept. Otherwise the factor tightens by 7 % a step
    (at most 14 steps) until the TILOS penalty reaches 1.5x, and stops at
    the last factor TILOS still meets. *)
