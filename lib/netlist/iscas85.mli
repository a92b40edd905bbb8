(** The evaluation suite of the paper: synthetic stand-ins for the ISCAS85
    benchmark circuits plus the ripple-carry adders, with the published
    Table 1 reference numbers attached.

    The original ISCAS85 netlists are not redistributable inside this
    repository, so each circuit is assembled from functional blocks that
    match the benchmark's documented role (c432 interrupt controller →
    priority logic; c499/c1355 → 32-bit SEC; c6288 → 16x16 multiplier; …)
    and padded with locality-biased random logic to the published gate
    count. Real [.bench] files can be used instead via
    {!Bench_format.parse_file}. See DESIGN.md for the substitution
    rationale. *)

type info = {
  name : string;
  description : string;
  gates_published : int;  (** "# Gates" column of Table 1. *)
  delay_spec : float;
      (** Table 1 delay target as a fraction of the minimum-size delay. *)
  paper_area_saving_pct : float;
      (** Paper-reported area saving of MINFLOTRANSIT over TILOS (%). *)
  paper_cpu_tilos_s : float;   (** Table 1 TILOS CPU seconds (UltraSparc 10). *)
  paper_cpu_ours_s : float;    (** Table 1 MINFLOTRANSIT CPU seconds. *)
}

val suite : info list
(** The 12 rows of Table 1, in the paper's order. *)

val find_info : string -> info option

val circuit : string -> Netlist.t
(** Builds the synthetic circuit for a Table 1 row name (e.g. ["c432"],
    ["adder32"]). Deterministic. @raise Invalid_argument for unknown
    names. *)
