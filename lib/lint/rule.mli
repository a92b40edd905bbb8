(** The lint rule catalog.

    Every finding the analyzer ({!Lint}) or the certificate auditor
    ({!Audit}) can produce carries one of these rules. Ids are stable — they
    appear in SARIF output, in [--fail-on] configuration, and in the README
    rule table — so renumbering is a breaking change.

    MF0xx rules are netlist structure; MF1xx rules are flow-certificate
    audits; MF20x rules are interval-bound analysis ({!Bounds}); MF21x
    rules are engine-trace audits ({!Trace}). *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
(** ["error" | "warning" | "info"]. *)

val severity_rank : severity -> int
(** [Error] = 2, [Warning] = 1, [Info] = 0; higher is worse. *)

val sarif_level : severity -> string
(** SARIF [level] values: ["error" | "warning" | "note"]. *)

type t = {
  id : string;        (** stable, e.g. ["MF001"] *)
  severity : severity;
  name : string;      (** short kebab-case slug, e.g. ["combinational-cycle"] *)
  summary : string;   (** one-line description for the catalog *)
}

val mf000_syntax : t
val mf001_cycle : t
val mf002_multi_driven : t
val mf003_undriven : t
val mf004_dangling_input : t
val mf005_dead_gate : t
val mf006_duplicate_decl : t
val mf007_fanout_bound : t
val mf008_tech_coverage : t
val mf009_empty_interface : t
val mf010_bad_arity : t

val mf101_flow_bounds : t
val mf102_conservation : t
val mf103_slackness : t
val mf104_objective : t
val mf105_not_optimal : t

val mf201_infeasible_target : t
val mf202_pinned_gate : t
val mf203_slack_irrelevant : t
val mf204_tech_non_monotone : t

val mf210_trace_malformed : t
val mf211_trace_claim : t
val mf212_trace_budget : t
val mf213_trace_progress : t
val mf214_trace_final : t
val mf215_trace_lp : t

val all : t list
(** The full catalog, in id order. *)
