(** Independent audit of a min-cost-flow certificate.

    Given any solver's {!Minflo_flow.Mcf.solution}, re-verifies from first
    principles — no second solve — that the solution actually proves what it
    claims:

    - MF101: every arc's flow is within [0, cap];
    - MF102: every node conserves flow against its supply;
    - MF103: complementary slackness of the flow against the returned node
      potentials. With reduced cost [rc a = cost a - pi (src a) + pi (dst a)],
      optimality requires [flow a < cap a => rc a >= 0] and
      [flow a > 0 => rc a <= 0]. Feasible flow + feasible potentials +
      slackness is a complete optimality certificate (LP duality), which is
      exactly why the D-phase can trust its displacement labels;
    - MF104: the reported objective equals [sum (cost a * flow a)];
    - MF105: the status is not [Optimal] (the other checks are then
      vacuous and are skipped).

    {!Minflo_flow.Mcf.check_optimality} answers pass/fail for the tests;
    this module produces per-violation {!Finding}s for reporting, with arc
    and node indices in [related]. *)

val check : Minflo_flow.Mcf.problem -> Minflo_flow.Mcf.solution -> Finding.t list
(** Empty list: the certificate is valid. Findings are capped at 32 per rule
    (a corrupted certificate can violate thousands of constraints); a
    closing finding under the same rule reports how many were truncated. *)

val capped : Rule.t -> (string * string list) list -> Finding.t list
(** [(message, related)] pairs as findings under one rule, truncated at 32
    with a closing count — shared by the bound analyzer and trace auditor,
    whose per-gate / per-arc findings have the same flooding problem. *)
