(** Minimum-cost flow problems.

    A problem is a directed network with integer arc capacities and costs and
    integer node supplies (positive = source, negative = sink). A feasible
    flow satisfies [0 <= flow a <= cap a] on every arc and, at every node,
    [outflow - inflow = supply]. The objective is to minimize
    [sum (cost a * flow a)].

    This is the substrate for the paper's D-phase: the FSDU-displacement LP
    (Eq. 10) is the LP dual of such a problem, and the optimal node
    potentials of the flow solution are exactly the displacement labels [r].

    Costs are plain [int]s (the D-phase integerizes real delays by scaling,
    Section 2.3.1); use {!val-infinite_capacity} for uncapacitated arcs. *)

type arc = { src : int; dst : int; cap : int; cost : int }

type problem = {
  num_nodes : int;
  arcs : arc array;
  supply : int array; (* length num_nodes *)
}

val infinite_capacity : int
(** A capacity treated as unbounded; large but safe against overflow. *)

type status =
  | Optimal
  | Infeasible  (** Supplies cannot be routed within the capacities. *)
  | Unbounded   (** A negative-cost cycle of unbounded capacity exists. *)
  | Aborted
      (** A run budget ({!Minflo_robust.Budget}) was exhausted mid-solve;
          the flow is partial and must not be used. *)

type solution = {
  status : status;
  flow : int array;      (** per-arc flow; meaningful when [Optimal]. *)
  potential : int array; (** optimal dual (node potentials), root-normalized. *)
  objective : int;       (** total cost of the returned flow. *)
}

val validate : problem -> unit
(** Checks array lengths, node indices, non-negative capacities.
    @raise Invalid_argument when malformed. *)

val is_balanced : problem -> bool
(** Whether supplies sum to zero (necessary for feasibility). *)

val check_feasible_flow :
  problem -> int array -> (unit, Minflo_robust.Diag.error) result
(** Verifies capacity and conservation constraints of a candidate flow;
    failures are typed [Invariant] diagnostics. *)

val flow_cost : problem -> int array -> int

val check_optimality :
  problem -> solution -> (unit, Minflo_robust.Diag.error) result
(** Verifies complementary slackness of [solution.flow] against
    [solution.potential]: reduced cost >= 0 on arcs below capacity and <= 0
    on arcs above zero flow. A test-suite checker: production code audits
    certificates through [Minflo_lint.Audit]. *)

val canonical_potentials : problem -> solution -> int array
(** The componentwise-maximal optimal dual with every potential capped at 0
    — a canonical representative of the optimal dual face, independent of
    which optimal basis the solver ended on. Warm-started and cold-started
    solves (and different solvers) therefore return bit-identical duals
    after canonicalization, which is what lets the warm-started engine
    reproduce the cold engine's trajectory exactly. One Dijkstra over the
    complementary-slackness constraint graph, using [solution.potential] as
    the Johnson reweighting. If [solution] is not an [Optimal] certificate
    (fault injection, solver bug), the raw potentials are returned
    unchanged so downstream divergence detectors still see the defect. *)
