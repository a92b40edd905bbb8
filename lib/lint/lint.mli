(** Multi-pass static analysis of raw (pre-elaboration) netlists.

    Runs on {!Minflo_netlist.Raw.t} — the form both parsers produce before
    name resolution — because the defects worth reporting (combinational
    cycles, multi-driven nets, undriven signals) cannot exist in an
    elaborated {!Minflo_netlist.Netlist.t}, which is a DAG by construction.
    Generated circuits can be linted through
    {!Minflo_netlist.Raw.of_netlist}.

    Passes and their rules:
    - MF001 combinational cycles (Tarjan SCC over the signal graph; each
      finding names every member of the cycle)
    - MF002 multi-driven nets, MF003 undriven nets, MF006 duplicate input
      declarations
    - MF004 dangling primary inputs
    - MF005 dead gates (no primary output reachable)
    - MF007 fanout bound (opt-in via {!config})
    - MF008 technology coverage (gate arity vs. {!Minflo_tech.Tech.t}
      [max_stack])
    - MF009 empty interface, MF010 gate arity
    - MF204 technology-model monotonicity ({!Bounds.check_tech}, run
      whenever a technology is configured)

    The target-dependent interval-bound rules (MF201–MF203) need a delay
    target and an elaborated model, so they live in {!Bounds.check} and are
    wired in by the CLI, the server admission gate and the batch
    preflight rather than here. *)

type config = {
  fanout_bound : int option;
      (** warn (MF007) when a signal's gate-fanin count exceeds this;
          [None] disables the pass *)
  tech : Minflo_tech.Tech.t option;
      (** technology for the MF008 coverage pass; [None] disables it *)
}

val default_config : config
(** No fanout bound; MF008 against {!Minflo_tech.Tech.default_130nm}. *)

val check : ?config:config -> Minflo_netlist.Raw.t -> Finding.t list
(** All findings, in {!Finding.compare} order. An empty list means the
    netlist is lint-clean. *)
