(** Delta-debugging reduction of a failing netlist.

    [shrink ~keep nl] searches for a smaller netlist on which [keep] still
    holds (in the campaign, [keep] is "the oracle still reports the same
    fingerprint"). The reduction lattice, tried in order inside a
    to-fixpoint loop:

    - {e gate removal} (ddmin over chunks, halving): a removed gate's
      output signal is substituted by its first fanin everywhere it is
      read (and in the output list), so the candidate stays structurally
      plausible; re-elaboration rejects anything invalid;
    - {e fanin truncation}: each gate's fanin list cut to its kind's
      minimum arity;
    - {e output trimming}: surplus primary outputs dropped (one always
      remains);
    - {e input pruning}: primary inputs no gate reads are dropped.

    Every accepted step strictly decreases the lexicographic measure
    (gates, total fanins, outputs, inputs), so shrinking terminates; the
    [max_checks] budget bounds the number of [keep] evaluations (each of
    which may run a full oracle) on top of that. The result always
    satisfies [keep] — when nothing smaller does, it is the input
    unchanged. *)

val shrink :
  ?max_checks:int ->
  keep:(Minflo_netlist.Netlist.t -> bool) ->
  Minflo_netlist.Netlist.t ->
  Minflo_netlist.Netlist.t
(** [max_checks] defaults to 1000. [keep] is never called on the input
    itself — the caller asserts it holds there. *)
