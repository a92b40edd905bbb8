(** Structural netlist mutations for the fuzzing harness.

    Each operation takes a valid netlist and produces a structurally
    different valid netlist — functional equivalence is deliberately {e not}
    preserved; the point is to reach circuit shapes the parametric
    generators never emit (reconvergent rewires, spliced buffers on critical
    edges, degenerate fanin stacks, deep inverter chains, multiply-marked
    outputs). Everything is drawn from a caller-supplied
    {!Minflo_util.Rng.t}, so a mutation trail replays exactly from a seed.

    Mutations are implemented as edits on the {!Raw} declaration list
    followed by re-elaboration: an edit that cannot produce a valid netlist
    (arity violation, accidental cycle) is discarded, never returned. *)

type op =
  | Splice       (** interpose a fresh BUF/NOT pair on one fanin edge. *)
  | Swap_kind    (** change one gate's kind, respecting its arity. *)
  | Rewire       (** redirect one fanin to an earlier signal (reconvergence). *)
  | Deep_chain   (** grow an inverter chain off a signal into a new output. *)
  | Widen        (** add extra fanins to an n-ary gate (stack-depth stress). *)
  | Dup_output   (** mark an internal gate as an additional primary output. *)

val mutate : seed:int -> rounds:int -> Netlist.t -> Netlist.t
(** [rounds] random operations drawn uniformly from every {!op},
    deterministically from [seed]. A draw that does not apply (e.g.
    {!Swap_kind} on a netlist with no gates) or whose edit fails
    re-elaboration is skipped; the input is never modified. The result is
    always valid; with [rounds = 0] it is the input netlist. *)
