(** Incremental arrival-time maintenance under size changes.

    TILOS performs one size bump per iteration; recomputing the full STA
    each time costs [O(V+E)] even though a bump usually perturbs a small
    neighborhood. This engine keeps delays and arrival times current under
    {!set_size}: the bumped vertex and the fanins it loads get fresh
    delays, and the arrival change is propagated through a topologically
    ordered worklist over the delay model's CSR rows that stops as soon as values
    settle. Propagation is EXACT — a vertex re-propagates whenever its
    recomputed arrival differs at all, not merely beyond a tolerance — so
    after every update the engine's delays and arrivals are bit-identical
    to a from-scratch batch {!Sta} pass (max-propagation is
    order-independent in floats, and the delay sums keep their coefficient
    order). That bit-equivalence is enforced by a 200-seed random-mutation
    differential in the test suite and by the fuzz oracle's
    [sta/incremental-mismatch] stage. Each worklist pop counts toward the
    [incr_updates] perf counter; each {!set_size} that settles ticks
    [full_sweeps_avoided]. Alongside the arrivals the engine keeps each
    vertex's {!critical_fanin} and a {!version} stamp, which TILOS keys
    its sensitivity cache on. *)

type t

val create : Minflo_tech.Delay_model.t -> sizes:float array -> t
(** The engine copies [sizes]; mutate through {!set_size} only. *)

val size : t -> int -> float

val sizes : t -> float array
(** A fresh copy of the current sizes. *)

val all_delays : t -> float array
(** A fresh copy of the current per-vertex delays — bit-identical to
    [Delay_model.delays model (sizes t)] without the O(E) recompute. *)

val delay : t -> int -> float
val arrival : t -> int -> float

val finish : t -> int -> float
(** [arrival + delay]. *)

val critical_fanin : t -> int -> int
(** The fanin realizing the vertex's arrival: the first in CSR order with
    the largest finish (strict [>], starting from [neg_infinity]) — the
    rule of {!Sta.worst_path}. [-1] at a source. Exact after
    every update, like the arrivals. *)

val version : t -> int -> int
(** A per-vertex stamp that never decreases and moves whenever an input of
    the vertex's TILOS merit may have changed: its own size, a size its
    delay reads (it loads the resized vertex), its critical fanin's size
    (it is a fanout of the resized vertex), or its critical fanin itself
    (refreshed during settling). A value cached against an unchanged stamp
    is still the value a recompute would give. *)

val set_size : t -> int -> float -> unit
(** Clamped to the model's bounds. *)

val critical_path : t -> float
(** Maximum finish time over sink vertices. *)

val total_violation : t -> target:float -> float
(** Sum over sinks of [max 0 (finish - target)]. *)

val critical_set : ?eps_rel:float -> t -> int
(** Vertices on some maximal-finish path: backward traversal from the
    worst sinks along tight edges ([arrival j = finish i] within a relative
    tolerance). Equals the minimum-slack vertex set of the batch STA.

    The walk fills an engine-owned buffer without allocating and returns
    its length; read it with {!critical_vertex}. Members come in
    depth-first preorder — sinks ascending, fanins in CSR order — and the
    next call overwrites the buffer.

    Reuse contract: each walk also records a certificate — the worst
    sinks, the tight bit of every fanin slot it read (a slot into a vertex
    already reached is skipped unread), the tolerance they were taken
    under and the slack margins on either side of it. {!set_size}
    rechecks the read slots of every member it re-propagates. When no
    read bit flipped, the worst sinks are unchanged and the call's
    tolerance lies within the margins, the walk would reproduce the buffer
    exactly, so the call returns it as it stands ({!critical_reused}) at
    the cost of two sink scans; otherwise it walks. Either way the buffer
    is the walk's output. *)

val critical_vertex : t -> int -> int
(** [critical_vertex t k] is the [k]-th member of the last {!critical_set}.
    @raise Invalid_argument unless [0 <= k <] that set's length. *)

(** {2 Reading what moved}

    For a caller that keeps a value per member (TILOS keeps its sensitivity
    argmax) and wants to update only the members whose {!version} moved
    when the buffer was reused. *)

val critical_reused : t -> bool
(** Whether the last {!critical_set} returned the previous call's buffer
    without walking. Members and positions are then unchanged. *)

val critical_pos : t -> int -> int
(** The vertex's position in the last {!critical_set}'s buffer, [-1] for a
    non-member. *)

val touched_count : t -> int
(** After a {!critical_set} that reused its buffer: the number of members
    whose {!version} moved between the previous call and that one, each
    counted once. [0] after a walk, and from the first member {!version}
    that moves after the call, which starts the next interval's log. *)

val touched_member : t -> int -> int
(** [touched_member t k] is the [k]-th of those members.
    @raise Invalid_argument unless [0 <= k <] {!touched_count}. *)
