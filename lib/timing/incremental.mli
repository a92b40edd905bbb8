(** Incremental arrival-time maintenance under size changes.

    TILOS performs one size bump per iteration; recomputing the full STA
    each time costs [O(V+E)] even though a bump usually perturbs a small
    neighborhood. This engine keeps delays and arrival times current under
    {!set_size}: the bumped vertex and the fanins it loads get fresh
    delays, and the arrival change is propagated through a topologically
    ordered worklist over the delay model's CSR rows that stops as soon as
    values settle. Each recomputed arrival is EXACT — the same max a batch
    pass takes, not a toleranced update.

    Most of a wide circuit cannot reach the critical path, so propagation
    stays inside a certified near-critical cone. A re-sync settles
    everything, takes each vertex's longest path by one reverse sweep and
    defers the vertices whose longest path is more than 2.5 % short of the
    critical path; propagation then records, rather than settles, a change
    that reaches a deferred vertex. Every size change adds its delay
    increases to a bound on how far any deferred path can have grown, and
    the engine re-syncs before that bound comes within the
    critical-set tolerance of the critical path.

    A resize does not always settle either. When the last critical set is
    one path from a single worst sink to a source (a carry chain), the
    engine anchors: until a decision cannot be certified, {!set_size}
    updates the delays exactly and marks the vertices to re-propagate, and
    {!above} and {!critical_set} decide from the anchor's arrivals plus
    bounds on how far the members' delay changes can have moved each
    comparison they make. When a bound does not hold, or any other value
    is read, the marked vertices settle in one batch, which gives exactly
    the state a settle after every resize would have: the settled state is
    a pure function of the delays. The contract:

    - {!delay}, {!all_delays}, {!size} and {!sizes} are always exact and
      never settle, and neither do {!critical_vertex}, {!critical_reused},
      {!critical_pos}, {!touched_count} and {!touched_member}, which read
      the last {!critical_set}'s buffer and log;
    - {!above}, {!critical_set}, and the {!critical_fanin} and {!version}
      of each member of the last {!critical_set} (until the next
      {!set_size}) are bit-identical to a from-scratch batch {!Sta} pass.
      They settle nothing when a certificate covers them (see DESIGN
      §13); otherwise they settle the marked vertices first, but never the
      vertices outside the cone: members lie in the cone, where every
      value is exact;
    - {!critical_path} settles the marked vertices, and re-syncs the
      cone only when a resize would have;
    - {!arrival}, {!finish}, {!total_violation}, and {!critical_fanin} and
      {!version} of any other vertex settle everything first, so they too
      read exactly what a batch pass gives.

    That bit-equivalence is enforced by random-mutation differentials in
    the test suite, which check the decisions before any settling read,
    and by the fuzz oracle's [sta/incremental-mismatch] stage. Each
    worklist pop, in propagation or in settling deferred vertices, counts
    toward the [incr_updates] perf counter; each re-sync's reverse sweep
    ticks [sweeps]; each settle of a resize, or of the batch of resizes an
    anchor deferred, ticks [full_sweeps_avoided]. Alongside the arrivals the engine keeps each
    vertex's {!critical_fanin} and a {!version} stamp, which TILOS keys its
    sensitivity cache on. *)

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
(** Settles the deferred vertices first. *)

val finish : t -> int -> float
(** [arrival + delay]; settles first. *)

val critical_fanin : t -> int -> int
(** The fanin realizing the vertex's arrival: the first in CSR order with
    the largest finish (strict [>], starting from [neg_infinity]) — the
    rule of {!Sta.worst_path}. [-1] at a source. Exact; settles the
    deferred vertices first unless the vertex is a member of the last
    {!critical_set} and no {!set_size} came since. *)

val version : t -> int -> int
(** A per-vertex stamp that never decreases and moves whenever an input of
    the vertex's TILOS merit may have changed: its own size, a size its
    delay reads (it loads the resized vertex), its critical fanin's size
    (it is a fanout of the resized vertex), or its critical fanin itself
    (refreshed during settling). A value cached against an unchanged stamp
    is still the value a recompute would give. Settles first like
    {!critical_fanin}. *)

val set_size : t -> int -> float -> unit
(** Clamped to the model's bounds. Updates the delays; while anchored it
    only marks the vertices to re-propagate, otherwise it propagates
    inside the cone and re-syncs it when the deferred paths may have grown
    too close to the critical path. *)

val critical_path : t -> float
(** Maximum finish time over sink vertices. Settles the marked vertices
    and, as {!set_size} does, re-syncs the cone when the deferred paths
    may have grown too close to the critical path. *)

val above : t -> target:float -> bool
(** [not (critical_path t <= target)], TILOS's stop test. Decided without
    settling while a certificate bounds the critical path away from
    [target]; settles as {!critical_path} otherwise. *)

val total_violation : t -> target:float -> float
(** Sum over sinks of [max 0 (finish - target)]; settles first. *)

val critical_set : ?eps_rel:float -> t -> int
(** Vertices on some maximal-finish path: backward traversal from the
    worst sinks along tight edges ([arrival j = finish i] within the
    relative tolerance [eps_rel], default {!Tolerance.critical_rel}, the
    one TILOS bumps from). Equals the minimum-slack vertex set of the
    batch STA.

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
    is the walk's output.

    While anchored, a certified call returns the buffer as it stands
    ({!critical_reused}) without settling or scanning a sink. Otherwise
    the call settles the marked vertices, not the cone: its members lie in
    the cone. When the tolerance and the walk's depth reach past what the
    cone certifies, it re-syncs the cone and walks afresh. *)

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
