(** Deterministic performance counters for the flow/sizing hot paths.

    A single ambient set of monotonically increasing counters, ticked from
    the inner loops of the solvers and engines:

    - [pivots]: network-simplex basis exchanges;
    - [relabels]: potential-update rounds (SSP Johnson updates, cost-scaling
      relabels, Bellman-Ford passes);
    - [sweeps]: full forward/backward STA passes over the timing graph;
    - [bumps]: TILOS size bumps;
    - [warm_starts] / [cold_starts]: how often a flow solve could reuse a
      previous basis / had to rebuild it from scratch;
    - [cache_hits] / [cache_misses]: shared-state reuse across requests —
      the {!Minflo_tech.Model_cache} delay-model cache and the serve
      daemon's result cache both tick these;
    - [rejections]: admission-control rejections (bounded-queue overload,
      drain refusals, pre-flight lint gating) by the serve daemon;
    - [evictions]: result-cache entries dropped under the daemon's memory
      byte budget (LRU; the journal still holds every evicted result);
    - [incr_updates]: vertices the incremental timing engine
      ({!Minflo_timing.Incremental}) recomputed — worklist pops inside its
      near-critical cone, plus those that settle its deferred vertices
      before an exact read or a re-sync of the cone (whose reverse sweep
      ticks [sweeps]); the incremental counterpart of a [sweeps] tick,
      which touches every vertex;
    - [full_sweeps_avoided]: times a full STA pass was skipped because
      incremental propagation settled the change, or an already-computed
      analysis was reused (the D-phase handing its safety-probe STA to the
      FSDU balancer);
    - [arcs_priced]: reduced costs the network simplex computed to choose
      entering arcs (candidate re-pricings, block scans and the cut
      seeding after each pivot);
    - [potential_writes]: node potentials the network simplex shifted
      after its pivots.

    The two simplex counters are added once per pricing call or per shift,
    with that call's count, so the pivot loop does no per-arc counting.

    Unlike wall time, every one of these is a pure function of the inputs,
    so two identical runs produce identical counters — the property the
    bench baseline ([BENCH_pr38.json]) and the CI bench-smoke job rely on.
    Wall time is measured separately via {!Mono} and never compared.

    The counters are process-global on purpose: threading a record through
    every solver call would put an argument on the hottest paths for a
    debug-observability feature. Readers that need a per-region view take a
    {!snapshot} before and {!diff} after. *)

type counters = {
  mutable pivots : int;
  mutable relabels : int;
  mutable sweeps : int;
  mutable bumps : int;
  mutable warm_starts : int;
  mutable cold_starts : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable rejections : int;
  mutable evictions : int;
  mutable incr_updates : int;
  mutable full_sweeps_avoided : int;
  mutable arcs_priced : int;
  mutable potential_writes : int;
}

val zero : unit -> counters
(** A fresh all-zero counter record (not the ambient one). *)

val current : counters
(** The ambient process-global counters. Mutated by the [tick_*] family. *)

val snapshot : unit -> counters
(** A copy of {!current} at this instant. *)

val diff : counters -> counters -> counters
(** [diff before after] — counters spent between two snapshots. *)

val add : counters -> counters -> counters

val tick_pivot : unit -> unit
val tick_relabel : unit -> unit
val tick_sweep : unit -> unit
val tick_bump : unit -> unit
val tick_warm_start : unit -> unit
val tick_cold_start : unit -> unit
val tick_cache_hit : unit -> unit
val tick_cache_miss : unit -> unit
val tick_rejection : unit -> unit
val tick_eviction : unit -> unit
val tick_full_sweep_avoided : unit -> unit

val tick_arcs_priced : int -> unit
(** [tick_arcs_priced k] adds [k] to [arcs_priced]. *)

val tick_potential_writes : int -> unit
(** [tick_potential_writes k] adds [k] to [potential_writes]. *)

val to_fields : counters -> (string * int) list
(** [(name, value)] pairs in a fixed order — the serialization used by the
    journal ([job-perf] events) and the bench JSON. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and returns its result with the elapsed monotonic
    wall time in seconds ({!Mono}). *)
