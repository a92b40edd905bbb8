(** The daemon's in-memory result cache, bounded by a byte budget.

    Terminal results are journaled before they are cached, so the cache
    is purely an accelerator: when memory pressure evicts an entry (least
    recently used first), a later query for that key re-reads the result
    from the journal and re-warms the cache — idempotent resubmission
    stays correct at any budget, including zero.

    Every eviction ticks {!Minflo_robust.Perf.tick_eviction} and the
    cache's own counter (reported by the daemon's [stats] op), so a
    budget that is too small for the working set is visible, not
    silent. *)

type 'a t

val create : budget_bytes:int -> 'a t

val put : 'a t -> string -> 'a -> bytes:int -> unit
(** Insert (or replace) as most-recently-used, accounted at [bytes] —
    the rendered wire size of the stored response — then evict from the
    cold end until resident bytes fit the budget again. A single entry
    larger than the whole budget is evicted immediately. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit becomes most-recently-used. *)

val bytes : 'a t -> int
(** Resident total; [<= budget] always. *)

val entries : 'a t -> int
val budget : 'a t -> int

val evictions : 'a t -> int
(** Entries dropped under pressure so far. *)
