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

let zero () =
  { pivots = 0;
    relabels = 0;
    sweeps = 0;
    bumps = 0;
    warm_starts = 0;
    cold_starts = 0;
    cache_hits = 0;
    cache_misses = 0;
    rejections = 0;
    evictions = 0;
    incr_updates = 0;
    full_sweeps_avoided = 0;
    arcs_priced = 0;
    potential_writes = 0 }

let current = zero ()

let snapshot () =
  { pivots = current.pivots;
    relabels = current.relabels;
    sweeps = current.sweeps;
    bumps = current.bumps;
    warm_starts = current.warm_starts;
    cold_starts = current.cold_starts;
    cache_hits = current.cache_hits;
    cache_misses = current.cache_misses;
    rejections = current.rejections;
    evictions = current.evictions;
    incr_updates = current.incr_updates;
    full_sweeps_avoided = current.full_sweeps_avoided;
    arcs_priced = current.arcs_priced;
    potential_writes = current.potential_writes }

let diff before after =
  { pivots = after.pivots - before.pivots;
    relabels = after.relabels - before.relabels;
    sweeps = after.sweeps - before.sweeps;
    bumps = after.bumps - before.bumps;
    warm_starts = after.warm_starts - before.warm_starts;
    cold_starts = after.cold_starts - before.cold_starts;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    rejections = after.rejections - before.rejections;
    evictions = after.evictions - before.evictions;
    incr_updates = after.incr_updates - before.incr_updates;
    full_sweeps_avoided = after.full_sweeps_avoided - before.full_sweeps_avoided;
    arcs_priced = after.arcs_priced - before.arcs_priced;
    potential_writes = after.potential_writes - before.potential_writes }

let add a b =
  { pivots = a.pivots + b.pivots;
    relabels = a.relabels + b.relabels;
    sweeps = a.sweeps + b.sweeps;
    bumps = a.bumps + b.bumps;
    warm_starts = a.warm_starts + b.warm_starts;
    cold_starts = a.cold_starts + b.cold_starts;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    rejections = a.rejections + b.rejections;
    evictions = a.evictions + b.evictions;
    incr_updates = a.incr_updates + b.incr_updates;
    full_sweeps_avoided = a.full_sweeps_avoided + b.full_sweeps_avoided;
    arcs_priced = a.arcs_priced + b.arcs_priced;
    potential_writes = a.potential_writes + b.potential_writes }

let tick_pivot () = current.pivots <- current.pivots + 1
let tick_relabel () = current.relabels <- current.relabels + 1
let tick_sweep () = current.sweeps <- current.sweeps + 1
let tick_bump () = current.bumps <- current.bumps + 1
let tick_warm_start () = current.warm_starts <- current.warm_starts + 1
let tick_cold_start () = current.cold_starts <- current.cold_starts + 1
let tick_cache_hit () = current.cache_hits <- current.cache_hits + 1
let tick_cache_miss () = current.cache_misses <- current.cache_misses + 1
let tick_rejection () = current.rejections <- current.rejections + 1
let tick_eviction () = current.evictions <- current.evictions + 1

let tick_full_sweep_avoided () =
  current.full_sweeps_avoided <- current.full_sweeps_avoided + 1

let tick_arcs_priced k = current.arcs_priced <- current.arcs_priced + k

let tick_potential_writes k =
  current.potential_writes <- current.potential_writes + k

let to_fields c =
  [ ("pivots", c.pivots);
    ("relabels", c.relabels);
    ("sweeps", c.sweeps);
    ("bumps", c.bumps);
    ("warm_starts", c.warm_starts);
    ("cold_starts", c.cold_starts);
    ("cache_hits", c.cache_hits);
    ("cache_misses", c.cache_misses);
    ("rejections", c.rejections);
    ("evictions", c.evictions);
    ("incr_updates", c.incr_updates);
    ("full_sweeps_avoided", c.full_sweeps_avoided);
    ("arcs_priced", c.arcs_priced);
    ("potential_writes", c.potential_writes) ]

let timed f =
  let t0 = Mono.now () in
  let v = f () in
  (v, Mono.now () -. t0)
