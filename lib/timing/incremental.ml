module Delay_model = Minflo_tech.Delay_model
module Perf = Minflo_robust.Perf

(* A constraint of a chain anchor (see [certify]): a margin that must stay
   positive, [base] plus the members' delay changes over buffer positions
   [[first, past)], less the current delays of [a], [b] and [c], less the
   sum [P] of the delay increases when [grown] may have moved (-1 for no
   vertex). [margin0] is its value at the anchor. *)
type con = {
  base : float;
  first : int;
  past : int;
  a : int;
  b : int;
  c : int;
  grown : int;
  margin0 : float;
}

type t = {
  model : Delay_model.t;
  x : float array;
  delays : float array;
  at : float array;
  (* per vertex, the first fanin in CSR order with the largest finish
     (strict [>] from [neg_infinity]); -1 at a source. Made by [create],
     refreshed by [settle] from the same max that sets the arrival. *)
  cfanin : int array;
  (* per-vertex version: bumped whenever an input of the vertex's TILOS
     merit may have moved — its size, a size its delay reads, its critical
     fanin's size, or its critical fanin itself. Never decreases. *)
  version : int array;
  (* worklist: dirty flags indexed by TOPO POSITION plus the dirty window
     [lo, hi]. Settling scans the window in ascending position — exactly
     the order a min-heap keyed by position pops, with O(1) insert and no
     per-element heap or hash traffic. *)
  dirty : bool array;
  mutable lo : int;
  mutable hi : int;
  (* [critical_set] state: each vertex's position in the buffer of the
     last walk (-1 for a non-member; doubles as the walk's visited mark),
     the output buffer and the explicit DFS stack of (vertex, next fanin
     slot) frames *)
  cpos : int array;
  crit : int array;
  mutable crit_len : int;
  stk_v : int array;
  stk_c : int array;
  (* the certificate that the buffer is still the walk (see
     [critical_set]): per fanin slot of each member what the walk read
     there ([slot_tight], [slot_loose] under [cert.(eps_ref)], or
     [slot_unread]); the margins [cert.(tight_max)] (largest slack of a
     tight read) and [cert.(loose_min)] (smallest slack of a loose one);
     the walk's worst sinks, ascending; and [stale], set when no walk is
     recorded or a read bit flipped since. The floats sit in an array
     because a mutable float field would box on every write. [reused]:
     the last call returned the buffer without walking. *)
  slots : Bytes.t;
  cert : float array;
  worst : int array;
  mutable worst_len : int;
  mutable stale : bool;
  mutable reused : bool;
  (* members whose version moved since the previous [critical_set], each
     once ([logged] marks them); [published] once that call has returned,
     so the next touch starts a fresh log *)
  tlog : int array;
  mutable tlog_len : int;
  logged : Bytes.t;
  mutable published : bool;
  (* the near-critical cone (see [resync]): per vertex its tail — the
     longest delay from its input to the end of a path, taken at the last
     re-sync — and its state ([live], [deferred], or [pending]: deferred
     and skipped by a [push] since); the pending vertices in push order;
     in [theta.(0)] (an array, so writes do not box) a bound below which
     every path through a deferred vertex stays; [flushing] while [flush]
     settles the pending vertices, when no push is skipped; [depth], the
     deepest frame of the last walk; [cone], set by [critical_set] and
     cleared by a resize, while that set's members are known exact *)
  tail : float array;
  state : Bytes.t;
  pend : int array;
  mutable pend_len : int;
  theta : float array;
  mutable flushing : bool;
  mutable depth : int;
  mutable cone : bool;
  (* deferred settling (see [certify]): [anchored] while a chain anchor
     stands, when a resize only updates the delays and marks the dirty
     window; [chain], the anchor chain's length; [fen], a Fenwick tree
     over its buffer positions of the members' delay changes since the
     anchor; [dacc], the float scalars at the [d_*] indices; [plo], the
     lowest topological position made pending since the anchor, taken
     from the pending list past [pend_seen] (the dirty window's [lo]
     holds the lowest one marked); [updates], the [fen] additions since
     it; [near], the anchor's [near_len] constraints of smallest margin,
     ascending, in an array made at the first anchor; [cached]
     while [dacc]'s certificate is the current state's; [lifetime], the
     critical sets the anchor certified; [backoff] and [skip], how many chain
     picks to let pass without anchoring after anchors that certified
     nothing *)
  mutable anchored : bool;
  mutable chain : int;
  mutable fen : float array;
  mutable dacc : float array;
  mutable plo : int;
  mutable pend_seen : int;
  mutable updates : int;
  mutable near : con array;
  mutable near_len : int;
  mutable cached : bool;
  mutable lifetime : int;
  mutable backoff : int;
  mutable skip : int;
}

(* indices into [cert] *)
let eps_ref = 0
let tight_max = 1
let loose_min = 2

(* what the walk read at a fanin slot *)
let slot_loose = '\000'
let slot_tight = '\001'
let slot_unread = '\002'

(* a vertex's cone state *)
let live = '\000'
let deferred = '\001'
let pending = '\002'

(* the cone's margin [M]: a re-sync defers the vertices whose longest path
   is shorter than [(1 - margin) * cp]. Of 1, 2, 3, 5 and 10 %, 2-3 %
   settled the fewest vertices on a 10k-gate random DAG and on c1908 at
   transistor granularity. *)
let margin = 0.025

(* indices into [dacc]: the sums of the delay increases and of the
   decreases since the anchor; the anchor's critical path; the smallest
   anchor margin of a far constraint; and, cached by [certify], the
   smallest certified margin, the estimate of the exact critical path and
   the rounding allowance *)
let d_inc = 0
let d_dec = 1
let d_cp = 2
let d_far = 3
let d_min = 4
let d_cpe = 5
let d_rnd = 6

(* the near constraints evaluated on every decision; the others share one
   bound. On rca4096, 16, 32, 64 and 128 settle 71.0, 37.3, 21.7 and 13.5
   vertices per bump for a TILOS wall of 0.42-0.44, 0.37-0.50, 0.21-0.41
   and 0.23-0.24 s: 64 and 128 read alike, and the smaller stays *)
let near_cap = 64

(* the longest run of chain picks, [2^max_backoff], that an anchor which
   certified nothing makes the next one wait. Random DAGs have chain-shaped
   critical sets whose anchors almost never certify: without the wait
   dag10k anchors 2 349 times and its TILOS takes 0.42-0.48 s against
   0.25-0.31 s, dag50k 6 239 times for 5.0-5.3 s against 3.1-4.1 s (three
   alternating calls each). With a cap of 4, 8 and 12 dag10k anchors 144,
   16 and 11 times, dag50k 374, 36 and 17 times.
   On rca1024 the waits cost 3 % more vertex updates (159 729 against
   154 504) at the same wall. *)
let max_backoff = 8

let clear_log t =
  for k = 0 to t.tlog_len - 1 do
    Bytes.unsafe_set t.logged t.tlog.(k) '\000'
  done;
  t.tlog_len <- 0;
  t.published <- false

let touch t v =
  t.version.(v) <- t.version.(v) + 1;
  if t.cpos.(v) >= 0 then begin
    if t.published then clear_log t;
    if Bytes.unsafe_get t.logged v = '\000' then begin
      Bytes.unsafe_set t.logged v '\001';
      t.tlog.(t.tlog_len) <- v;
      t.tlog_len <- t.tlog_len + 1
    end
  end

(* Re-max [v]'s fanins: point [cfanin.(v)] at the first fanin in CSR order
   with the largest finish — strict [>] from [neg_infinity], the rule
   [Sta.worst_path] backtraces by; -1 at a source — touching [v] if that
   fanin changed, and return its finish ([neg_infinity] at a source). *)
let[@inline] remax t v =
  let m = t.model in
  let best = ref (-1) and best_f = ref neg_infinity in
  for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
    let u = m.fanin.(c) in
    let f = t.at.(u) +. t.delays.(u) in
    if f > !best_f then begin
      best_f := f;
      best := u
    end
  done;
  if !best <> t.cfanin.(v) then begin
    t.cfanin.(v) <- !best;
    touch t v
  end;
  !best_f

let make (model : Delay_model.t) ~sizes =
  let n = model.n in
  if Array.length sizes <> n then
    invalid_arg "Incremental.create: wrong sizes length";
  let x = Array.copy sizes in
  let delays = Array.make n 0.0 in
  Delay_model.delays_into model x delays;
  let at = Array.make n 0.0 in
  Delay_model.arrivals_into model ~delays at;
  let t =
    { model;
      x;
      delays;
      at;
      cfanin = Array.make n (-1);
      version = Array.make n 0;
      dirty = Array.make n false;
      lo = n;
      hi = -1;
      cpos = Array.make n (-1);
      crit = Array.make n 0;
      crit_len = 0;
      stk_v = Array.make n 0;
      stk_c = Array.make n 0;
      slots = Bytes.make (Array.length model.fanin) slot_unread;
      cert = [| 0.0; neg_infinity; infinity |];
      worst = Array.make (Array.length model.sinks) 0;
      worst_len = 0;
      stale = true;
      reused = false;
      tlog = Array.make n 0;
      tlog_len = 0;
      logged = Bytes.make n '\000';
      published = false;
      tail = Array.make n 0.0;
      state = Bytes.make n live;
      pend = Array.make n 0;
      pend_len = 0;
      theta = [| neg_infinity |];
      flushing = false;
      depth = 0;
      cone = false;
      anchored = false;
      chain = 0;
      fen = [||];
      dacc = [||];
      plo = n;
      pend_seen = 0;
      updates = 0;
      near = [||];
      near_len = 0;
      cached = false;
      lifetime = 0;
      backoff = 0;
      skip = 0 }
  in
  for v = 0 to n - 1 do
    ignore (remax t v)
  done;
  t

let size t i = t.x.(i)
let sizes t = Array.copy t.x
let all_delays t = Array.copy t.delays
let delay t i = t.delays.(i)

(* the stored finish, exact or deferred; inlined so the engine's own loops
   read finishes without boxing them *)
let[@inline] fin t i = t.at.(i) +. t.delays.(i)

(* Mark [v] for settling. A deferred vertex is only recorded as pending,
   once, unless [flush] is settling the pending ones or it is a member of
   the last critical set, whose slots the walk certificate must see. *)
let push t v =
  let s = Bytes.unsafe_get t.state v in
  if s = live || t.flushing || t.cpos.(v) >= 0 then begin
    let p = t.model.pos.(v) in
    if not t.dirty.(p) then begin
      t.dirty.(p) <- true;
      if p < t.lo then t.lo <- p;
      if p > t.hi then t.hi <- p
    end
  end
  else if s = deferred then begin
    Bytes.unsafe_set t.state v pending;
    t.pend.(t.pend_len) <- v;
    t.pend_len <- t.pend_len + 1
  end

(* Member [v]'s fanin slacks may have moved: re-derive the tight bit of
   each slot the walk read, under the recorded [eps_ref]. A bit that
   differs from the walk's makes the certificate stale; otherwise the slack
   widens the margin on its side. A NaN slack is loose and widens
   nothing. *)
let recheck t v =
  let m = t.model and cert = t.cert in
  let eps = cert.(eps_ref) and at_v = t.at.(v) in
  for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
    let read = Bytes.unsafe_get t.slots c in
    if read <> slot_unread then begin
      let u = m.fanin.(c) in
      let s = abs_float (t.at.(u) +. t.delays.(u) -. at_v) in
      let tight = s <= eps in
      if tight <> (read = slot_tight) then t.stale <- true
      else if tight then begin
        if s > cert.(tight_max) then cert.(tight_max) <- s
      end
      else if s < cert.(loose_min) then cert.(loose_min) <- s
    end
  done

(* Propagate arrival changes in topological order: scan the dirty window
   ascending, recomputing each dirty vertex's arrival EXACTLY from its
   fanins' stored finishes — the same max the batch sweep computes, not a
   toleranced update. Marking a fanout extends the window ([t.hi] is re-read
   every step); fanouts sit at strictly greater positions, so each vertex is
   processed at most once with all its fanins final. A vertex's fanin
   finishes move only when it is marked, so refreshing its critical fanin
   here keeps [cfanin] in step with the arrivals, and rechecking a popped
   member's slots keeps the critical-set certificate sound. With no vertex
   pending (see [push]) the state after [settle] bit-matches a from-scratch
   {!Sta.arrivals}. *)
let settle t =
  let m = t.model in
  let pops = ref 0 in
  let p = ref t.lo in
  while !p <= t.hi do
    if t.dirty.(!p) then begin
      t.dirty.(!p) <- false;
      let v = m.topo.(!p) in
      incr pops;
      (* [max 0 best]: the float the batch sweep's [>]-from-0 max yields *)
      let best = remax t v in
      let fresh = if best > 0.0 then best else 0.0 in
      if fresh <> t.at.(v) then begin
        t.at.(v) <- fresh;
        for c = m.fanout_off.(v) to m.fanout_off.(v + 1) - 1 do
          push t m.fanout.(c)
        done
      end;
      if (not t.stale) && t.cpos.(v) >= 0 then recheck t v
    end;
    incr p
  done;
  Perf.current.incr_updates <- Perf.current.incr_updates + !pops;
  t.lo <- m.n;
  t.hi <- -1

(* the stored critical path: the largest stored sink finish, from 0 *)
let stored_cp t =
  let m = t.model in
  let best = ref 0.0 in
  for k = 0 to Array.length m.sinks - 1 do
    let f = fin t m.sinks.(k) in
    if f > !best then best := f
  done;
  !best

(* [theta] plus [slop] still falls short of the stored critical path [cp] *)
let[@inline] within_cone t ~cp ~slop = t.theta.(0) +. slop < cp

(* End a deferral: settle the dirty window as one batch, which gives the
   same state as settling after every resize (the settled state is a pure
   function of the delays), then make [set_size]'s cone test, which the
   deferred resizes skipped: they grew [theta] even when they marked
   nothing. An anchor that certified no decision doubles the number of
   chain picks the next anchor waits for. *)
let rec undefer t =
  if t.anchored then begin
    t.anchored <- false;
    if t.lifetime = 0 then begin
      if t.backoff < max_backoff then t.backoff <- t.backoff + 1;
      t.skip <- 1 lsl t.backoff
    end
    else t.backoff <- 0;
    if t.lo <= t.hi then begin
      Perf.tick_full_sweep_avoided ();
      settle t
    end;
    recone t
  end

(* After a settle: re-sync once [theta + (h + 3) eps] reaches the stored
   critical path. The slop is [critical_set]'s at the TILOS tolerance, so
   that call seldom finds the cone too thin to trust (see [resync]). *)
and recone t =
  let cp = stored_cp t in
  let eps = Tolerance.critical_rel *. (1.0 +. cp) in
  if not (within_cone t ~cp ~slop:(float (t.depth + 3) *. eps)) then resync t

(* Settle the deferred window, then the pending vertices and everything
   their arrivals reach: the whole state is then exact. They stay
   deferred. *)
and flush t =
  undefer t;
  if t.pend_len > 0 then begin
    t.flushing <- true;
    for k = 0 to t.pend_len - 1 do
      let v = t.pend.(k) in
      Bytes.unsafe_set t.state v deferred;
      push t v
    done;
    t.pend_len <- 0;
    settle t;
    t.flushing <- false
  end

(* Re-sync the near-critical cone. After [flush] the state is exact; one
   reverse sweep then takes each vertex's tail [R(v) = d(v) + max (0, R of
   its fanouts)], an upper bound on the delay from its input to the end of
   any path, so [at(v) + R(v)] bounds every path through [v]. The vertices
   whose bound falls short of [(1 - margin) * cp] are deferred: [push]
   skips them until the next flush, unless they are members of the last
   critical set. [theta.(0)] starts at the largest bound of a deferred
   vertex ([neg_infinity] when none is) and [set_size] adds every delay
   increase to it.

   Why every value a decision reads stays exact. No path, and no tail, has
   grown by more than the sum [D] of the delay increases since the
   re-sync, so a deferred vertex's true longest path stays below [theta],
   and so does its stored arrival plus its current tail (its arrival was
   exact when last settled, and later shifts on its paths sum to at most
   [D]). By induction in topological order every vertex either holds its
   exact arrival, or has both its stored and its exact arrival plus tail
   below [theta]. A vertex whose longest path reaches [theta] is therefore
   exact, with its exact critical fanin: a stale fanin finish lies strictly
   below its arrival. [recone] re-syncs as soon as [theta + (h + 3) eps]
   reaches the stored critical path ([eps] at the TILOS tolerance, [h]
   the depth of the last walk); until then the sinks within [2 eps] of it,
   and so the critical path, are exact. [critical_set] makes the same test
   at its own tolerance (see [cone_exact]). The slop also covers the
   rounding of the tail sums, which is many orders of magnitude
   smaller. *)
and resync t =
  flush t;
  Perf.tick_sweep ();
  let m = t.model in
  let cut = (1.0 -. margin) *. stored_cp t in
  let longest = ref neg_infinity in
  for p = m.n - 1 downto 0 do
    let v = m.topo.(p) in
    let r = ref 0.0 in
    for c = m.fanout_off.(v) to m.fanout_off.(v + 1) - 1 do
      let rw = t.tail.(m.fanout.(c)) in
      if rw > !r then r := rw
    done;
    let tail = t.delays.(v) +. !r in
    t.tail.(v) <- tail;
    let len = t.at.(v) +. tail in
    if len < cut then begin
      Bytes.unsafe_set t.state v deferred;
      if len > !longest then longest := len
    end
    else Bytes.unsafe_set t.state v live
  done;
  t.theta.(0) <- !longest

(* the sum of the members' delay changes since the anchor over buffer
   positions [[0, k)] *)
let[@inline] prefix t k =
  let s = ref 0.0 and i = ref k in
  while !i > 0 do
    s := !s +. t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* a delay change of [dd] at [v] while anchored: into the sums, and into
   [fen] at a member's buffer position *)
let note t v dd =
  if dd > 0.0 then t.dacc.(d_inc) <- t.dacc.(d_inc) +. dd
  else t.dacc.(d_dec) <- t.dacc.(d_dec) -. dd;
  let k = t.cpos.(v) in
  if k >= 0 then begin
    let i = ref (k + 1) in
    while !i <= t.chain do
      t.fen.(!i) <- t.fen.(!i) +. dd;
      i := !i + (!i land - !i)
    done;
    t.updates <- t.updates + 1
  end

let set_size t i nx =
  let nx = min t.model.max_size (max t.model.min_size nx) in
  if nx <> t.x.(i) then begin
    t.x.(i) <- nx;
    t.cone <- false;
    t.cached <- false;
    let m = t.model in
    let refresh v =
      touch t v;
      let d = Delay_model.delay m t.x v in
      let old = t.delays.(v) in
      if d <> old then begin
        t.delays.(v) <- d;
        if d > old then t.theta.(0) <- t.theta.(0) +. (d -. old);
        if t.anchored then note t v (d -. old);
        (* the vertex's own finish moved: its arrival is unchanged but its
           fanouts must re-max *)
        for c = m.fanout_off.(v) to m.fanout_off.(v + 1) - 1 do
          push t m.fanout.(c)
        done
      end
    in
    refresh i;
    for c = m.loader_off.(i) to m.loader_off.(i + 1) - 1 do
      refresh m.loader_k.(c)
    done;
    (* a fanout's merit reads this size when this is its critical fanin *)
    for c = m.fanout_off.(i) to m.fanout_off.(i + 1) - 1 do
      touch t m.fanout.(c)
    done;
    if not t.anchored then begin
      Perf.tick_full_sweep_avoided ();
      settle t;
      recone t
    end
  end

let create model ~sizes =
  let t = make model ~sizes in
  resync t;
  t

let arrival t i =
  flush t;
  t.at.(i)

let finish t i =
  flush t;
  fin t i

(* a member of the last critical set, while no resize followed it, reads
   exact values as they stand; any other vertex settles first *)
let[@inline] settle_unless_member t i =
  if not (t.cone && t.cpos.(i) >= 0) then flush t

let critical_fanin t i =
  settle_unless_member t i;
  t.cfanin.(i)

let version t i =
  settle_unless_member t i;
  t.version.(i)

let critical_path t =
  undefer t;
  stored_cp t

let total_violation t ~target =
  flush t;
  let m = t.model in
  let acc = ref 0.0 in
  for k = 0 to Array.length m.sinks - 1 do
    acc := !acc +. max 0.0 (fin t m.sinks.(k) -. target)
  done;
  !acc

(* the current delay of [v], 0 for no vertex (-1) *)
let[@inline] delay_of t v = if v >= 0 then t.delays.(v) else 0.0

(* Certified deferred settling. While anchored, the stored arrivals are
   those of the anchor: a settled state at which the last critical set is
   one path [m_0 .. m_(L-1)] from the one worst sink [m_0] to a source,
   each member's critical fanin the next member. Write [E] for the exact
   arrivals now (a pure function of the delays), [A] for the stored ones,
   [s_k] for the sum of the delay changes of members [m_(k+1) .. m_(L-1)]
   since the anchor, [P] and [N] for the sums of all delay increases and
   decreases since it.

   Chain. If every other fanin [w] of each [m_k] finishes more than
   [eps] below [C_k = E(m_(k+1)) + d(m_(k+1))], then by induction from
   the source (whose arrival is 0) every [m_k]'s critical fanin is still
   [m_(k+1)], [E(m_k) = C_k = A(m_k) + s_k], and the critical path runs
   along the chain: [cp = A(m_0) + d(m_0) + s_(-1)].

   Bounds on a fanin [w]. A member's finish is known the same way. For a
   non-member, either [A(w)] was exact at the anchor, and then
   [E(w) <= A(w) + P], with [E(w) = A(w)] when no push since the anchor
   reached a topological position at or below [w]'s ([plo]); or it was
   not, and then (see [resync]) every path through [w] is shorter than
   [theta], so [w]'s finish lies more than [cp - theta] below [C_k] (the
   chain from [m_k] on completes a path through [w]) and below [cp] if
   [w] feeds a sink. (A push into a vertex already pending records no
   position; that vertex is deferred, so a longer path to [w] through it
   is covered by the same [cp - theta] bound.)

   Sinks. Every other sink [s] must finish more than [eps] below [cp]:
   its arrival is the max of 0 and its fanins' finishes, each bounded as
   above, so each pair (sink, fanin) and (sink, 0) is a constraint.

   Each constraint is a base taken at the anchor, plus the members' delay
   changes over a range of buffer positions (the members between its two
   ends: both ends of a constraint shift together with every change
   outside that range, which therefore cancels), minus the current delay
   of a non-member fanin and of a sink, minus [P] for a non-member fanin
   that may have moved. The [near_cap] smallest at the anchor are
   evaluated so; any other one has lost at most [N + P] since the anchor,
   so one bound covers them. With the cone bound [cp - theta], the
   smallest of all is the certified margin. When it exceeds [eps] plus a
   rounding allowance (every sum here has at most [4 L + 64 + 32 u
   (log L + 2)] roundings, [u] the [fen] updates, each below
   [2^-52] of the largest magnitude), a walk at the exact state would
   reproduce the buffer and the worst sink, every member's critical fanin
   is the stored one, and the critical path lies within the allowance of
   its estimate. *)
let certify t =
  if not t.cached then begin
    t.cached <- true;
    let l = t.chain and pos = t.model.pos in
    for k = t.pend_seen to t.pend_len - 1 do
      let q = pos.(t.pend.(k)) in
      if q < t.plo then t.plo <- q
    done;
    t.pend_seen <- t.pend_len;
    let plo = if t.lo < t.plo then t.lo else t.plo in
    let p = t.dacc.(d_inc) and nn = t.dacc.(d_dec) in
    let cp = t.dacc.(d_cp) +. prefix t l in
    let low = ref (t.dacc.(d_far) -. nn -. p) in
    for c = 0 to t.near_len - 1 do
      let k = t.near.(c) in
      let v = ref (k.base +. (prefix t k.past -. prefix t k.first)) in
      v := !v -. delay_of t k.a -. delay_of t k.b -. delay_of t k.c;
      if k.grown >= 0 && pos.(k.grown) >= plo then v := !v -. p;
      if not (!v >= !low) then low := !v
    done;
    let cone = cp -. t.theta.(0) in
    if not (cone >= !low) then low := cone;
    let bits = ref 2 in
    while 1 lsl !bits <= l do
      incr bits
    done;
    let roundings = (4 * l) + 64 + (32 * (t.updates + 1) * !bits) in
    t.dacc.(d_min) <- !low;
    t.dacc.(d_cpe) <- cp;
    t.dacc.(d_rnd) <-
      float roundings *. epsilon_float *. (1.0 +. abs_float cp +. p +. nn)
  end

(* the certificate holds at the relative tolerance [eps_rel] *)
let certified t ~eps_rel =
  certify t;
  let cp = t.dacc.(d_cpe) and rnd = t.dacc.(d_rnd) in
  let eps = eps_rel *. (1.0 +. cp +. rnd) *. (1.0 +. (4.0 *. epsilon_float)) in
  t.dacc.(d_min) > eps +. rnd

let above t ~target =
  if t.anchored then begin
    certify t;
    let cp = t.dacc.(d_cpe) and rnd = t.dacc.(d_rnd) in
    if t.dacc.(d_min) > rnd && cp -. rnd > target then true
    else if t.dacc.(d_min) > rnd && cp +. rnd <= target then false
    else not (critical_path t <= target)
  end
  else not (stored_cp t <= target)

(* the worst sinks ([finish] within [eps] of [cp]), ascending, are the
   recorded ones *)
let[@inline] same_worst t ~cp ~eps =
  let sinks = t.model.sinks in
  let j = ref 0 and same = ref true and k = ref 0 in
  while !same && !k < Array.length sinks do
    let s = sinks.(!k) in
    if abs_float (fin t s -. cp) <= eps then begin
      if !j < t.worst_len && t.worst.(!j) = s then incr j else same := false
    end;
    incr k
  done;
  !same && !j = t.worst_len

(* mark [v] as the next member and push its frame at stack depth [d] *)
let[@inline] enter t v d =
  t.cpos.(v) <- t.crit_len;
  t.crit.(t.crit_len) <- v;
  t.crit_len <- t.crit_len + 1;
  t.stk_v.(d) <- v;
  t.stk_c.(d) <- t.model.fanin_off.(v)

(* Depth-first backtrace from each worst sink along tight edges, emitting
   vertices in preorder: a vertex is emitted when first reached, then its
   fanins are explored in CSR order, each fully before the next. The frame
   stack makes it iterative; the order is the recursive one, which TILOS's
   strict-[>] tie-break over the buffer depends on. The walk records the
   certificate as it goes: the worst sinks, the tight bit of every slot
   whose fanin it had not reached yet, the margins of those slacks, and
   the other slots as unread — their fanin is skipped whatever its bit. *)
let[@inline] walk t ~cp ~eps =
  let m = t.model in
  for k = 0 to t.crit_len - 1 do
    t.cpos.(t.crit.(k)) <- -1
  done;
  t.crit_len <- 0;
  t.worst_len <- 0;
  let cpos = t.cpos in
  let tight_max_s = ref neg_infinity and loose_min_s = ref infinity in
  let deepest = ref 0 in
  for k = 0 to Array.length m.sinks - 1 do
    let s = m.sinks.(k) in
    if abs_float (fin t s -. cp) <= eps then begin
      t.worst.(t.worst_len) <- s;
      t.worst_len <- t.worst_len + 1;
      if cpos.(s) < 0 then begin
        enter t s 0;
        let top = ref 0 in
        while !top >= 0 do
          let v = t.stk_v.(!top) and c = t.stk_c.(!top) in
          if c = m.fanin_off.(v + 1) then decr top
          else begin
            t.stk_c.(!top) <- c + 1;
            let u = m.fanin.(c) in
            if cpos.(u) >= 0 then Bytes.unsafe_set t.slots c slot_unread
            else begin
              (* edge u -> v is tight when u's finish realizes v's
                 arrival *)
              let slack = abs_float (t.at.(u) +. t.delays.(u) -. t.at.(v)) in
              if slack <= eps then begin
                Bytes.unsafe_set t.slots c slot_tight;
                if slack > !tight_max_s then tight_max_s := slack;
                incr top;
                if !top > !deepest then deepest := !top;
                enter t u !top
              end
              else begin
                Bytes.unsafe_set t.slots c slot_loose;
                if slack < !loose_min_s then loose_min_s := slack
              end
            end
          end
        done
      end
    end
  done;
  t.cert.(eps_ref) <- eps;
  t.cert.(tight_max) <- !tight_max_s;
  t.cert.(loose_min) <- !loose_min_s;
  t.depth <- !deepest;
  t.stale <- false

(* Whether the set the walk returns is the exact one. A worst sink's
   longest path is at least [cp - eps], and a member [k] tight edges below
   it one at least [cp - (k + 1) eps]; a member whose longest path reaches
   [theta + eps] reads exact values in its arrival and in every fanin slot
   it compares within [eps] (see [resync]). So members down to the walk's
   depth [h] read exact values when [theta + (h + 2) eps] stays below
   [cp]; one more [eps] covers rounding. With nothing pending every value
   is exact. *)
let cone_exact t ~cp ~eps =
  t.pend_len = 0 || within_cone t ~cp ~slop:(float (t.depth + 3) *. eps)

(* The walk's preorder is a function of the worst sinks and of the tight
   bits it read alone: a walk that meets the same bits at the same slots
   makes the same moves, so it reaches the same vertices and reads the
   same slots (a slot into a vertex already reached is skipped whatever
   its bit). A slot's slack moves only when [settle] pops its vertex (a
   member is never left pending), which [recheck]s it; so when no read bit
   flipped under the recorded tolerance, the worst sinks are the recorded
   ones and the fresh [eps] sits inside the margins, every read bit is
   also unchanged under [eps] and the buffer is the walk's output as it
   stands. *)
let rec pick t ~eps_rel ~retry =
  let cp = stored_cp t in
  let eps = eps_rel *. (1.0 +. cp) in
  let reused =
    (not t.stale)
    && t.cert.(tight_max) <= eps
    && eps < t.cert.(loose_min)
    && same_worst t ~cp ~eps
  in
  if not reused then walk t ~cp ~eps;
  if retry && not (cone_exact t ~cp ~eps) then begin
    (* re-sync, which makes every value exact, and walk afresh: a buffer
       this call walked must not read as reused *)
    resync t;
    t.stale <- true;
    pick t ~eps_rel ~retry:false
  end
  else publish t ~reused

(* [reused] is the call's answer *)
and publish t ~reused =
  t.reused <- reused;
  (* keep the log only when it holds this interval's touches of members
     that stay members *)
  if t.published || not reused then clear_log t;
  t.published <- true;
  t.cone <- true;
  t.crit_len

let[@inline] lower_far t x =
  if not (x >= t.dacc.(d_far)) then t.dacc.(d_far) <- x

(* Offer a constraint while anchoring: [near] keeps the [near_cap] of
   smallest anchor margin, ascending; one that drops out or does not get
   in lowers the far bound. Inlined, so that only a kept constraint
   allocates. *)
let[@inline] keep t ~base ~first ~past ~grown a b c =
  let margin0 = base -. delay_of t a -. delay_of t b -. delay_of t c in
  let near = t.near and n = t.near_len in
  let full = n = near_cap in
  if full && not (margin0 < near.(n - 1).margin0) then lower_far t margin0
  else begin
    if full then lower_far t near.(n - 1).margin0 else t.near_len <- n + 1;
    let j = ref (if full then n - 1 else n) in
    while !j > 0 && margin0 < near.(!j - 1).margin0 do
      near.(!j) <- near.(!j - 1);
      decr j
    done;
    near.(!j) <- { base; first; past; a; b; c; grown; margin0 }
  end

(* The constraints that [w]'s finish, plus the delay of the sink [s] (-1
   for none), stays below a side which moves with the members' delay
   changes over buffer positions [[first, chain)] and whose anchor value
   is the arrival of the member [side], or the critical path for -1 (a
   vertex, not a float, so that the call boxes nothing). A member's finish is that side's less a range of
   changes; a non-member's arrival is the max of 0 and its fanins'
   finishes, one constraint each. A deferred non-member needs none: every
   path through it is shorter than [theta], which the cone bound covers.
   False when a member sits downstream of the side, which a chain cannot
   have. *)
let offer t ~side ~first ~s w =
  let m = t.model and at = t.at and d = t.delays and l = t.chain in
  let top = if side >= 0 then at.(side) else t.dacc.(d_cp) in
  let j = t.cpos.(w) in
  if j >= 0 then begin
    keep t ~base:(top -. at.(w) -. d.(w)) ~first ~past:j ~grown:(-1) s (-1)
      (-1);
    j >= first
  end
  else if Bytes.unsafe_get t.state w <> live then true
  else begin
    keep t ~base:top ~first ~past:l ~grown:(-1) w s (-1);
    let ok = ref true in
    for c = m.fanin_off.(w) to m.fanin_off.(w + 1) - 1 do
      let u = m.fanin.(c) in
      let j = t.cpos.(u) in
      if j >= 0 then begin
        keep t ~base:(top -. at.(u) -. d.(u)) ~first ~past:j ~grown:(-1) w s
          (-1);
        if j < first then ok := false
      end
      else if Bytes.unsafe_get t.state u = live then
        keep t ~base:(top -. at.(u)) ~first ~past:l ~grown:u u w s
    done;
    !ok
  end

(* each member's critical fanin is the next one, and the last member is a
   source *)
let linked t =
  let m = t.model and l = t.crit_len in
  let last = t.crit.(l - 1) in
  let ok = ref (m.fanin_off.(last) = m.fanin_off.(last + 1)) in
  for k = 0 to l - 2 do
    if t.cfanin.(t.crit.(k)) <> t.crit.(k + 1) then ok := false
  done;
  !ok

(* Anchor the state just settled and walked (see [certify]) when the last
   critical set is a chain: one worst sink, a walk as deep as the set is
   long, and [linked]. *)
let anchor t =
  let m = t.model and l = t.crit_len in
  if t.worst_len = 1 && t.depth = l - 1 && t.lo > t.hi then
    if t.skip > 0 then t.skip <- t.skip - 1
    else if linked t then begin
      t.chain <- l;
      (* made at the first anchor, so that an engine that never anchors
         allocates nothing more *)
      if Array.length t.dacc = 0 then begin
        t.dacc <- Array.make 7 0.0;
        let none =
          { base = 0.0; first = 0; past = 0; a = -1; b = -1; c = -1;
            grown = -1; margin0 = 0.0 }
        in
        t.near <- Array.make near_cap none
      end;
      if Array.length t.fen <= l then t.fen <- Array.make (l + 1) 0.0
      else Array.fill t.fen 0 (l + 1) 0.0;
      let dacc = t.dacc in
      dacc.(d_inc) <- 0.0;
      dacc.(d_dec) <- 0.0;
      dacc.(d_far) <- infinity;
      t.near_len <- 0;
      t.plo <- m.n;
      t.pend_seen <- t.pend_len;
      t.updates <- 0;
      let m0 = t.crit.(0) in
      let cp = t.at.(m0) +. t.delays.(m0) in
      dacc.(d_cp) <- cp;
      let chain = ref true in
      (* each member's other fanins stay below the next member's finish *)
      for k = 0 to l - 2 do
        let v = t.crit.(k) and next = t.crit.(k + 1) in
        for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
          let w = m.fanin.(c) in
          if w <> next
             && not (offer t ~side:v ~first:(k + 1) ~s:(-1) w)
          then chain := false
        done
      done;
      (* every other sink finishes below the worst one (a deferred one
         below [theta]) *)
      Array.iter
        (fun s ->
          if s <> m0 then
            if t.cpos.(s) >= 0 then
              ignore (offer t ~side:(-1) ~first:0 ~s:(-1) s)
            else if Bytes.unsafe_get t.state s = live then begin
              keep t ~base:cp ~first:0 ~past:l ~grown:(-1) s (-1) (-1);
              for c = m.fanin_off.(s) to m.fanin_off.(s + 1) - 1 do
                ignore (offer t ~side:(-1) ~first:0 ~s m.fanin.(c))
              done
            end)
        m.sinks;
      t.anchored <- !chain;
      t.cached <- false;
      t.lifetime <- 0
    end

(* Anchored, a certified call returns the buffer as it stands; any other
   call ends the deferral and picks as before, then tries to anchor. *)
let critical_set ?(eps_rel = Tolerance.critical_rel) t =
  if t.anchored && certified t ~eps_rel then begin
    t.lifetime <- t.lifetime + 1;
    publish t ~reused:true
  end
  else begin
    undefer t;
    let len = pick t ~eps_rel ~retry:true in
    anchor t;
    len
  end

let critical_vertex t k =
  if k < 0 || k >= t.crit_len then invalid_arg "Incremental.critical_vertex";
  t.crit.(k)

let critical_reused t = t.reused
let critical_pos t v = t.cpos.(v)
let touched_count t = if t.published then t.tlog_len else 0

let touched_member t k =
  if k < 0 || k >= touched_count t then
    invalid_arg "Incremental.touched_member";
  t.tlog.(k)
