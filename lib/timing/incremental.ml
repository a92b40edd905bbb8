module Delay_model = Minflo_tech.Delay_model
module Perf = Minflo_robust.Perf

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
  (* [critical_set] state: epoch-stamped visited marks (no n-sized clear
     per walk), the output buffer and the explicit DFS stack of (vertex,
     next fanin slot) frames *)
  seen : int array;
  mutable epoch : int;
  crit : int array;
  mutable crit_len : int;
  stk_v : int array;
  stk_c : int array;
}

let touch t v = t.version.(v) <- t.version.(v) + 1

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

let create (model : Delay_model.t) ~sizes =
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
      seen = Array.make n 0;
      epoch = 0;
      crit = Array.make n 0;
      crit_len = 0;
      stk_v = Array.make n 0;
      stk_c = Array.make n 0 }
  in
  for v = 0 to n - 1 do
    ignore (remax t v)
  done;
  t

let size t i = t.x.(i)
let sizes t = Array.copy t.x
let all_delays t = Array.copy t.delays
let delay t i = t.delays.(i)
let arrival t i = t.at.(i)
(* inlined so the engine's own loops read finishes without boxing them *)
let[@inline] finish t i = t.at.(i) +. t.delays.(i)
let critical_fanin t i = t.cfanin.(i)
let version t i = t.version.(i)

let push t v =
  let p = t.model.pos.(v) in
  if not t.dirty.(p) then begin
    t.dirty.(p) <- true;
    if p < t.lo then t.lo <- p;
    if p > t.hi then t.hi <- p
  end

(* Propagate arrival changes in topological order: scan the dirty window
   ascending, recomputing each dirty vertex's arrival EXACTLY — the fresh
   value is the same max the batch sweep computes, not a toleranced update —
   so after every [settle] the engine state bit-matches a from-scratch
   {!Sta.arrivals}. Marking a fanout extends the window ([t.hi] is re-read
   every step); fanouts sit at strictly greater positions, so each vertex is
   processed at most once with all its fanins final. A vertex's fanin
   finishes move only when it is marked, so refreshing its critical fanin
   here keeps [cfanin] exact too. *)
let settle t =
  let m = t.model in
  let p = ref t.lo in
  while !p <= t.hi do
    if t.dirty.(!p) then begin
      t.dirty.(!p) <- false;
      let v = m.topo.(!p) in
      Perf.tick_incr_update ();
      (* [max 0 best]: the float the batch sweep's [>]-from-0 max yields *)
      let best = remax t v in
      let fresh = if best > 0.0 then best else 0.0 in
      if fresh <> t.at.(v) then begin
        t.at.(v) <- fresh;
        for c = m.fanout_off.(v) to m.fanout_off.(v + 1) - 1 do
          push t m.fanout.(c)
        done
      end
    end;
    incr p
  done;
  t.lo <- m.n;
  t.hi <- -1

let set_size t i nx =
  let nx = min t.model.max_size (max t.model.min_size nx) in
  if nx <> t.x.(i) then begin
    t.x.(i) <- nx;
    let m = t.model in
    let refresh v =
      touch t v;
      let d = Delay_model.delay m t.x v in
      if d <> t.delays.(v) then begin
        t.delays.(v) <- d;
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
    Perf.tick_full_sweep_avoided ();
    settle t
  end

let critical_path t =
  let m = t.model in
  let best = ref 0.0 in
  for k = 0 to Array.length m.sinks - 1 do
    let f = finish t m.sinks.(k) in
    if f > !best then best := f
  done;
  !best

let total_violation t ~target =
  let m = t.model in
  let acc = ref 0.0 in
  for k = 0 to Array.length m.sinks - 1 do
    acc := !acc +. max 0.0 (finish t m.sinks.(k) -. target)
  done;
  !acc

(* mark [v], append it to the critical buffer and push its frame at stack
   depth [d] *)
let[@inline] enter t ep v d =
  t.seen.(v) <- ep;
  t.crit.(t.crit_len) <- v;
  t.crit_len <- t.crit_len + 1;
  t.stk_v.(d) <- v;
  t.stk_c.(d) <- t.model.fanin_off.(v)

(* Depth-first backtrace from each worst sink along tight edges, emitting
   vertices in preorder: a vertex is emitted when first reached, then its
   fanins are explored in CSR order, each fully before the next. The frame
   stack makes it iterative; the order is the recursive one, which TILOS's
   strict-[>] tie-break over the buffer depends on. *)
let critical_set ?(eps_rel = 1e-9) t =
  let m = t.model in
  let cp = critical_path t in
  let eps = eps_rel *. (1.0 +. cp) in
  t.epoch <- t.epoch + 1;
  t.crit_len <- 0;
  let seen = t.seen and ep = t.epoch in
  for k = 0 to Array.length m.sinks - 1 do
    let s = m.sinks.(k) in
    if seen.(s) <> ep && abs_float (finish t s -. cp) <= eps then begin
      enter t ep s 0;
      let top = ref 0 in
      while !top >= 0 do
        let v = t.stk_v.(!top) and c = t.stk_c.(!top) in
        if c = m.fanin_off.(v + 1) then decr top
        else begin
          t.stk_c.(!top) <- c + 1;
          let u = m.fanin.(c) in
          (* edge u -> v is tight when u's finish realizes v's arrival *)
          if
            seen.(u) <> ep
            && abs_float (t.at.(u) +. t.delays.(u) -. t.at.(v)) <= eps
          then begin
            incr top;
            enter t ep u !top
          end
        end
      done
    end
  done;
  t.crit_len

let critical_vertex t k =
  if k < 0 || k >= t.crit_len then invalid_arg "Incremental.critical_vertex";
  t.crit.(k)
