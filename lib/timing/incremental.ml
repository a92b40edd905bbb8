module Delay_model = Minflo_tech.Delay_model
module Perf = Minflo_robust.Perf

type t = {
  model : Delay_model.t;
  x : float array;
  delays : float array;
  at : float array;
  (* worklist: dirty flags indexed by TOPO POSITION plus the dirty window
     [lo, hi]. Settling scans the window in ascending position — exactly
     the order a min-heap keyed by position pops, with O(1) insert and no
     per-element heap or hash traffic. *)
  dirty : bool array;
  mutable lo : int;
  mutable hi : int;
  (* epoch-stamped visited marks for [critical_set] — avoids allocating and
     clearing an n-sized array per backtrace *)
  stamp : int array;
  mutable epoch : int;
}

let create (model : Delay_model.t) ~sizes =
  let n = model.n in
  if Array.length sizes <> n then
    invalid_arg "Incremental.create: wrong sizes length";
  let x = Array.copy sizes in
  let delays = Array.make n 0.0 in
  Delay_model.delays_into model x delays;
  let at = Array.make n 0.0 in
  Delay_model.arrivals_into model ~delays at;
  { model;
    x;
    delays;
    at;
    dirty = Array.make n false;
    lo = n;
    hi = -1;
    stamp = Array.make n 0;
    epoch = 0 }

let size t i = t.x.(i)
let sizes t = Array.copy t.x
let all_delays t = Array.copy t.delays
let delay t i = t.delays.(i)
let arrival t i = t.at.(i)
let finish t i = t.at.(i) +. t.delays.(i)

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
   processed at most once with all its fanins final. *)
let settle t =
  let m = t.model in
  let p = ref t.lo in
  while !p <= t.hi do
    if t.dirty.(!p) then begin
      t.dirty.(!p) <- false;
      let v = m.topo.(!p) in
      Perf.tick_incr_update ();
      let fresh = ref 0.0 in
      for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
        let u = m.fanin.(c) in
        let f = t.at.(u) +. t.delays.(u) in
        if f > !fresh then fresh := f
      done;
      if !fresh <> t.at.(v) then begin
        t.at.(v) <- !fresh;
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

let critical_set ?(eps_rel = 1e-9) t =
  let m = t.model in
  let cp = critical_path t in
  let eps = eps_rel *. (1.0 +. cp) in
  t.epoch <- t.epoch + 1;
  let seen = t.stamp and ep = t.epoch in
  let acc = ref [] in
  let rec visit v =
    if seen.(v) <> ep then begin
      seen.(v) <- ep;
      acc := v :: !acc;
      for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
        let u = m.fanin.(c) in
        (* edge u -> v is tight when u's finish realizes v's arrival *)
        if abs_float (t.at.(u) +. t.delays.(u) -. t.at.(v)) <= eps then visit u
      done
    end
  in
  for k = 0 to Array.length m.sinks - 1 do
    let v = m.sinks.(k) in
    if abs_float (finish t v -. cp) <= eps then visit v
  done;
  List.rev !acc
