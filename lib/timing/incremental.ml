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
}

(* indices into [cert] *)
let eps_ref = 0
let tight_max = 1
let loose_min = 2

(* what the walk read at a fanin slot *)
let slot_loose = '\000'
let slot_tight = '\001'
let slot_unread = '\002'

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
      published = false }
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
   ascending, recomputing each dirty vertex's arrival EXACTLY — the fresh
   value is the same max the batch sweep computes, not a toleranced update —
   so after every [settle] the engine state bit-matches a from-scratch
   {!Sta.arrivals}. Marking a fanout extends the window ([t.hi] is re-read
   every step); fanouts sit at strictly greater positions, so each vertex is
   processed at most once with all its fanins final. A vertex's fanin
   finishes move only when it is marked, so refreshing its critical fanin
   here keeps [cfanin] exact too, and rechecking a popped member's slots
   keeps the critical-set certificate sound. *)
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

(* the worst sinks ([finish] within [eps] of [cp]), ascending, are the
   recorded ones *)
let[@inline] same_worst t ~cp ~eps =
  let sinks = t.model.sinks in
  let j = ref 0 and same = ref true and k = ref 0 in
  while !same && !k < Array.length sinks do
    let s = sinks.(!k) in
    if abs_float (finish t s -. cp) <= eps then begin
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
  for k = 0 to Array.length m.sinks - 1 do
    let s = m.sinks.(k) in
    if abs_float (finish t s -. cp) <= eps then begin
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
  t.stale <- false

(* The walk's preorder is a function of the worst sinks and of the tight
   bits it read alone: a walk that meets the same bits at the same slots
   makes the same moves, so it reaches the same vertices and reads the
   same slots (a slot into a vertex already reached is skipped whatever
   its bit). A slot's slack moves only when [settle] pops its vertex,
   which [recheck]s it; so when no read bit flipped under the recorded
   tolerance, the worst sinks are the recorded ones and the fresh [eps]
   sits inside the margins, every read bit is also unchanged under [eps]
   and the buffer is the walk's output as it stands. *)
let critical_set ?(eps_rel = 1e-9) t =
  let cp = critical_path t in
  let eps = eps_rel *. (1.0 +. cp) in
  t.reused <-
    (not t.stale)
    && t.cert.(tight_max) <= eps
    && eps < t.cert.(loose_min)
    && same_worst t ~cp ~eps;
  (* keep the log only when it holds this interval's touches of members
     that stay members *)
  if t.published || not t.reused then clear_log t;
  if not t.reused then walk t ~cp ~eps;
  t.published <- true;
  t.crit_len

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
