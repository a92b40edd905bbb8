module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Inc = Minflo_timing.Incremental

type result = {
  sizes : float array;
  met : bool;
  bumps : int;
  final_cp : float;
  area : float;
}

(* Local sensitivity of bumping vertex i: the change in the delay of the
   critical path segment through i — i's own delay drops, the critical
   fanin's delay grows because its load grows — per unit of added area.
   This is the classic TILOS figure of merit.

   The critical fanin is the engine's: the first fanin in CSR order with
   the largest finish, kept exact by every settle. The merit reads only
   i's size, the sizes i's delay reads, that fanin and its size — exactly
   what bumps i's {!Inc.version} — so [size] caches it per vertex and
   recomputes only when the version moved. *)
let sensitivity (model : Delay_model.t) eng bump i =
  let old_xi = Inc.size eng i in
  let new_xi = min (old_xi *. bump) model.max_size in
  if new_xi <= old_xi then neg_infinity
  else begin
    let d_new =
      (* delay of i with the larger size: only the 1/x_i part shrinks.
         The coefficient row is summed in its stored order, the same
         rounding sequence as [Delay_model.delay]. *)
      let acc = ref model.b.(i) in
      for c = model.coeff_off.(i) to model.coeff_off.(i + 1) - 1 do
        acc := !acc +. (model.coeff_a.(c) *. Inc.size eng model.coeff_j.(c))
      done;
      model.a_self.(i) +. (!acc /. new_xi)
    in
    let own_gain = Inc.delay eng i -. d_new in
    (* critical fanin k: the one realizing AT(i); its delay grows by
       a_ki * (new_xi - old_xi) / x_k *)
    let k = Inc.critical_fanin eng i in
    let fanin_penalty =
      if k < 0 then 0.0
      else begin
        let a_ki = ref 0.0 in
        for c = model.coeff_off.(k) to model.coeff_off.(k + 1) - 1 do
          if model.coeff_j.(c) = i then a_ki := !a_ki +. model.coeff_a.(c)
        done;
        !a_ki *. (new_xi -. old_xi) /. Inc.size eng k
      end
    in
    let darea = model.area_weight.(i) *. (new_xi -. old_xi) in
    (own_gain -. fanin_penalty) /. darea
  end

(* Tournament tree over critical-buffer positions: leaf [leaves + k] holds
   member [k]'s key, an inner node the winner of its two children — the
   right one only when its key is strictly greater. The root is thus the
   first position in buffer order with the largest key. Padding leaves
   past the buffer key [neg_infinity]. *)
type tree = {
  mutable leaves : int;
  mutable key : float array;
  mutable win : int array;
}

let play tr j =
  let l = 2 * j in
  let w = if tr.key.(l + 1) > tr.key.(l) then l + 1 else l in
  tr.key.(j) <- tr.key.(w);
  tr.win.(j) <- tr.win.(w)

(* room for [len] leaves, all [neg_infinity]; [play_all] then settles the
   inner nodes once the leaves are set *)
let reset tr len =
  let p = ref 1 in
  while !p < len do
    p := 2 * !p
  done;
  tr.leaves <- !p;
  if Array.length tr.win < 2 * !p then begin
    tr.key <- Array.make (2 * !p) neg_infinity;
    tr.win <- Array.make (2 * !p) 0
  end
  else Array.fill tr.key 0 (2 * !p) neg_infinity;
  for k = 0 to !p - 1 do
    tr.win.(!p + k) <- k
  done

let play_all tr =
  for j = tr.leaves - 1 downto 1 do
    play tr j
  done

(* key leaf [k] by a merit: itself when positive, else [neg_infinity] *)
let[@inline] set_leaf tr k s =
  tr.key.(tr.leaves + k) <- (if s > 0.0 then s else neg_infinity)

(* replay the matches above leaf [k] after its key changed *)
let replay tr k =
  let j = ref ((tr.leaves + k) / 2) in
  while !j >= 1 do
    play tr !j;
    j := !j / 2
  done

(* a hard stop for a greedy that cannot reach the target *)
let max_bumps = 2_000_000

let size ?(bump = 1.1) ?budget ?init model ~target =
  let n = Delay_model.num_vertices model in
  let start =
    match init with
    | None -> Delay_model.uniform_sizes model model.Delay_model.min_size
    | Some x0 ->
      if Array.length x0 <> n then invalid_arg "Tilos.size: wrong init length";
      Array.map
        (fun v -> min model.Delay_model.max_size (max model.Delay_model.min_size v))
        x0
  in
  let eng = Inc.create model ~sizes:start in
  (* sensitivity cache: [sens.(i)] is current while [seen.(i)] equals i's
     engine version *)
  let sens = Array.make n 0.0 and seen = Array.make n (-1) in
  let refresh i =
    let v = Inc.version eng i in
    if seen.(i) <> v then begin
      sens.(i) <- sensitivity model eng bump i;
      seen.(i) <- v
    end
  in
  (* while the engine reuses its buffer, a tree keyed by the positive
     merits (others [neg_infinity]): its root is the scan's pick *)
  let tr = { leaves = 0; key = [||]; win = [||] } and tree_ok = ref false in
  let bumps = ref 0 in
  let finished = ref false in
  let met = ref false in
  while not !finished do
    if not (Inc.above eng ~target) then begin
      met := true;
      finished := true
    end
    else if !bumps >= max_bumps then finished := true
    else if
      match budget with
      | Some b -> not (Minflo_robust.Budget.tick_pivot b)
      | None -> false
    then
      (* run budget exhausted: stop bumping and return the best-so-far
         sizing with [met] reporting honestly *)
      finished := true
    else begin
      (* candidates: vertices on a maximal-finish path, via the incremental
         engine's tight-edge backtrace *)
      let len = Inc.critical_set ~eps_rel:Tolerance.critical_rel eng in
      let best = ref (-1) in
      if not (Inc.critical_reused eng) then begin
        (* a fresh walk: scan every member for the first in preorder with
           the largest positive merit *)
        tree_ok := false;
        let best_s = ref 0.0 in
        for k = 0 to len - 1 do
          let i = Inc.critical_vertex eng k in
          let v = Inc.version eng i in
          if seen.(i) <> v then begin
            sens.(i) <- sensitivity model eng bump i;
            seen.(i) <- v
          end;
          if sens.(i) > !best_s then begin
            best_s := sens.(i);
            best := i
          end
        done
      end
      else begin
        (* the buffer of the last call, unchanged: the tree picks the same
           member the scan would, and only members whose version moved
           can have a new merit *)
        if !tree_ok then
          for j = 0 to Inc.touched_count eng - 1 do
            let i = Inc.touched_member eng j in
            let k = Inc.critical_pos eng i in
            refresh i;
            set_leaf tr k sens.(i);
            replay tr k
          done
        else begin
          reset tr len;
          for k = 0 to len - 1 do
            let i = Inc.critical_vertex eng k in
            refresh i;
            set_leaf tr k sens.(i)
          done;
          play_all tr;
          tree_ok := true
        end;
        if tr.key.(1) > 0.0 then best := Inc.critical_vertex eng tr.win.(1)
      end;
      (* The local estimate can be blind when parallel paths tie or loads
         are shared; before giving up, evaluate candidates exactly (trial
         bump, measure total sink violation, roll back) and take the best
         strict decrease — a global merit that still makes progress when
         the max itself is pinned by a tied path. *)
      if !best < 0 then begin
        let base = Inc.total_violation eng ~target in
        let best_v = ref base in
        for k = 0 to len - 1 do
          let i = Inc.critical_vertex eng k in
          let old_xi = Inc.size eng i in
          let new_xi = min (old_xi *. bump) model.Delay_model.max_size in
          if new_xi > old_xi then begin
            Inc.set_size eng i new_xi;
            let v = Inc.total_violation eng ~target in
            Inc.set_size eng i old_xi;
            if v < !best_v -. 1e-9 then begin
              best_v := v;
              best := i
            end
          end
        done
      end;
      if !best < 0 then
        (* no critical vertex improves the path: greedy is stuck *)
        finished := true
      else begin
        Inc.set_size eng !best (min (Inc.size eng !best *. bump) model.Delay_model.max_size);
        Minflo_robust.Perf.tick_bump ();
        incr bumps
      end
    end
  done;
  let x = Inc.sizes eng in
  (* the engine's delays are bit-identical to [Delay_model.delays model x]
     (exact incremental maintenance) — skip the O(E) recompute and take the
     final CP through the cheap arrival-only path *)
  { sizes = x;
    met = !met;
    bumps = !bumps;
    final_cp = Sta.critical_path_only model ~delays:(Inc.all_delays eng);
    area = Delay_model.area model x }
