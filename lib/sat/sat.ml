(* MiniSat-style CDCL: two-watched literals, first-UIP learning, activity
   decisions, no restarts (instances here are small equivalence miters). *)

module Vec = Minflo_util.Vec

(* literal encoding: var v (>= 1) -> positive 2v, negative 2v+1 *)
let lit_of_int l = if l > 0 then 2 * l else (2 * -l) + 1
let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let lit_sign l = l land 1 = 0 (* true when positive *)

type t = {
  mutable nvars : int;
  clauses : int array Vec.t;
  mutable watches : int list array; (* per literal: clause ids watching it *)
  mutable assign : int array;       (* per var: 0 unknown, 1 true, -1 false *)
  mutable level : int array;
  mutable reason : int array;       (* clause id or -1 *)
  mutable activity : float array;
  mutable var_inc : float;
  trail : int Vec.t;                (* literals in assignment order *)
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable unsat : bool;             (* empty clause seen *)
  units : int Vec.t;                (* top-level unit literals *)
}

let create () =
  { nvars = 0;
    clauses = Vec.create ~dummy:[||] ();
    watches = Array.make 4 [];
    assign = Array.make 2 0;
    level = Array.make 2 0;
    reason = Array.make 2 (-1);
    activity = Array.make 2 0.0;
    var_inc = 1.0;
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    unsat = false;
    units = Vec.create ~dummy:0 () }

let ensure_capacity t =
  let need = (2 * t.nvars) + 2 in
  if Array.length t.watches < need then begin
    let grow arr dummy =
      let a = Array.make (max need (2 * Array.length arr)) dummy in
      Array.blit arr 0 a 0 (Array.length arr);
      a
    in
    t.watches <- grow t.watches [];
    t.assign <- grow t.assign 0;
    t.level <- grow t.level 0;
    t.reason <- grow t.reason (-1);
    t.activity <- grow t.activity 0.0
  end

let new_var t =
  t.nvars <- t.nvars + 1;
  ensure_capacity t;
  t.nvars

let value t l =
  (* 1 true, -1 false, 0 unknown, for a literal *)
  let v = t.assign.(lit_var l) in
  if v = 0 then 0 else if lit_sign l then v else -v

let add_clause t lits =
  List.iter
    (fun l ->
      let v = abs l in
      if l = 0 || v > t.nvars then invalid_arg "Sat.add_clause: bad literal")
    lits;
  (* dedupe; drop tautologies *)
  let lits = List.sort_uniq compare lits in
  let taut = List.exists (fun l -> List.mem (-l) lits) lits in
  if not taut then begin
    match lits with
    | [] -> t.unsat <- true
    | [ l ] -> ignore (Vec.push t.units (lit_of_int l))
    | _ ->
      let arr = Array.of_list (List.map lit_of_int lits) in
      let id = Vec.push t.clauses arr in
      t.watches.(arr.(0)) <- id :: t.watches.(arr.(0));
      t.watches.(arr.(1)) <- id :: t.watches.(arr.(1))
  end

let decision_level t = Vec.length t.trail_lim

let enqueue t l reason =
  (* assumes l is currently unassigned *)
  let v = lit_var l in
  t.assign.(v) <- (if lit_sign l then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  ignore (Vec.push t.trail l)

(* returns the id of a conflicting clause or -1 *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < Vec.length t.trail do
    let l = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let falsified = lit_neg l in
    let watching = t.watches.(falsified) in
    t.watches.(falsified) <- [];
    let rec go = function
      | [] -> ()
      | id :: rest ->
        if !conflict >= 0 then
          (* keep remaining clauses watched as before *)
          t.watches.(falsified) <- id :: rest @ t.watches.(falsified)
        else begin
          let c = Vec.get t.clauses id in
          (* normalize: falsified watch at position 1 *)
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if value t c.(0) = 1 then begin
            (* clause satisfied: keep watching *)
            t.watches.(falsified) <- id :: t.watches.(falsified);
            go rest
          end
          else begin
            (* look for a new watch *)
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < Array.length c do
              if value t c.(!k) >= 0 then begin
                let w = c.(!k) in
                c.(!k) <- c.(1);
                c.(1) <- w;
                t.watches.(w) <- id :: t.watches.(w);
                found := true
              end;
              incr k
            done;
            if !found then go rest
            else begin
              (* unit or conflicting *)
              t.watches.(falsified) <- id :: t.watches.(falsified);
              match value t c.(0) with
              | -1 ->
                conflict := id;
                go rest
              | _ ->
                enqueue t c.(0) id;
                go rest
            end
          end
        end
    in
    go watching
  done;
  !conflict

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

(* first-UIP conflict analysis; returns (learnt clause literals with the
   asserting literal first, backjump level) *)
let analyze t confl =
  let seen = Array.make (t.nvars + 1) false in
  let learnt = ref [] in
  let counter = ref 0 in
  let confl = ref confl in
  let idx = ref (Vec.length t.trail - 1) in
  let asserting = ref 0 in
  let first = ref true in
  let continue = ref true in
  while !continue do
    let c = Vec.get t.clauses !confl in
    let start = if !first then 0 else 1 in
    for k = start to Array.length c - 1 do
      let l = c.(k) in
      let v = lit_var l in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        bump t v;
        if t.level.(v) >= decision_level t then incr counter
        else learnt := l :: !learnt
      end
    done;
    first := false;
    (* walk the trail backwards to the next marked literal *)
    let rec back () =
      let l = Vec.get t.trail !idx in
      decr idx;
      if seen.(lit_var l) then l else back ()
    in
    let p = back () in
    seen.(lit_var p) <- false;
    decr counter;
    if !counter = 0 then begin
      asserting := lit_neg p;
      continue := false
    end
    else confl := t.reason.(lit_var p)
  done;
  t.var_inc <- t.var_inc *. 1.05;
  let learnt = !asserting :: !learnt in
  let blevel =
    List.fold_left
      (fun acc l -> if l = !asserting then acc else max acc t.level.(lit_var l))
      0 (List.tl learnt |> fun tl -> tl)
  in
  (learnt, blevel)

let backtrack t blevel =
  if decision_level t > blevel then begin
    let bound = Vec.get t.trail_lim blevel in
    while Vec.length t.trail > bound do
      let l = Vec.pop t.trail in
      let v = lit_var l in
      t.assign.(v) <- 0;
      t.reason.(v) <- -1
    done;
    while Vec.length t.trail_lim > blevel do
      ignore (Vec.pop t.trail_lim)
    done;
    t.qhead <- Vec.length t.trail
  end

let add_learnt t learnt =
  match learnt with
  | [] -> t.unsat <- true
  | [ l ] -> enqueue t l (-1)
  | l :: _ ->
    let arr = Array.of_list learnt in
    (* second watch: a literal from the backjump level *)
    let best = ref 1 in
    for k = 2 to Array.length arr - 1 do
      if t.level.(lit_var arr.(k)) > t.level.(lit_var arr.(!best)) then best := k
    done;
    let w = arr.(!best) in
    arr.(!best) <- arr.(1);
    arr.(1) <- w;
    let id = Vec.push t.clauses arr in
    t.watches.(arr.(0)) <- id :: t.watches.(arr.(0));
    t.watches.(arr.(1)) <- id :: t.watches.(arr.(1));
    enqueue t l id

type outcome = Sat of bool array | Unsat

exception Done of outcome

let pick_branch t =
  let best = ref 0 and best_a = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) = 0 && t.activity.(v) > !best_a then begin
      best := v;
      best_a := t.activity.(v)
    end
  done;
  !best

let solve ?(assumptions = []) t =
  if t.unsat then Unsat
  else begin
    backtrack t 0;
    t.qhead <- 0;
    (* replay top-level units *)
    try
      Vec.iter
        (fun l ->
          match value t l with
          | 1 -> ()
          | -1 -> raise (Done Unsat)
          | _ -> enqueue t l (-1))
        t.units;
      if propagate t >= 0 then raise (Done Unsat);
      let nassume = List.length assumptions in
      List.iter
        (fun a ->
          let l = lit_of_int a in
          (match value t l with
          | 1 -> ignore (Vec.push t.trail_lim (Vec.length t.trail))
          | -1 -> raise (Done Unsat)
          | _ ->
            ignore (Vec.push t.trail_lim (Vec.length t.trail));
            enqueue t l (-1));
          if propagate t >= 0 then raise (Done Unsat))
        assumptions;
      let continue = ref true in
      while !continue do
        let confl = propagate t in
        if confl >= 0 then begin
          if decision_level t <= nassume then raise (Done Unsat);
          let learnt, blevel = analyze t confl in
          if blevel < nassume then raise (Done Unsat);
          backtrack t blevel;
          add_learnt t learnt
        end
        else begin
          let v = pick_branch t in
          if v = 0 then begin
            let model = Array.make (t.nvars + 1) false in
            for u = 1 to t.nvars do
              model.(u) <- t.assign.(u) = 1
            done;
            raise (Done (Sat model))
          end
          else begin
            ignore (Vec.push t.trail_lim (Vec.length t.trail));
            (* phase: default false *)
            enqueue t ((2 * v) + 1) (-1)
          end
        end
      done;
      Unsat
    with Done r ->
      backtrack t 0;
      r
  end
