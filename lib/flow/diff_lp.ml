type var = int

(* Flat storage: [obj.(v)] is the objective coefficient of variable [v]
   (the supply of its flow node), and constraint [i] is
   [con_x.(i) - con_y.(i) <= con_w.(i)]. The arrays are sized from the
   hints and double when outgrown; only the first [nvars]/[ncons] slots are
   live. *)
type t = {
  mutable nvars : int;
  mutable obj : int array;
  mutable ncons : int;
  mutable con_x : int array;
  mutable con_y : int array;
  mutable con_w : int array;
}

let create ?(vars_hint = 16) ?(cons_hint = 64) () =
  let cons = max 1 cons_hint in
  { nvars = 0;
    obj = Array.make (max 1 vars_hint) 0;
    ncons = 0;
    con_x = Array.make cons 0;
    con_y = Array.make cons 0;
    con_w = Array.make cons 0 }

let grow a = Array.append a (Array.make (Array.length a) 0)

let var t =
  let v = t.nvars in
  if v = Array.length t.obj then t.obj <- grow t.obj;
  t.nvars <- v + 1;
  v

let num_vars t = t.nvars

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Diff_lp: unknown variable"

let add_le t x y w =
  check_var t x;
  check_var t y;
  let i = t.ncons in
  if i = Array.length t.con_x then begin
    t.con_x <- grow t.con_x;
    t.con_y <- grow t.con_y;
    t.con_w <- grow t.con_w
  end;
  t.con_x.(i) <- x;
  t.con_y.(i) <- y;
  t.con_w.(i) <- w;
  t.ncons <- i + 1

let add_objective t x c =
  check_var t x;
  t.obj.(x) <- t.obj.(x) + c

type outcome =
  | Solution of { values : int array; objective : int }
  | Infeasible_lp
  | Unbounded_lp
  | Aborted_lp

let objective_value t values =
  let total = ref 0 in
  for v = 0 to t.nvars - 1 do
    total := !total + (t.obj.(v) * values.(v))
  done;
  !total

let check_assignment t values =
  if Array.length values <> t.nvars then Error "wrong assignment length"
  else begin
    let bad = ref None in
    for i = 0 to t.ncons - 1 do
      let x = t.con_x.(i) and y = t.con_y.(i) and w = t.con_w.(i) in
      if values.(x) - values.(y) > w then
        bad :=
          Some
            (Printf.sprintf "constraint %d violated: v%d - v%d = %d > %d" i x y
               (values.(x) - values.(y))
               w)
    done;
    match !bad with Some e -> Error e | None -> Ok (objective_value t values)
  end

let to_problem t : Mcf.problem =
  let arcs =
    Array.init t.ncons (fun i ->
        { Mcf.src = t.con_x.(i);
          dst = t.con_y.(i);
          cap = Mcf.infinite_capacity;
          cost = t.con_w.(i) })
  in
  { num_nodes = t.nvars; arcs; supply = Array.sub t.obj 0 t.nvars }

(* Feasibility repair: [x - y <= w] is satisfied by shortest-path distances
   over the reversed arc [y -> x] with weight [w] (then dist(x) <= dist(y) + w
   by the relaxation invariant). Running from all sources keeps every value
   finite. The assignment is feasible but generally suboptimal — this is the
   last rung of the solver fallback chain, not a replacement for the flow
   solvers. *)
let solve_by_feasibility t =
  let m = t.ncons in
  let g =
    { Bellman_ford.num_nodes = t.nvars;
      arc_src = Array.sub t.con_y 0 m;
      arc_dst = Array.sub t.con_x 0 m;
      arc_weight = Array.sub t.con_w 0 m }
  in
  match Bellman_ford.run_all g with
  | Negative_cycle _ -> Infeasible_lp
  | Distances values -> Solution { values; objective = objective_value t values }

type warm = {
  ws_simplex : Network_simplex.state;
  ws_ssp : Ssp.state;
}

let make_warm () =
  { ws_simplex = Network_simplex.make_state (); ws_ssp = Ssp.make_state () }

let solve ?(solver = `Simplex) ?budget ?warm ?(canonical = false) ?on_solution t =
  (* The dual LP [max b.pi : pi(u) - pi(v) <= w] is bounded iff the flow
     problem is feasible, and feasible iff the constraint graph has no
     negative cycle; MCF statuses map accordingly. *)
  let balance = ref 0 in
  for v = 0 to t.nvars - 1 do
    balance := !balance + t.obj.(v)
  done;
  if !balance <> 0 then
    (* supplies would not balance; the LP is unbounded along the all-ones
       direction unless the coefficients cancel *)
    Unbounded_lp
  else
    match solver with
    | `Bellman_ford -> solve_by_feasibility t
    | (`Simplex | `Ssp) as s ->
      let p = to_problem t in
      let sol =
        match (s, warm) with
        | `Simplex, Some w -> Network_simplex.solve_warm ?budget w.ws_simplex p
        | `Simplex, None -> Network_simplex.solve ?budget p
        | `Ssp, Some w -> Ssp.solve_warm ?budget w.ws_ssp p
        | `Ssp, None -> Ssp.solve ?budget p
      in
      (* canonicalize BEFORE the observer so fault-injection perturbations
         land on the final values and divergence checks still bite *)
      let sol =
        if canonical && sol.status = Optimal then
          { sol with potential = Mcf.canonical_potentials p sol }
        else sol
      in
      (match on_solution with None -> () | Some f -> f p sol);
      (match sol.status with
      | Optimal ->
        let values = Array.sub sol.potential 0 t.nvars in
        Solution { values; objective = objective_value t values }
      | Infeasible -> Unbounded_lp
      | Unbounded -> Infeasible_lp
      | Aborted -> Aborted_lp)
