module Delay_model = Minflo_tech.Delay_model
module Balance = Minflo_timing.Balance
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Bellman_ford = Minflo_flow.Bellman_ford
module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Fault = Minflo_robust.Fault

type solver = [ `Auto | `Simplex | `Ssp | `Bellman_ford ]

(* one rung of the chain: a solver that runs on its own *)
type rung = [ `Simplex | `Ssp | `Bellman_ford ]

let solver_name = function
  | `Auto -> "auto"
  | `Simplex -> "simplex"
  | `Ssp -> "ssp"
  | `Bellman_ford -> "bellman-ford"

let solver_of_string = function
  | "auto" -> Some `Auto
  | "simplex" -> Some `Simplex
  | "ssp" -> Some `Ssp
  | "bf" | "bellman-ford" -> Some `Bellman_ford
  | _ -> None

type options = {
  eta : float;
  scale : float;
  solver : solver;
  canonical_duals : bool;
}

let default_options =
  { eta = 0.5;
    scale = 1.0e4;
    solver = `Simplex;
    canonical_duals = false }

type certificate = { problem : Mcf.problem; solution : Mcf.solution }

type outcome = {
  budgets : float array;
  delta : float array;
  objective : float;
  lp_objective : int;
  rung : string;
  certificate : certificate option;
}

(* the displacement LP as its dual min-cost flow, and the sensitivity
   weights of the objective *)
type lp_build = { problem : Mcf.problem; weights : float array }

(* warm-start state of the two exact rungs: a spanning-tree basis for the
   simplex, Johnson potentials for SSP *)
type warm = { simplex : Network_simplex.state; ssp : Ssp.state }

let make_warm () =
  { simplex = Network_simplex.make_state (); ssp = Ssp.make_state () }

(* LP variable r(i) is node [i], Dmy(i) is node [n + i], ground is node
   [2n]. Each constraint [x - y <= w] is the uncapacitated arc [x -> y] of
   cost [w], and each objective coefficient the supply of its node. *)
let build_lp ?(options = default_options) (model : Delay_model.t) ~sizes
    ~delays ~deadline =
  let n = model.n in
  let sta = Sta.analyze model ~delays ~deadline in
  if not (Tolerance.safe sta) then
    Error (Diag.Unsafe_timing { cp = sta.critical_path; deadline })
  else begin
    (* the safety probe IS the analysis the balancer needs — hand it over
       instead of paying a second full sweep per D-phase *)
    let bal = Balance.balance ~mode:`Alap ~sta model ~delays ~deadline in
    let weights = Sensitivity.weights model ~sizes ~delays in
    (* integerization *)
    let s = options.scale in
    (* the loops below spell out [max]/[min] as float and int compares:
       the polymorphic ones cost a C call and a boxed float each *)
    let iw =
      let wmax = ref 1e-30 in
      for i = 0 to Array.length weights - 1 do
        if not (!wmax >= weights.(i)) then wmax := weights.(i)
      done;
      (* supplies are kept small so cost*flow stays far from overflow *)
      let ws = 1.0e3 /. !wmax in
      Array.init (Array.length weights) (fun i ->
          let v = int_of_float (Float.round (weights.(i) *. ws)) in
          if 1 >= v then 1 else v)
    in
    (* constraint right-hand sides round DOWN (and never below 0): the
       feasible region only shrinks, so integerization can make the step
       smaller but never lets a budget exceed the true slack *)
    let[@inline] q x =
      let v = int_of_float (floor (x *. s)) in
      if v > 0 then v else 0
    in
    let ground = 2 * n in
    let num_ground = ref 0 in
    for i = 0 to n - 1 do
      if Delay_model.is_source model i then incr num_ground;
      if model.Delay_model.is_sink.(i) then incr num_ground
    done;
    let arcs =
      Array.make
        ((2 * n) + model.m + !num_ground)
        { Mcf.src = 0; dst = 0; cap = Mcf.infinite_capacity; cost = 0 }
    in
    let next = ref 0 in
    (* [x - y <= w] *)
    let add_le x y w =
      arcs.(!next) <-
        { Mcf.src = x; dst = y; cap = Mcf.infinite_capacity; cost = w };
      incr next
    in
    let supply = Array.make ((2 * n) + 1) 0 in
    (* trust-region bounds on the per-vertex delay change *)
    for i = 0 to n - 1 do
      let max_dd = options.eta *. delays.(i) in
      let head_room = delays.(i) -. (1.02 *. model.Delay_model.a_self.(i)) -. 1e-9 in
      (* min max_dd (max 0.0 head_room) *)
      let head_room = if 0.0 >= head_room then 0.0 else head_room in
      let min_dd = -.(if max_dd <= head_room then max_dd else head_room) in
      (* r(Dmy i) - r(i) <= MAXdD  and  r(i) - r(Dmy i) <= -MINdD *)
      add_le (n + i) i (q max_dd);
      add_le i (n + i) (q (-.min_dd));
      supply.(n + i) <- iw.(i);
      supply.(i) <- -iw.(i)
    done;
    (* causality: displaced FSDUs on real edges stay non-negative *)
    for e = 0 to model.m - 1 do
      let i = model.edge_src.(e) and j = model.edge_dst.(e) in
      (* FSDU_e + r(j) - r(Dmy i) >= 0 *)
      add_le (n + i) j (q bal.edge_fsdu.(e))
    done;
    (* virtual input edges (ground -> source) and output edges
       (sink -> ground), with ground pinned: Corollary 1 *)
    for i = 0 to n - 1 do
      if Delay_model.is_source model i then
        add_le ground i (q bal.source_fsdu.(i));
      if model.Delay_model.is_sink.(i) then
        add_le (n + i) ground (q bal.sink_fsdu.(i))
    done;
    Ok { problem = { num_nodes = (2 * n) + 1; arcs; supply }; weights }
  end

(* Dmy(i) is node [n + i] of the displacement LP *)
let budgets_of_potentials ?(options = default_options) ~delays potential =
  let n = Array.length delays in
  let delta =
    Array.init n (fun i ->
        float_of_int (potential.(n + i) - potential.(i)) /. options.scale)
  in
  (Array.init n (fun i -> delays.(i) +. delta.(i)), delta)

let displacement_problem ?options model ~sizes ~delays ~deadline =
  Result.map
    (fun b -> b.problem)
    (build_lp ?options model ~sizes ~delays ~deadline)

(* Feasibility repair, the last rung: [x - y <= w] holds under the
   shortest-path distances over the reversed arc [y -> x] of weight [w]
   (then dist(x) <= dist(y) + w by the relaxation invariant). Running from
   all sources keeps every value finite. The assignment is feasible but
   generally suboptimal; it comes back as potentials with no flow, and a
   negative cycle (an infeasible LP) as the flow's [Unbounded]. *)
let solve_by_feasibility (p : Mcf.problem) : Mcf.solution =
  let g =
    { Bellman_ford.num_nodes = p.num_nodes;
      arc_src = Array.map (fun (a : Mcf.arc) -> a.dst) p.arcs;
      arc_dst = Array.map (fun (a : Mcf.arc) -> a.src) p.arcs;
      arc_weight = Array.map (fun (a : Mcf.arc) -> a.cost) p.arcs }
  in
  match Bellman_ford.run_all g with
  | Negative_cycle _ ->
    { status = Unbounded; flow = [||]; potential = [||]; objective = 0 }
  | Distances potential ->
    { status = Optimal; flow = [||]; potential; objective = 0 }

(* the LP's optimal value is the flow's dual objective, Σ supply·π *)
let dual_objective (p : Mcf.problem) potential =
  let total = ref 0 in
  for v = 0 to p.num_nodes - 1 do
    total := !total + (p.supply.(v) * potential.(v))
  done;
  !total

(* whether [potential] violates a constraint of the LP: the solver's
   divergence detector *)
let violates (p : Mcf.problem) potential =
  Array.exists
    (fun (a : Mcf.arc) -> potential.(a.src) - potential.(a.dst) > a.cost)
    p.arcs

(* One rung on the already-built LP. *)
let attempt ~options ?budget ?warm ?fault ~certify { problem = p; weights }
    ~delays (solver : rung) =
  let n = Array.length delays in
  let sname = solver_name solver in
  match Option.bind fault (fun f -> Fault.fire f ~site:("dphase." ^ sname)) with
  | Some (Fault.Fail e) -> Error e
  | (None | Some (Fault.Perturb _)) as fired ->
    let sol =
      match (solver, warm) with
      | `Simplex, Some w -> Network_simplex.solve_warm ?budget w.simplex p
      | `Simplex, None -> Network_simplex.solve ?budget p
      | `Ssp, Some w -> Ssp.solve_warm ?budget w.ssp p
      | `Ssp, None -> Ssp.solve ?budget p
      | `Bellman_ford, _ -> solve_by_feasibility p
    in
    let exact = solver <> `Bellman_ford in
    (* canonicalize BEFORE the fault so its perturbation lands on the final
       values and the divergence check still bites *)
    let sol =
      if exact && options.canonical_duals && sol.status = Mcf.Optimal then
        { sol with potential = Mcf.canonical_potentials p sol }
      else sol
    in
    (* a Perturb fault pushes one dual value past its trust-region bound:
       exactly the symptom of a solver that stopped short of optimality *)
    (match fired with
    | Some (Fault.Perturb mag) when exact && n > 0 && sol.status = Mcf.Optimal ->
      sol.potential.(n) <-
        sol.potential.(n) + max 1 (int_of_float (mag *. options.scale))
    | _ -> ());
    (* the LP [max b.pi : pi(u) - pi(v) <= w] is unbounded iff the flow is
       infeasible, and infeasible iff the flow is unbounded (a negative
       cycle of constraints) *)
    (match sol.status with
    | Mcf.Unbounded ->
      Error
        (Diag.Internal
           "Dphase: displacement LP infeasible — balanced FSDUs violated (bug)")
    | Mcf.Infeasible ->
      Error
        (Diag.Internal
           "Dphase: displacement LP unbounded — trust region missing (bug)")
    | Mcf.Aborted ->
      Error
        (match budget with
        | Some b -> (
          match Budget.check b with
          | Some e -> e
          | None ->
            Diag.Budget_exhausted
              { resource = "pivots";
                spent = float_of_int (Budget.pivots b);
                limit = float_of_int (Budget.pivots b) })
        | None -> Diag.Internal "Dphase: solver aborted without a budget")
    | Mcf.Optimal when violates p sol.potential ->
      (* the returned duals violate the very constraints the solver was
         given: it diverged (or was made to look like it did) *)
      Error
        (Diag.Solver_diverged
           { solver = sname;
             iters = (match budget with Some b -> Budget.pivots b | None -> 0) })
    | Mcf.Optimal ->
      let budgets, delta = budgets_of_potentials ~options ~delays sol.potential in
      let objective =
        Array.fold_left ( +. ) 0.0
          (Array.init n (fun i -> weights.(i) *. delta.(i)))
      in
      if not (Float.is_finite objective) then
        Error (Diag.Numeric { what = "dphase.objective"; value = objective })
      else
        Ok
          { budgets;
            delta;
            objective;
            lp_objective = dual_objective p sol.potential;
            rung = sname;
            (* exactly the (possibly perturbed) certificate the engine acts
               on, copied: the solver owns and may reuse these arrays *)
            certificate =
              (if certify && exact then
                 Some
                   { problem = p;
                     solution =
                       { sol with
                         flow = Array.copy sol.flow;
                         potential = Array.copy sol.potential } }
               else None) })

let solve ?(options = default_options) ?budget ?warm ?fault ?log
    ?(certify = false) model ~sizes ~delays ~deadline =
  Result.bind (build_lp ~options model ~sizes ~delays ~deadline) (fun b ->
      (* [rung], then the rest of the chain while failures are retryable *)
      let rec run rung rest =
        match
          attempt ~options ?budget ?warm ?fault ~certify b ~delays rung
        with
        | Ok o -> Ok o
        | Error e -> (
          Option.iter
            (fun l ->
              Diag.logf l Diag.Warning ~source:"fallback" "rung %s failed: %s"
                (solver_name rung) (Diag.to_string e))
            log;
          match rest with
          | next :: rest when Diag.retryable e -> run next rest
          | _ -> Error e)
      in
      match options.solver with
      | `Auto -> run `Simplex [ `Ssp; `Bellman_ford ]
      | #rung as r -> run r [])
