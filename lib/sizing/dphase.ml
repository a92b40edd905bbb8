module Delay_model = Minflo_tech.Delay_model
module Balance = Minflo_timing.Balance
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Diff_lp = Minflo_flow.Diff_lp
module Mcf = Minflo_flow.Mcf
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

(* the displacement LP, its Dmy variables (where a Perturb fault lands)
   and the sensitivity weights of the objective *)
type lp_build = {
  lp : Diff_lp.t;
  rdmy : int array;
  weights : float array;
}

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
    let lp =
      Diff_lp.create ~vars_hint:((2 * n) + 1)
        ~cons_hint:((2 * n) + model.m + n)
        ()
    in
    let r = Array.init n (fun _ -> Diff_lp.var lp) in
    let rdmy = Array.init n (fun _ -> Diff_lp.var lp) in
    let ground = Diff_lp.var lp in
    (* trust-region bounds on the per-vertex delay change *)
    for i = 0 to n - 1 do
      let max_dd = options.eta *. delays.(i) in
      let head_room = delays.(i) -. (1.02 *. model.Delay_model.a_self.(i)) -. 1e-9 in
      (* min max_dd (max 0.0 head_room) *)
      let head_room = if 0.0 >= head_room then 0.0 else head_room in
      let min_dd = -.(if max_dd <= head_room then max_dd else head_room) in
      (* r(Dmy i) - r(i) <= MAXdD  and  r(i) - r(Dmy i) <= -MINdD *)
      Diff_lp.add_le lp rdmy.(i) r.(i) (q max_dd);
      Diff_lp.add_le lp r.(i) rdmy.(i) (q (-.min_dd));
      Diff_lp.add_objective lp rdmy.(i) iw.(i);
      Diff_lp.add_objective lp r.(i) (-iw.(i))
    done;
    (* causality: displaced FSDUs on real edges stay non-negative *)
    for e = 0 to model.m - 1 do
      let i = model.edge_src.(e) and j = model.edge_dst.(e) in
      (* FSDU_e + r(j) - r(Dmy i) >= 0 *)
      Diff_lp.add_le lp rdmy.(i) r.(j) (q bal.edge_fsdu.(e))
    done;
    (* virtual input edges (ground -> source) and output edges
       (sink -> ground), with ground pinned: Corollary 1 *)
    for i = 0 to n - 1 do
      if Delay_model.is_source model i then
        Diff_lp.add_le lp ground r.(i) (q bal.source_fsdu.(i));
      if model.Delay_model.is_sink.(i) then
        Diff_lp.add_le lp rdmy.(i) ground (q bal.sink_fsdu.(i))
    done;
    Ok { lp; rdmy; weights }
  end

(* [build_lp] makes the variables r(0..n-1), then Dmy(0..n-1), then
   ground, so Dmy(i) is variable [n + i]; a solution's values are the
   first variables of its potential vector *)
let budgets_of_potentials ?(options = default_options) ~delays potential =
  let n = Array.length delays in
  let delta =
    Array.init n (fun i ->
        float_of_int (potential.(n + i) - potential.(i)) /. options.scale)
  in
  (Array.init n (fun i -> delays.(i) +. delta.(i)), delta)

let displacement_problem ?options model ~sizes ~delays ~deadline =
  Result.map
    (fun b -> Diff_lp.to_problem b.lp)
    (build_lp ?options model ~sizes ~delays ~deadline)

(* One rung on the already-built LP. *)
let attempt ~options ?budget ?warm ?fault ~certify
    { lp; rdmy; weights } ~delays (solver : rung) =
  let n = Array.length delays in
  let s = options.scale in
  let sname = solver_name solver in
  match Option.bind fault (fun f -> Fault.fire f ~site:("dphase." ^ sname)) with
  | Some (Fault.Fail e) -> Error e
  | (None | Some (Fault.Perturb _)) as fired ->
    let perturb =
      match fired with Some (Fault.Perturb m) -> Some m | _ -> None
    in
    let certificate = ref None in
    let on_solution p (sol : Mcf.solution) =
      (* a Perturb fault pushes one dual value past its trust-region bound:
         exactly the symptom of a solver that stopped short of optimality *)
      (match perturb with
      | Some mag when n > 0 && sol.status = Mcf.Optimal ->
        sol.potential.(rdmy.(0)) <-
          sol.potential.(rdmy.(0)) + max 1 (int_of_float (mag *. s))
      | _ -> ());
      (* snapshot for the proof-carrying trace: exactly the (possibly
         perturbed) certificate the engine is about to act on. Copied —
         the solver owns and may reuse these arrays. *)
      if certify then
        certificate :=
          Some
            { problem = p;
              solution =
                { sol with
                  flow = Array.copy sol.flow;
                  potential = Array.copy sol.potential } }
    in
    (match
       Diff_lp.solve ~solver ?budget ?warm ~canonical:options.canonical_duals
         ~on_solution lp
     with
    | Diff_lp.Infeasible_lp ->
      Error
        (Diag.Internal
           "Dphase: displacement LP infeasible — balanced FSDUs violated (bug)")
    | Diff_lp.Unbounded_lp ->
      Error
        (Diag.Internal
           "Dphase: displacement LP unbounded — trust region missing (bug)")
    | Diff_lp.Aborted_lp ->
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
    | Diff_lp.Solution { values; objective = lp_objective } ->
      (match Diff_lp.check_assignment lp values with
      | Error _ ->
        (* the returned duals violate the very constraints the solver was
           given: it diverged (or was made to look like it did) *)
        Error
          (Diag.Solver_diverged
             { solver = sname;
               iters =
                 (match budget with Some b -> Budget.pivots b | None -> 0) })
      | Ok _ ->
        let budgets, delta = budgets_of_potentials ~options ~delays values in
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
              lp_objective;
              rung = sname;
              certificate = !certificate }))

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
