module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Fault = Minflo_robust.Fault

type options = {
  max_iterations : int;
  solver : Dphase.solver;
  tilos_bump : float;
  limits : Budget.limits;
  warm_start : bool;
  canonical_duals : bool;
}

let default_options =
  { max_iterations = 100;
    solver = `Simplex;
    tilos_bump = 1.1;
    limits = Budget.no_limits;
    warm_start = true;
    canonical_duals = true }

(* trust region: start at [eta0], shrink by [eta_shrink] on every stalled
   pass, give up below [eta_min] *)
let eta0 = 0.5
let eta_shrink = 0.5
let eta_min = 1e-3

(* an accepted pass that gains less than [rel_tol] of the area also
   shrinks the trust region *)
let rel_tol = 1e-4

(* [osc_window] consecutive rejected candidates whose areas agree within
   [osc_tol] (relative) stop the run with [Stop_oscillation] *)
let osc_tol = 1e-9
let osc_window = 3

(* everything the proof-carrying trace records about one accepted D/W pass:
   the claims (area, cp, budgets) plus the evidence (the flow certificate
   whose potentials were the displacement). *)
type step = {
  step_iter : int;
  step_solver : string;
  step_eta : float;
  step_area : float;
  step_cp : float;
  step_predicted : float;
  step_sizes : float array;
  step_budgets : float array;
  step_certificate : Dphase.certificate option;
}

type stop_reason =
  | Stop_converged
  | Stop_max_iterations
  | Stop_budget of Diag.error
  | Stop_oscillation of { area : float; repeats : int }

(* Full loop state at the bottom of one D/W pass: everything the refinement
   loop reads. Restarting the loop from a snapshot replays the remaining
   passes exactly (the phases are deterministic in [sizes] and [eta]), which
   is what makes checkpoint/resume bit-identical to an uninterrupted run. *)
type snapshot = {
  snap_iter : int;
  snap_sizes : float array;
  snap_area : float;
  snap_eta : float;
  snap_osc_area : float;
  snap_osc_repeats : int;
  snap_solver : string option;
}

type result = {
  sizes : float array;
  area : float;
  cp : float;
  met : bool;
  iterations : int;
  tilos : Tilos.result;
  area_saving_pct : float;
  stop : stop_reason;
  solver_used : string option;
  budget_exhausted : bool;
}

let stop_reason_to_string = function
  | Stop_converged -> "converged"
  | Stop_max_iterations -> "max-iterations"
  | Stop_budget e -> "budget: " ^ Diag.to_string e
  | Stop_oscillation { area; repeats } ->
    Printf.sprintf "oscillation: area %g repeated %d times" area repeats

let dlog log severity fmt =
  Printf.ksprintf
    (fun msg ->
      match log with
      | Some l -> Diag.log l severity ~source:"minflotransit" msg
      | None -> ())
    fmt

let refine_from ?(options = default_options) ?fault ?log ?on_iteration
    ?on_step ?resume ?budget model ~target ~init ~tilos =
  let budget =
    match budget with Some b -> b | None -> Budget.start options.limits
  in
  (* the loop state is a snapshot: every pass reads and replaces it *)
  let st =
    ref
      (match resume with
      | Some s -> { s with snap_sizes = Array.copy s.snap_sizes }
      | None ->
        { snap_iter = 0;
          snap_sizes = Array.copy init;
          snap_area = Delay_model.area model init;
          snap_eta = eta0;
          snap_osc_area = nan;
          snap_osc_repeats = 0;
          snap_solver = None })
  in
  (* [None] while the loop runs *)
  let stop = ref None in
  (* one warm context for the whole refinement: the displacement LP keeps
     its constraint-graph shape across iterations (and across trust-region
     retries), which is exactly the reuse condition of the flow solvers.
     Warm starts force canonical duals — without them a warm solve may pick
     a different vertex of the optimal dual face than a cold one and the
     trajectories would drift apart. *)
  let warm = if options.warm_start then Some (Dphase.make_warm ()) else None in
  let canonical = options.canonical_duals || options.warm_start in
  while Option.is_none !stop && !st.snap_eta >= eta_min do
    let s = !st in
    if s.snap_iter >= options.max_iterations then
      stop := Some Stop_max_iterations
    else
      match Budget.check budget with
      | Some e ->
        dlog log Diag.Warning "run budget exhausted: %s" (Diag.to_string e);
        stop := Some (Stop_budget e)
      | None ->
        Budget.tick_iteration budget;
        let x = s.snap_sizes in
        let delays = Delay_model.delays model x in
        let dopts =
          { Dphase.default_options with
            eta = s.snap_eta;
            solver = options.solver;
            canonical_duals = canonical }
        in
        (* the pass's candidate, as the step it becomes if accepted *)
        let candidate =
          match
            Dphase.solve ~options:dopts ~budget ?warm ?fault ?log
              ~certify:(on_step <> None) model ~sizes:x ~delays
              ~deadline:target
          with
          | Error e -> Error e
          | Ok dres ->
            (match Wphase.solve ?fault model ~budgets:dres.budgets with
            | Error e -> Error e
            | Ok wres ->
              if not wres.feasible then Ok None
              else begin
                let delays' = Delay_model.delays model wres.sizes in
                let cp' = Sta.critical_path_only model ~delays:delays' in
                if not (Tolerance.meets ~target cp') then Ok None
                else
                  Ok
                    (Some
                       { step_iter = s.snap_iter + 1;
                         step_solver = dres.rung;
                         step_eta = s.snap_eta;
                         step_area = Delay_model.area model wres.sizes;
                         step_cp = cp';
                         step_predicted = dres.objective;
                         step_sizes = wres.sizes;
                         step_budgets = dres.budgets;
                         step_certificate = dres.certificate })
              end)
        in
        (match candidate with
        | Error e ->
          (* typed phase failure: keep the best-so-far sizing. A budget
             failure ends the run with its reason; anything else shrinks
             the trust region and retries, like a rejected candidate. *)
          (match e with
          | Diag.Budget_exhausted _ -> stop := Some (Stop_budget e)
          | _ ->
            dlog log Diag.Warning "iteration failed: %s" (Diag.to_string e);
            st := { s with snap_eta = s.snap_eta *. eta_shrink })
        | Ok (Some c) when c.step_area < s.snap_area ->
          (* a gain below [rel_tol] is taken too, then tightens the trust
             region *)
          let small = not (c.step_area < s.snap_area *. (1.0 -. rel_tol)) in
          let eta = if small then s.snap_eta *. eta_shrink else s.snap_eta in
          st :=
            { s with
              snap_iter = c.step_iter;
              snap_sizes = c.step_sizes;
              snap_area = c.step_area;
              snap_eta = eta;
              snap_osc_repeats = 0;
              snap_solver = Some c.step_solver };
          Option.iter
            (fun f ->
              f
                { c with
                  step_sizes = Array.copy c.step_sizes;
                  step_budgets = Array.copy c.step_budgets })
            on_step;
          if small then begin
            if eta < eta_min then stop := Some Stop_converged
          end
          else
            dlog log Diag.Info "iter %d: area %.1f cp %.4g eta %.3g via %s"
              c.step_iter c.step_area c.step_cp eta c.step_solver
        | Ok None -> st := { s with snap_eta = s.snap_eta *. eta_shrink }
        | Ok (Some c) ->
          (* no improvement at this trust region. Oscillation: consecutive
             REJECTED candidates landing on the same area; accepted
             iterations require a strict decrease and cannot cycle. *)
          let area' = c.step_area in
          let s =
            if
              Float.is_finite s.snap_osc_area
              && abs_float (area' -. s.snap_osc_area)
                 <= osc_tol *. max 1.0 (abs_float area')
            then { s with snap_osc_repeats = s.snap_osc_repeats + 1 }
            else { s with snap_osc_area = area'; snap_osc_repeats = 1 }
          in
          let repeats = s.snap_osc_repeats in
          if repeats >= osc_window then begin
            dlog log Diag.Warning
              "oscillation: rejected area %g seen %d consecutive times" area'
              repeats;
            stop := Some (Stop_oscillation { area = area'; repeats });
            st := s
          end
          else st := { s with snap_eta = s.snap_eta *. eta_shrink });
        (* checkpoint hook: the loop state at the bottom of this pass is a
           valid resume point — replaying from it is bit-identical. Skipped
           once the run has decided to stop (the final state is the result,
           not a resume point). *)
        (match on_iteration with
        | Some f when Option.is_none !stop ->
          f { !st with snap_sizes = Array.copy !st.snap_sizes }
        | _ -> ())
  done;
  let s = !st in
  let stop = Option.value !stop ~default:Stop_converged in
  let cp =
    Sta.critical_path_only model ~delays:(Delay_model.delays model s.snap_sizes)
  in
  let tilos_area = (tilos : Tilos.result).area in
  { sizes = s.snap_sizes;
    area = s.snap_area;
    cp;
    met = Tolerance.meets ~target cp;
    iterations = s.snap_iter;
    tilos;
    area_saving_pct =
      (if tilos_area > 0.0 then
         100.0 *. (tilos_area -. s.snap_area) /. tilos_area
       else 0.0);
    stop;
    solver_used = s.snap_solver;
    budget_exhausted =
      (match stop with Stop_budget _ -> true | _ -> false)
      || Budget.exhausted budget }

let optimize ?(options = default_options) ?fault ?log ?on_iteration
    ?on_tilos ?on_step model ~target =
  let budget = Budget.start options.limits in
  let tilos = Tilos.size ~bump:options.tilos_bump ~budget model ~target in
  Option.iter (fun f -> f tilos) on_tilos;
  if not tilos.met then
    (* the seed, unrefined, with the budget's stop reason *)
    { sizes = tilos.sizes;
      area = tilos.area;
      cp = tilos.final_cp;
      met = false;
      iterations = 0;
      tilos;
      area_saving_pct = 0.0;
      stop =
        (match Budget.check budget with
        | Some e -> Stop_budget e
        | None -> Stop_converged);
      solver_used = None;
      budget_exhausted = Budget.exhausted budget }
  else
    refine_from ~options ?fault ?log ?on_iteration ?on_step ~budget
      model ~target ~init:tilos.sizes ~tilos
