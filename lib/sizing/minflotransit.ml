module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Fallback = Minflo_robust.Fallback
module Check = Minflo_robust.Check
module Fault = Minflo_robust.Fault

let log_src = Logs.Src.create "minflotransit" ~doc:"MINFLOTRANSIT driver"

module Log = (val Logs.src_log log_src)

type options = {
  max_iterations : int;
  solver : [ `Auto | `Simplex | `Ssp | `Bellman_ford ];
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

type iteration = {
  iter : int;
  area : float;
  cp : float;
  eta : float;
  predicted_gain : float;
  solver : string;
}

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
  trace : iteration list;
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

(* a check verdict: the first entry of [a] that [describe] flags *)
let first_bad a describe =
  match Array.find_mapi describe a with Some d -> Error d | None -> Ok ()

(* The D-phase as a fallback chain: `Auto degrades simplex -> ssp ->
   bellman-ford on retryable failures; a pinned solver is a 1-rung chain. *)
let dphase_rungs = function
  | `Auto -> [ `Simplex; `Ssp; `Bellman_ford ]
  | (`Simplex | `Ssp | `Bellman_ford) as s -> [ s ]

let emit_step on_step ~iter ~rung ~eta ~area ~cp ~predicted ~sizes ~budgets
    ~cert =
  match on_step with
  | None -> ()
  | Some f ->
    f
      { step_iter = iter;
        step_solver = rung;
        step_eta = eta;
        step_area = area;
        step_cp = cp;
        step_predicted = predicted;
        step_sizes = Array.copy sizes;
        step_budgets = Array.copy budgets;
        step_certificate = cert }

let refine_with ?fault ?log ?checks ?on_iteration ?on_step ?resume ~budget
    ?(options = default_options) model ~target ~init ~tilos =
  let x =
    ref
      (match resume with
      | Some s -> Array.copy s.snap_sizes
      | None -> Array.copy init)
  in
  let area =
    ref
      (match resume with
      | Some s -> s.snap_area
      | None -> Delay_model.area model !x)
  in
  let eta = ref (match resume with Some s -> s.snap_eta | None -> eta0) in
  let trace = ref [] in
  let iters = ref (match resume with Some s -> s.snap_iter | None -> 0) in
  let continue = ref true in
  let stop = ref Stop_converged in
  let solver_used =
    ref (match resume with Some s -> s.snap_solver | None -> None)
  in
  (* oscillation: consecutive REJECTED candidates landing on the same area.
     Accepted iterations require a strict decrease and cannot cycle. *)
  let osc_area = ref (match resume with Some s -> s.snap_osc_area | None -> nan) in
  let osc_repeats =
    ref (match resume with Some s -> s.snap_osc_repeats | None -> 0)
  in
  (* one warm context for the whole refinement: the displacement LP keeps
     its constraint-graph shape across iterations (and across trust-region
     retries), which is exactly the reuse condition of the flow solvers.
     Warm starts force canonical duals — without them a warm solve may pick
     a different vertex of the optimal dual face than a cold one and the
     trajectories would drift apart. *)
  let warm = if options.warm_start then Some (Minflo_flow.Diff_lp.make_warm ()) else None in
  let canonical = options.canonical_duals || options.warm_start in
  while !continue && !eta >= eta_min do
    if !iters >= options.max_iterations then begin
      stop := Stop_max_iterations;
      continue := false
    end
    else
      match Budget.check budget with
      | Some e ->
        dlog log Diag.Warning "run budget exhausted: %s" (Diag.to_string e);
        stop := Stop_budget e;
        continue := false
      | None ->
        Budget.tick_iteration budget;
        let delays = Delay_model.delays model !x in
        let eta_used = !eta in
        (* one cell per pass, cleared per rung: a rung that wrote a
           certificate and then failed must not leak it into the trace of
           the rung that actually succeeded *)
        let cert = ref None in
        let attempt solver () =
          let dopts =
            { Dphase.default_options with
              eta = !eta;
              solver;
              canonical_duals = canonical }
          in
          cert := None;
          Dphase.solve ~options:dopts ~budget ?warm ?fault ?checks
            ?certificate:(if on_step = None then None else Some cert)
            model ~sizes:!x ~delays ~deadline:target
        in
        let rungs =
          List.map
            (fun s ->
              { Fallback.name = Dphase.solver_name s; attempt = attempt s })
            (dphase_rungs options.solver)
        in
        let step =
          match Fallback.run ?log rungs with
          | Error e -> Error e
          | Ok { value = dres; rung; failures } ->
            (* with a Diag log, [Fallback.run] has logged each failure *)
            if Option.is_none log then
              List.iter
                (fun (name, e) ->
                  Log.warn (fun m ->
                      m "D-phase solver %s failed: %s" name (Diag.to_string e)))
                failures;
            (match Wphase.solve ?fault model ~budgets:dres.budgets with
            | Error e -> Error e
            | Ok wres ->
              Option.iter
                (fun c ->
                  Check.record c "wphase.sizes-in-bounds"
                    (first_bad wres.sizes (fun i v ->
                         if Tolerance.in_box model v then None
                         else
                           Some (Printf.sprintf "size %g at vertex %d" v i))))
                checks;
              if not wres.feasible then Ok None
              else begin
                let delays' = Delay_model.delays model wres.sizes in
                let cp' = Sta.critical_path_only model ~delays:delays' in
                Option.iter
                  (fun c ->
                    Check.record c "wphase.budgets-met"
                      (first_bad delays' (fun i d ->
                           let b = dres.budgets.(i) in
                           if Tolerance.budget_met ~budget:b d then None
                           else
                             Some
                               (Printf.sprintf
                                  "vertex %d delay %g exceeds budget %g" i d
                                  b))))
                  checks;
                if not (Tolerance.meets ~target cp') then Ok None
                else
                  Ok
                    (Some
                       ( wres.sizes,
                         Delay_model.area model wres.sizes,
                         cp',
                         dres.objective,
                         rung,
                         dres.budgets ))
              end)
        in
        (match step with
        | Error e ->
          (* typed phase failure: keep the best-so-far sizing. A budget
             failure ends the run with its reason; anything else shrinks
             the trust region and retries, like a rejected candidate. *)
          (match e with
          | Diag.Budget_exhausted _ ->
            stop := Stop_budget e;
            continue := false
          | _ ->
            (* one channel, so a caller that replays its Diag log prints
               the warning once *)
            let msg = Diag.to_string e in
            (match log with
            | Some _ -> dlog log Diag.Warning "iteration failed: %s" msg
            | None -> Log.warn (fun m -> m "iteration failed: %s" msg));
            eta := !eta *. eta_shrink)
        | Ok (Some (x', area', cp', predicted, rung, budgets'))
          when area' < !area ->
          (* a gain below [rel_tol] is taken too, then tightens the trust
             region *)
          let small = not (area' < !area *. (1.0 -. rel_tol)) in
          incr iters;
          x := x';
          area := area';
          osc_repeats := 0;
          solver_used := Some rung;
          if small then eta := !eta *. eta_shrink;
          trace :=
            { iter = !iters;
              area = area';
              cp = cp';
              eta = !eta;
              predicted_gain = (if small then 0.0 else predicted);
              solver = rung }
            :: !trace;
          emit_step on_step ~iter:!iters ~rung ~eta:eta_used ~area:area'
            ~cp:cp' ~predicted ~sizes:x' ~budgets:budgets' ~cert:!cert;
          if small then begin
            if !eta < eta_min then continue := false
          end
          else begin
            dlog log Diag.Info "iter %d: area %.1f cp %.4g eta %.3g via %s"
              !iters area' cp' !eta rung;
            Log.debug (fun m ->
                m "iter %d: area %.1f cp %.4g eta %.3g" !iters area' cp' !eta)
          end
        | Ok rejected ->
          (* no improvement at this trust region *)
          (match rejected with
          | Some (_, area', _, _, _, _) ->
            if
              Float.is_finite !osc_area
              && abs_float (area' -. !osc_area)
                 <= osc_tol *. max 1.0 (abs_float area')
            then incr osc_repeats
            else begin
              osc_area := area';
              osc_repeats := 1
            end;
            if !osc_repeats >= osc_window then begin
              dlog log Diag.Warning
                "oscillation: rejected area %g seen %d consecutive times"
                area' !osc_repeats;
              stop := Stop_oscillation { area = area'; repeats = !osc_repeats };
              continue := false
            end
          | None -> ());
          if !continue then eta := !eta *. eta_shrink);
        (* checkpoint hook: the loop state at the bottom of this pass is a
           valid resume point — replaying from it is bit-identical. Skipped
           once the run has decided to stop (the final state is the result,
           not a resume point). *)
        (match on_iteration with
        | Some f when !continue ->
          f
            { snap_iter = !iters;
              snap_sizes = Array.copy !x;
              snap_area = !area;
              snap_eta = !eta;
              snap_osc_area = !osc_area;
              snap_osc_repeats = !osc_repeats;
              snap_solver = !solver_used }
        | _ -> ())
  done;
  let delays = Delay_model.delays model !x in
  let cp = Sta.critical_path_only model ~delays in
  let tilos_area = (tilos : Tilos.result).area in
  let budget_exhausted =
    (match !stop with Stop_budget _ -> true | _ -> false)
    || Budget.exhausted budget
  in
  { sizes = !x;
    area = !area;
    cp;
    met = Tolerance.meets ~target cp;
    iterations = !iters;
    trace = List.rev !trace;
    tilos;
    area_saving_pct =
      (if tilos_area > 0.0 then 100.0 *. (tilos_area -. !area) /. tilos_area
       else 0.0);
    stop = !stop;
    solver_used = !solver_used;
    budget_exhausted }

let refine_from ?(options = default_options) ?fault ?log ?checks ?on_iteration
    ?on_step model ~target ~init ~tilos =
  let budget = Budget.start options.limits in
  refine_with ?fault ?log ?checks ?on_iteration ?on_step ~budget ~options model
    ~target ~init ~tilos

let optimize ?(options = default_options) ?fault ?log ?checks ?on_iteration
    ?on_step model ~target =
  let budget = Budget.start options.limits in
  let tilos = Tilos.size ~bump:options.tilos_bump ~budget model ~target in
  if not tilos.met then
    { sizes = tilos.sizes;
      area = tilos.area;
      cp = tilos.final_cp;
      met = false;
      iterations = 0;
      trace = [];
      tilos;
      area_saving_pct = 0.0;
      stop =
        (match Budget.check budget with
        | Some e -> Stop_budget e
        | None -> Stop_converged);
      solver_used = None;
      budget_exhausted = Budget.exhausted budget }
  else refine_with ?fault ?log ?checks ?on_iteration ?on_step ~budget ~options
      model ~target ~init:tilos.sizes ~tilos
