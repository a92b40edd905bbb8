module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Io = Minflo_robust.Io
module Json = Minflo_util.Json
module Tech = Minflo_tech.Tech
module Tilos = Minflo_sizing.Tilos
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep

type config = {
  checkpoint_dir : string option;
  resume : bool;
  supervise : Supervisor.config;
  differential : bool;
  diff_tolerance : float;
  engine : Minflotransit.options;
  fault_seed : int option;
  make_fault : Job.t -> Minflo_robust.Fault.t option;
  preflight : bool;
}

let default_config =
  { checkpoint_dir = None;
    resume = false;
    supervise = Supervisor.default_config;
    differential = false;
    diff_tolerance = Differential.default_tolerance;
    engine = Minflotransit.default_options;
    fault_seed = None;
    make_fault = (fun _ -> None);
    preflight = true }

type job_report = {
  job : Job.t;
  outcome : (Job.outcome, Diag.error) result option;
  attempts : int;
  quarantined : bool;
  differential : (unit, Diag.error) result option;
}

type summary = {
  reports : job_report list;
  ok : int;
  failed : int;
  skipped : int;
  mismatches : int;
}

let checkpoint_path cfg job =
  Option.map
    (fun dir -> Filename.concat dir (Job.file_slug job ^ ".ckpt"))
    cfg.checkpoint_dir

(* ---------- one job, in the calling process ---------- *)

let run_job ?(emit : Supervisor.emit option) ?(exhausted_ok = false) cfg
    (job : Job.t) : (Job.outcome, Diag.error) result =
  let emit_event ?fields name =
    match emit with Some e -> e ?fields name | None -> ()
  in
  let perf0 = Minflo_robust.Perf.snapshot () in
  let emit_perf () =
    let spent = Minflo_robust.Perf.(diff perf0 (snapshot ())) in
    emit_event
      ~fields:
        (List.map
           (fun (k, v) -> (k, Json.Num (float_of_int v)))
           (Minflo_robust.Perf.to_fields spent))
      "job-perf"
  in
  let result =
  match Job.load_circuit job.circuit with
  | Error _ as e -> e
  | Ok nl -> (
    let model = Minflo_tech.Model_cache.model ~tech:Tech.default_130nm nl in
    let d0 = Sweep.dmin model in
    let a0 = Sweep.min_area model in
    let target = job.factor *. d0 in
    let hash = Checkpoint.hash_netlist nl in
    let solver_name = Job.solver_name job.solver in
    let options = { cfg.engine with Minflotransit.solver = job.solver } in
    let ckpt = checkpoint_path cfg job in
    let fault = cfg.make_fault job in
    let save_checkpoint budget tilos snap =
      emit_event
        ~fields:
          [ ("iter", Json.Num (float_of_int snap.Minflotransit.snap_iter));
            ("area", Json.of_float snap.Minflotransit.snap_area);
            ("eta", Json.of_float snap.Minflotransit.snap_eta) ]
        "job-checkpoint";
      match ckpt with
      | None -> ()
      | Some path -> (
        (* a failed checkpoint write must not kill a healthy run; the disk
           still has the last good one thanks to atomic replace — but the
           failure is journaled so a later resume-from-stale surprise is
           explicable *)
        match
          (Checkpoint.save path
             { Checkpoint.circuit = job.circuit;
               circuit_hash = hash;
               target;
               solver = solver_name;
               fault_seed = cfg.fault_seed;
               snapshot = snap;
               tilos;
               budget_iterations = Budget.iterations budget;
               budget_pivots = Budget.pivots budget;
               budget_elapsed = Budget.elapsed budget })
        with
        | Ok () -> ()
        | Error e ->
          emit_event
            ~fields:
              [ ("code", Json.Str (Diag.error_code e));
                ("detail", Json.Str (Diag.to_string e)) ]
            "job-checkpoint-failed")
    in
    let finish ~resumed (r : Minflotransit.result) =
      (* [exhausted_ok]: a serving parent would rather have the best
         feasible sizing found before the budget tripped than a bare
         error — the engine guarantees every iterate is feasible, so if
         the seed met the target the exhausted result still does. *)
      if r.budget_exhausted && not (exhausted_ok && r.met) then
        (* keep the checkpoint: --resume with a larger budget continues *)
        match r.stop with
        | Minflotransit.Stop_budget e -> Error e
        | _ ->
          Error
            (Diag.Budget_exhausted
               { resource = "unknown"; spent = 0.0; limit = 0.0 })
      else begin
        (match ckpt with
        | Some p when not r.budget_exhausted -> (
          try Sys.remove p with Sys_error _ -> ())
        | _ -> ());
        Ok
          { Job.job;
            area = r.area;
            area_ratio = r.area /. a0;
            cp = r.cp;
            target;
            met = r.met;
            iterations = r.iterations;
            saving_pct = r.area_saving_pct;
            stop = Minflotransit.stop_reason_to_string r.stop;
            resumed;
            perf = Minflo_robust.Perf.(diff perf0 (snapshot ())) }
      end
    in
    let resume_state =
      if not cfg.resume then Ok None
      else
        match ckpt with
        | Some path when Sys.file_exists path -> (
          match Checkpoint.load path with
          | Error _ as e -> e
          | Ok ck -> (
            match
              Checkpoint.validate ~file:path ck ~circuit_hash:hash ~target
                ~solver:solver_name
            with
            | Error _ as e -> e
            | Ok () -> Ok (Some ck)))
        | _ -> Ok None
    in
    match resume_state with
    | Error _ as e -> e
    | Ok (Some ck) ->
      let budget =
        Budget.resume options.limits ~elapsed:ck.budget_elapsed
          ~iterations:ck.budget_iterations ~pivots:ck.budget_pivots
      in
      finish ~resumed:true
        (Minflotransit.refine_with ?fault
           ~on_iteration:(save_checkpoint budget ck.tilos)
           ~resume:ck.snapshot ~budget ~options model ~target
           ~init:ck.tilos.sizes ~tilos:ck.tilos)
    | Ok None -> (
      let budget = Budget.start options.limits in
      let tilos = Tilos.size ~bump:options.tilos_bump ~budget model ~target in
      match Budget.check budget with
      | Some e -> Error e (* tripped inside TILOS: nothing to checkpoint *)
      | None ->
        if not tilos.met then
          Error (Diag.Unmet_target { target; achieved = tilos.final_cp })
        else
          finish ~resumed:false
            (Minflotransit.refine_with ?fault
               ~on_iteration:(save_checkpoint budget tilos)
               ~budget ~options model ~target ~init:tilos.sizes ~tilos)))
  in
  emit_perf ();
  result

(* ---------- the batch ---------- *)

let journal_path dir = Filename.concat dir "journal.jsonl"

let run ?(config = default_config) jobs =
  let journal =
    match config.checkpoint_dir with
    | None -> Ok None
    | Some dir -> (
      match Io.mkdirs dir with
      | Error _ as e -> e
      | Ok () -> (
        match Journal.open_append (journal_path dir) with
        | Error _ as e -> e
        | Ok j -> Ok (Some j)))
  in
  match journal with
  | Error e -> Error e
  | Ok journal ->
    (* Seal on SIGTERM/SIGINT: a batch killed by an operator (or a CI
       timeout) must leave a journal that says so — one [run-interrupted]
       event, then a clean close — instead of just stopping mid-file.
       Checkpoints on disk stay valid, so [--resume] picks up from here.
       Workers forked by the supervisor reset these handlers to the
       default disposition, so only the journal-owning parent ever
       seals. *)
    let restore_signals =
      match journal with
      | None -> fun () -> ()
      | Some jr ->
        let seal name code _ =
          Journal.event jr
            ~fields:[ ("signal", Json.Str name) ]
            "run-interrupted";
          Journal.close jr;
          exit code
        in
        let old =
          List.filter_map
            (fun (sg, name, code) ->
              try
                Some (sg, Sys.signal sg (Sys.Signal_handle (seal name code)))
              with Invalid_argument _ | Sys_error _ -> None)
            [ (Sys.sigterm, "SIGTERM", 143); (Sys.sigint, "SIGINT", 130) ]
        in
        fun () ->
          List.iter
            (fun (sg, behavior) ->
              try Sys.set_signal sg behavior
              with Invalid_argument _ | Sys_error _ -> ())
            old
    in
    let done_areas =
      match (config.resume, config.checkpoint_dir) with
      | true, Some dir -> Journal.completed (journal_path dir)
      | _ -> Hashtbl.create 1
    in
    let to_run =
      List.filter (fun j -> not (Hashtbl.mem done_areas (Job.id j))) jobs
    in
    (match journal with
    | Some jr ->
      Journal.event jr
        ~fields:
          [ ("jobs", Json.Num (float_of_int (List.length jobs)));
            ( "skipped",
              Json.Num (float_of_int (List.length jobs - List.length to_run)) );
            ("resume", Json.Bool config.resume);
            ("differential", Json.Bool config.differential) ]
        "batch-start"
    | None -> ());
    (* pre-flight lint gate: a parse or lint error is structural — the
       circuit will fail identically on every attempt — so such jobs are
       quarantined here, before any process is forked, with no retries and
       no backoff. One check per distinct circuit spec, not per job. *)
    let lint_verdicts = Hashtbl.create 8 in
    let lint_error spec =
      match Hashtbl.find_opt lint_verdicts spec with
      | Some v -> v
      | None ->
        let v =
          if not config.preflight then None
          else
            match Job.load_raw spec with
            | Error e -> Some e
            | Ok raw -> (
              let findings = Minflo_lint.Lint.check raw in
              match
                List.find_opt
                  (fun (f : Minflo_lint.Finding.t) ->
                    f.rule.severity = Minflo_lint.Rule.Error)
                  findings
              with
              | Some f -> Some (Minflo_lint.Finding.to_diag f)
              | None -> None)
        in
        Hashtbl.replace lint_verdicts spec v;
        v
    in
    let gated, to_run =
      List.partition (fun j -> lint_error j.Job.circuit <> None) to_run
    in
    let outcome_by_id = Hashtbl.create 16 in
    List.iter
      (fun j ->
        let e = Option.get (lint_error j.Job.circuit) in
        let id = Job.id j in
        (match journal with
        | Some jr -> Journal.event jr ~job:id ~error:e "job-lint-quarantined"
        | None -> ());
        Hashtbl.replace outcome_by_id id
          { Supervisor.verdict = Error e; attempts = 0; quarantined = true })
      gated;
    (* interval-bound gate: a delay target below the circuit's static
       floor (MF201) fails identically under every solver, so those jobs
       are quarantined with a witness path instead of burning attempts.
       One model build per distinct circuit; one float compare per job.
       The model/dmin recipe must mirror [run_job]'s exactly, or the gate
       would judge a different target than the job would run. *)
    let bounds_by_spec = Hashtbl.create 8 in
    let bounds_error (j : Job.t) =
      if not config.preflight then None
      else begin
        let per_circuit =
          match Hashtbl.find_opt bounds_by_spec j.Job.circuit with
          | Some v -> v
          | None ->
            let v =
              match Job.load_circuit j.Job.circuit with
              | Error _ -> None (* already quarantined by the lint gate *)
              | Ok nl ->
                let model =
                  Minflo_tech.Model_cache.model ~tech:Tech.default_130nm nl
                in
                Some (model, Sweep.dmin model, Minflo_lint.Bounds.compute model)
            in
            Hashtbl.replace bounds_by_spec j.Job.circuit v;
            v
        in
        match per_circuit with
        | None -> None
        | Some (model, dmin, b) ->
          Minflo_lint.Bounds.infeasible_target_error model b
            ~target:(j.Job.factor *. dmin)
      end
    in
    let gated_bounds, to_run =
      List.partition (fun j -> bounds_error j <> None) to_run
    in
    List.iter
      (fun j ->
        let e = Option.get (bounds_error j) in
        let id = Job.id j in
        (match journal with
        | Some jr -> Journal.event jr ~job:id ~error:e "job-bounds-quarantined"
        | None -> ());
        Hashtbl.replace outcome_by_id id
          { Supervisor.verdict = Error e; attempts = 0; quarantined = true })
      gated_bounds;
    let on_done id (o : Job.outcome Supervisor.outcome) =
      match (o.Supervisor.verdict, journal) with
      | Ok oc, Some jr ->
        Journal.event jr ~job:id
          ~fields:
            [ ("area", Json.of_float oc.Job.area);
              ("area_ratio", Json.of_float oc.Job.area_ratio);
              ("met", Json.Bool oc.Job.met);
              ("iterations", Json.Num (float_of_int oc.Job.iterations));
              ("resumed", Json.Bool oc.Job.resumed) ]
          "job-ok"
      | _ -> ()
    in
    let outcomes =
      Supervisor.run_all_tasks ~config:config.supervise ?journal ~on_done
        (List.map (fun j -> (Job.id j, fun emit -> run_job ~emit config j)) to_run)
    in
    List.iter (fun (id, o) -> Hashtbl.replace outcome_by_id id o) outcomes;
    (* differential legs: re-run each successful job under an independent
       solver. No checkpoints for these — they are verification only, and a
       secondary leg must never collide with a primary job's state. *)
    let diff_by_id = Hashtbl.create 16 in
    if config.differential then begin
      let succeeded =
        List.filter_map
          (fun j ->
            let id = Job.id j in
            match Hashtbl.find_opt outcome_by_id id with
            | Some { Supervisor.verdict = Ok oc; _ } -> Some (j, id, oc)
            | _ -> None)
          to_run
      in
      let diff_cfg =
        { config with
          checkpoint_dir = None;
          resume = false;
          differential = false }
      in
      let secondary =
        Supervisor.run_all_tasks ~config:config.supervise ?journal
          (List.map
             (fun (j, id, _) ->
               let sj = { j with Job.solver = Differential.counterpart j.Job.solver } in
               ("diff:" ^ id, fun emit -> run_job ~emit diff_cfg sj))
             succeeded)
      in
      List.iter2
        (fun (_, id, primary) (_, so) ->
          let verdict =
            match so.Supervisor.verdict with
            | Error _ as e -> e
            | Ok b ->
              Differential.compare_outcomes ~tolerance:config.diff_tolerance
                ~job_id:id ~a:primary ~b
          in
          (match (verdict, journal) with
          | Ok (), Some jr -> Journal.event jr ~job:id "diff-ok"
          | Error e, Some jr -> Journal.event jr ~job:id ~error:e "diff-fail"
          | _, None -> ());
          Hashtbl.replace diff_by_id id verdict)
        succeeded secondary
    end;
    let reports =
      List.map
        (fun j ->
          let id = Job.id j in
          match Hashtbl.find_opt outcome_by_id id with
          | None ->
            { job = j;
              outcome = None;
              attempts = 0;
              quarantined = false;
              differential = None }
          | Some o ->
            { job = j;
              outcome = Some o.Supervisor.verdict;
              attempts = o.Supervisor.attempts;
              quarantined = o.Supervisor.quarantined;
              differential = Hashtbl.find_opt diff_by_id id })
        jobs
    in
    let count p = List.length (List.filter p reports) in
    let summary =
      { reports;
        ok = count (fun r -> match r.outcome with Some (Ok _) -> true | _ -> false);
        failed =
          count (fun r -> match r.outcome with Some (Error _) -> true | _ -> false);
        skipped = count (fun r -> r.outcome = None);
        mismatches =
          count (fun r ->
              match r.differential with Some (Error _) -> true | _ -> false) }
    in
    (match journal with
    | Some jr ->
      Journal.event jr
        ~fields:
          [ ("ok", Json.Num (float_of_int summary.ok));
            ("failed", Json.Num (float_of_int summary.failed));
            ("skipped", Json.Num (float_of_int summary.skipped));
            ("mismatches", Json.Num (float_of_int summary.mismatches)) ]
        "batch-end";
      Journal.close jr
    | None -> ());
    restore_signals ();
    Ok summary
