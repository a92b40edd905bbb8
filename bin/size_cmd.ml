(* minflo sta / size / sweep / power: one circuit at one delay target (or a
   sweep of them) through the timing and sizing engines. *)

open Cmdliner
open Minflo

let sta =
  let run (t : Cli.target) =
    let model = t.model in
    let x = Delay_model.uniform_sizes model model.Delay_model.min_size in
    let delays = Delay_model.delays model x in
    let sta = Sta.analyze model ~delays ~deadline:t.target in
    Fmt.pr "vertices: %d@." (Delay_model.num_vertices model);
    Fmt.pr "minimum-size critical path: %.4g@." sta.critical_path;
    Fmt.pr "deadline (factor %.2f): %.4g -> %s@." t.factor sta.deadline
      (if Tolerance.safe sta then "SAFE" else "UNSAFE at minimum size");
    let path = Sta.worst_path model ~delays in
    Fmt.pr "critical path (%d vertices):@." (List.length path);
    List.iter
      (fun i ->
        Fmt.pr "  %-24s delay %.4g slack %.4g@." model.Delay_model.labels.(i)
          delays.(i) sta.slack.(i))
      path
  in
  Cmd.v
    (Cmd.info "sta" ~doc:"Static timing report at minimum sizes.")
    Term.(const run $ Cli.target_term)

let size =
  let tool =
    Arg.(value & opt (enum [ ("tilos", `Tilos); ("minflo", `Minflo) ]) `Minflo
         & info [ "tool" ] ~doc:"Sizing tool: the TILOS baseline or MINFLOTRANSIT.")
  in
  let dump =
    Arg.(value & flag & info [ "dump-sizes" ] ~doc:"Print every size variable.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Verify the run as it runs: audit each trace record, \
                   the seed and every accepted D/W iteration, the moment \
                   the run produces it, exactly as $(b,minflo audit-run) \
                   would (flow certificate, budgets recomputed from its \
                   potentials, W-phase budgets met, size box, monotone \
                   area, the area and delay claims). Any finding exits with \
                   code 3. Not with $(b,--tool tilos).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a proof-carrying run trace (newline-delimited JSON) \
                   to $(docv): the TILOS seed, every accepted D/W iteration \
                   with its sizes, delay budgets and min-cost-flow \
                   certificate, and the final result. Verify it later with \
                   $(b,minflo audit-run). Not with $(b,--tool tilos).")
  in
  let run_size tool dump solver do_check limits faults trace_out
      (t : Cli.target) =
    let model = t.model and target = t.target and d0 = t.dmin in
    let a0 = Sweep.min_area model in
    Fmt.pr "circuit %s: %d sized vertices, Dmin %.4g, target %.4g@."
      (Netlist.name t.nl) (Delay_model.num_vertices model) d0 target;
    (* interval bound analysis: a target below the static delay floor is
       rejected here, with a witness path, before any solver runs *)
    let bounds = Bounds.compute model in
    (match Bounds.infeasible_target_error model bounds ~target with
    | Some e -> Diag.fail e
    | None -> ());
    (* one run feeds the trace file and the auditor alike, each record as
       the run produces it. A storage failure writing the trace must fail
       the --trace flag, not the sizing: the run's results are printed
       first, then the error *)
    let file = Option.map (fun path -> (path, Trace.File.create path)) trace_out in
    let auditor =
      if do_check then Some (Trace.Auditor.create model ~target) else None
    in
    let trace_error = ref None in
    let sizes, area, cp, met, iterations =
      match tool with
      | `Tilos ->
        let r = Tilos.size model ~target in
        Fmt.pr "TILOS: %d bumps@." r.bumps;
        (r.sizes, r.area, r.final_cp, r.met, 0)
      | `Minflo ->
        let options =
          { Minflotransit.default_options with solver; limits }
        in
        let fault = Cli.arm faults in
        let log = Diag.create_log () in
        let r =
          if Option.is_none file && Option.is_none auditor then
            Minflotransit.optimize ~options ?fault ~log model ~target
          else
            Trace.run ~options ?fault ~log model ~circuit:(Netlist.name t.nl)
              ~target ~emit:(fun j ->
                Option.iter (fun (_, f) -> Trace.File.emit f j) file;
                Option.iter (fun a -> Trace.Auditor.feed a j) auditor)
        in
        (* one step record per accepted pass *)
        Option.iter
          (fun (path, f) ->
            match Trace.File.close f with
            | Error e -> trace_error := Some e
            | Ok () ->
              Fmt.pr "trace: %d step records written to %s@." r.iterations path)
          file;
        List.iter
          (fun ev -> Fmt.epr "%s@." (Diag.event_to_string ev))
          (Diag.events_above log Diag.Warning);
        Fmt.pr "TILOS seed: area ratio %.3f (%d bumps)@."
          (r.tilos.area /. a0) r.tilos.bumps;
        Fmt.pr "MINFLOTRANSIT: %d iterations, saving %.2f%% over TILOS@."
          r.iterations r.area_saving_pct;
        Fmt.pr "stop: %s@." (Minflotransit.stop_reason_to_string r.stop);
        (match r.solver_used with
        | Some s -> Fmt.pr "D-phase solver: %s@." s
        | None -> ());
        if r.budget_exhausted then
          Fmt.pr "run budget exhausted: returning best feasible sizing found@.";
        (r.sizes, r.area, r.cp, r.met, r.iterations)
    in
    Fmt.pr "met: %b  delay: %.4g (%.3f x Dmin)  area ratio: %.3f@." met cp
      (cp /. d0) (area /. a0);
    if dump then
      Array.iteri
        (fun i x -> Fmt.pr "  %-24s %.3f@." model.Delay_model.labels.(i) x)
        sizes;
    Option.iter
      (fun a ->
        let findings = Trace.Auditor.finish a in
        Fmt.pr "check: %d step records audited@.%s@?" iterations
          (Lint_report.render findings);
        match findings with
        | f :: _ ->
          Cli.invariant "trace-audit" "%s %s" f.Lint_finding.rule.Lint_rule.id
            f.message
        | [] -> ())
      auditor;
    Option.iter
      (fun e ->
        Fmt.epr "trace: %s@." (Diag.to_string e);
        if met then Diag.fail e)
      !trace_error;
    if not met then Diag.fail (Diag.Unmet_target { target; achieved = cp })
  in
  (* --check and --trace read the D/W iterations, which a TILOS run has
     none of *)
  let run tool dump solver do_check limits faults trace_out t =
    let flags =
      (if do_check then [ "--check" ] else [])
      @ if trace_out <> None then [ "--trace" ] else []
    in
    if tool = `Tilos && flags <> [] then
      `Error
        ( true,
          String.concat " and " flags
          ^ " cannot be combined with --tool tilos: a TILOS run has no D/W \
             iterations to audit or trace" )
    else `Ok (run_size tool dump solver do_check limits faults trace_out t)
  in
  Cmd.v
    (Cmd.info "size" ~doc:"Size a circuit for a delay target.")
    Term.(ret
            (const run $ tool $ dump $ Cli.solver_arg $ check $ Cli.limits_term
             $ Cli.faults_term $ trace_arg $ Cli.target_term))

let sweep =
  let run granularity factors name =
    let model = Cli.build_model granularity (Cli.circuit name) in
    Sweep.print_curve (Sweep.curve model ~factors)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Area-delay trade-off curve (Figure 7 style).")
    Term.(const run $ Cli.model_arg
          $ Cli.factors_arg [ 0.4; 0.5; 0.6; 0.8; 1.0 ] $ Cli.circuit_arg)

let power =
  let run factor name =
    let t = Cli.target_of (Cli.circuit name) ~factor in
    let tech = Tech.default_130nm and nl = t.nl in
    let r = Minflotransit.optimize t.model ~target:t.target in
    let act = Activity.estimate ~patterns:2048 ~seed:1 nl in
    let p_min = Power.min_size_baseline tech nl ~activity:act in
    let p_tilos = Power.dynamic tech nl ~activity:act ~sizes:r.tilos.sizes in
    let p_opt = Power.dynamic tech nl ~activity:act ~sizes:r.sizes in
    Fmt.pr "switching power, normalized to the minimum-size circuit:@.";
    Fmt.pr "  minimum size:  1.00x@.";
    Fmt.pr "  TILOS:         %.3fx@." (p_tilos.total /. p_min.total);
    Fmt.pr "  MINFLOTRANSIT: %.3fx (met=%b)@." (p_opt.total /. p_min.total) r.met
  in
  Cmd.v
    (Cmd.info "power" ~doc:"Switching-power report for a sized circuit.")
    Term.(const run $ Cli.factor_arg $ Cli.circuit_arg)
