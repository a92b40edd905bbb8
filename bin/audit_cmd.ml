(* minflo lint / audit-cert / audit-run: the static analyzer and the two
   independent auditors, all reporting Lint_finding.t lists. *)

open Cmdliner
open Minflo

let lint =
  let circuits =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"CIRCUIT"
             ~doc:"Circuits to lint: .bench/.v file paths or built-in suite \
                   names; repeatable.")
  in
  let fail_on =
    Arg.(value
         & opt
             (enum
                [ ("error", Lint_rule.Error); ("warning", Lint_rule.Warning);
                  ("info", Lint_rule.Info) ])
             Lint_rule.Error
         & info [ "fail-on" ]
             ~doc:"Lowest severity that makes the exit code non-zero \
                   (default error).")
  in
  let max_fanout =
    Arg.(value & opt (some int) None
         & info [ "max-fanout" ] ~docv:"N"
             ~doc:"Enable the MF007 pass: warn when a signal fans out to \
                   more than $(docv) gate pins.")
  in
  let bounds_factor =
    Arg.(value & opt (some float) None
         & info [ "bounds-factor" ] ~docv:"F"
             ~doc:"Enable the interval-bound passes (MF201 statically \
                   infeasible target, MF202 pinned gates, MF203 \
                   slack-irrelevant gates): elaborate each clean circuit at \
                   gate granularity and analyze the achievable-delay \
                   intervals against a target of $(docv) times its \
                   minimum-size critical path.")
  in
  let run circuits report fail_on max_fanout bounds_factor =
    let config = { Lint.default_config with fanout_bound = max_fanout } in
    let findings =
      List.concat_map
        (fun spec ->
          match Job.load_raw spec with
          | Ok raw ->
            let structural = Lint.check ~config raw in
            let bounds =
              (* the bound analysis needs an elaborated timing model, which
                 only exists for structurally clean netlists *)
              match bounds_factor with
              | Some factor
                when not
                       (Lint_finding.exceeds ~fail_on:Lint_rule.Error
                          structural) -> (
                match Job.load_circuit spec with
                | Ok nl ->
                  let t = Cli.target_of nl ~factor in
                  Bounds.check t.model ~target:t.target
                | Error _ -> [])
              | _ -> []
            in
            structural @ bounds
          | Error (Diag.Parse_error { file; line; col; msg }) ->
            (* unparseable input is itself a finding, so a SARIF report (and
               the exit code) still covers the file *)
            [ Lint_finding.make ~file
                ~loc:{ Raw.line; col }
                Lint_rule.mf000_syntax msg ]
          | Error e -> Diag.fail e)
        circuits
    in
    Cli.emit_report report findings ~fail_on
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis of netlists: combinational cycles (with their \
             member gates), multi-driven and undriven nets, dangling \
             inputs, dead logic, duplicate declarations, gate arity, \
             fanout bounds and technology coverage (rules MF000-MF010), \
             plus technology-model monotonicity (MF204) and — with \
             $(b,--bounds-factor) — the interval-bound passes: statically \
             infeasible delay targets with a witness critical path (MF201), \
             gates the target pins at their best case (MF202) and gates \
             whose worst case still meets it (MF203). Exit 2 at or above \
             the --fail-on severity.")
    Term.(const run $ circuits $ Cli.report_term $ fail_on
          $ max_fanout $ bounds_factor)

let audit_cert =
  let solvers_arg =
    Arg.(value
         & opt
             (list
                (enum
                   [ ("simplex", `Simplex); ("ssp", `Ssp);
                     ("cost-scaling", `Cost_scaling) ]))
             [ `Simplex; `Ssp; `Cost_scaling ]
         & info [ "solvers" ]
             ~doc:"Comma-separated MCF solvers whose certificates to audit \
                   (default: all three).")
  in
  let audit_fault_arg =
    Arg.(value & opt_all Cli.fault_site_conv []
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Corrupt the named solver's solution before auditing \
                   (audit.simplex, audit.ssp, audit.cost-scaling); \
                   repeatable. The audit must then fail — this is how the \
                   auditor itself is tested.")
  in
  let run solvers fault_sites (t : Cli.target) =
    let model = t.model and target = t.target in
    (* a real D-phase workload: TILOS first, so the displacement LP is built
       at a feasible, representative operating point *)
    let tilos = Tilos.size model ~target in
    if not tilos.met then
      Diag.fail (Diag.Unmet_target { target; achieved = tilos.final_cp });
    let sizes = tilos.sizes in
    let delays = Delay_model.delays model sizes in
    let problem =
      Cli.or_fail
        (Dphase.displacement_problem model ~sizes ~delays ~deadline:target)
    in
    (* unlike the engine's --inject-fault (which arms Fail to exercise the
       fallback chain), the audit sites arm Perturb: the point is a silently
       corrupted solution that only the auditor can catch *)
    let fault =
      match fault_sites with
      | [] -> None
      | sites ->
        let f = Fault.create ~seed:0 () in
        List.iter (fun site -> Fault.arm f ~site (Fault.Perturb 1.0)) sites;
        Some f
    in
    Fmt.pr "displacement LP for %s @@ %.2f: %d nodes, %d arcs@."
      (Netlist.name t.nl) t.factor problem.Mcf.num_nodes
      (Array.length problem.Mcf.arcs);
    let audit_one (tag, solve) =
      let sol = solve problem in
      (* a Perturb fault bumps one arc's flow: breaks conservation at its
         endpoints and leaves the stale objective behind *)
      (match Option.bind fault (fun f -> Fault.fire f ~site:("audit." ^ tag)) with
      | Some (Fault.Perturb mag) when Array.length sol.Mcf.flow > 0 ->
        sol.Mcf.flow.(0) <- sol.Mcf.flow.(0) + max 1 (int_of_float mag)
      | Some (Fault.Fail e) -> Diag.fail e
      | _ -> ());
      let findings = Audit.check problem sol in
      if findings = [] then begin
        Fmt.pr "%-14s certificate OK (objective %d)@." tag sol.Mcf.objective;
        false
      end
      else begin
        Fmt.pr "%-14s certificate REJECTED:@." tag;
        print_string (Lint_report.render findings);
        Lint_finding.exceeds ~fail_on:Lint_rule.Error findings
      end
    in
    let named = function
      | `Simplex -> ("simplex", Network_simplex.solve ?budget:None)
      | `Ssp -> ("ssp", Ssp.solve ?budget:None)
      | `Cost_scaling -> ("cost-scaling", Cost_scaling.solve ?budget:None)
    in
    let bad = List.filter audit_one (List.map named solvers) in
    if bad <> [] then
      Cli.invariant "audit-cert" "%d of %d certificates rejected"
        (List.length bad) (List.length solvers)
  in
  Cmd.v
    (Cmd.info "audit-cert"
       ~doc:"Independently audit min-cost-flow optimality certificates: \
             solve the circuit's D-phase displacement LP with each solver, \
             then re-verify flow bounds, conservation, complementary \
             slackness and the objective from first principles (rules \
             MF101-MF105) without a second solve. A rejected certificate \
             exits 3.")
    Term.(const run $ solvers_arg $ audit_fault_arg $ Cli.target_term)

let audit_run =
  let trace_pos =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file written by $(b,minflo size --trace).")
  in
  let run trace_path report (t : Cli.target) =
    if not (Sys.file_exists trace_path) then
      Diag.fail (Diag.Io_error { file = trace_path; msg = "no such file" });
    let findings =
      Cli.or_fail (Trace.audit_file t.model ~target:t.target trace_path)
    in
    if findings = [] then
      Fmt.pr "trace OK: %s @@ factor %.2f verified against %s@." trace_path
        t.factor (Netlist.name t.nl)
    else Cli.emit_report report findings ~fail_on:Lint_rule.Error
  in
  Cmd.v
    (Cmd.info "audit-run"
       ~doc:"Independently verify a proof-carrying engine trace (from \
             $(b,minflo size --trace)): recompute every claimed area and \
             delay from the recorded sizes, check the W-phase delay \
             budgets, demand monotone area progress, rebuild every D-phase \
             displacement LP from scratch and re-audit its min-cost-flow \
             certificate (rules MF210-MF215 plus MF101-MF105). Any \
             tampered field — one arc cost, one flow value, one claimed \
             area — is detected; findings exit 2.")
    Term.(const run $ trace_pos $ Cli.report_term $ Cli.target_term)
