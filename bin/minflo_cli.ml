(* minflo — command-line front end for the MINFLOTRANSIT sizing library.

   Circuits are named either by an ISCAS85/adder suite entry (c432, c6288,
   adder32, ...) or by a path to a .bench / .v file.

   Failures exit with a stable code (see README "Failure modes & exit
   codes"): 0 success, 1 target/timing not met, 2 bad input (unknown
   circuit, parse error, I/O error), 3 internal error or failed invariant. *)

open Cmdliner
open Minflo

let exit_code_of_error (e : Diag.error) =
  match e with
  | Diag.Parse_error _ | Diag.Lint_error _ | Diag.Unknown_circuit _
  | Diag.Io_error _ | Diag.Disk_full _ | Diag.Storage_corrupt _
  | Diag.Checkpoint_invalid _ | Diag.Journal_locked _ -> 2
  | Diag.Unmet_target _ | Diag.Infeasible_target _ | Diag.Unsafe_timing _
  | Diag.Infeasible_budget _
  | Diag.Budget_exhausted _ | Diag.Oscillation _ | Diag.Job_timeout _
  | Diag.Overloaded _ | Diag.Draining | Diag.Connect_refused _
  | Diag.Net_timeout _ -> 1
  | Diag.Solver_diverged _ | Diag.Numeric _ | Diag.Invariant _
  | Diag.Fault_injected _ | Diag.Differential_mismatch _ | Diag.Job_crashed _
  | Diag.Torn_response _ | Diag.Internal _ -> 3

(* raising variant for command bodies; the typed error is rendered and
   mapped to an exit code at the top level. *)
let circuit spec =
  match Job.load_circuit spec with Ok nl -> nl | Error e -> Diag.fail e

let circuit_arg =
  let doc =
    "Circuit: a .bench/.v file path or a built-in suite name (c432 .. c7552, \
     adder32, adder256, plus c17)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let model_arg =
  let doc = "Sizing granularity: gate (default) or transistor." in
  Arg.(value & opt (enum [ ("gate", `Gate); ("transistor", `Transistor) ]) `Gate
       & info [ "granularity"; "g" ] ~doc)

let build_model granularity nl =
  let tech = Tech.default_130nm in
  match granularity with
  | `Gate -> Model_cache.model ~tech nl
  | `Transistor -> Transistor.of_netlist tech (Transform.to_nand_inv nl)

let factor_arg =
  let doc = "Delay target as a fraction of the minimum-size circuit delay." in
  Arg.(value & opt float 0.5 & info [ "factor"; "f" ] ~doc)

(* ---------- resilience options (size) ---------- *)

let solver_arg =
  let doc =
    "D-phase LP solver: $(b,auto) (fallback chain simplex, then SSP, then \
     Bellman-Ford feasibility repair), $(b,simplex), $(b,ssp) or $(b,bf)."
  in
  Arg.(value
       & opt
           (enum
              [ ("auto", `Auto); ("simplex", `Simplex); ("ssp", `Ssp);
                ("bf", `Bellman_ford) ])
           `Auto
       & info [ "solver" ] ~doc)

let check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Verify post-phase invariants (flow conservation, \
                 reduced-cost optimality, FSDU non-negativity, W-phase \
                 budgets, size bounds) and report each finding; a failed \
                 invariant exits with code 3.")

let max_seconds_arg =
  Arg.(value & opt (some float) None
       & info [ "max-seconds" ] ~docv:"S"
           ~doc:"Wall-clock budget for the whole run; on exhaustion the best \
                 feasible sizing found so far is returned, flagged.")

let max_iterations_arg =
  Arg.(value & opt (some int) None
       & info [ "max-iterations" ] ~docv:"N"
           ~doc:"Budget on outer iterations (TILOS bumps + D/W rounds).")

let max_pivots_arg =
  Arg.(value & opt (some int) None
       & info [ "max-pivots" ] ~docv:"N"
           ~doc:"Budget on cumulative flow-solver pivots.")

(* every --inject-fault argument, on every subcommand, is validated against
   the catalog of instrumented sites at parse time *)
let fault_site_conv =
  let parse s =
    if Fault.is_known_point s then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown fault site %S; known sites: %s" s
              (String.concat ", " Fault.all_points)))
  in
  Arg.conv (parse, Fmt.string)

let fault_arg =
  Arg.(value & opt_all fault_site_conv []
       & info [ "inject-fault" ] ~docv:"SITE"
           ~doc:"Inject a deterministic failure at an instrumented site \
                 (dphase.simplex, dphase.ssp, dphase.bellman-ford, wphase, \
                 io.enospc, io.torn-rename, ...); repeatable. Engine sites \
                 exercise the fallback chain and budget paths; io.* sites \
                 exercise the storage layer every durable writer goes \
                 through. See $(b,minflo fuzz --list-faults) for the full \
                 catalog.")

let fault_count_arg =
  Arg.(value & opt (some int) None
       & info [ "fault-count" ] ~docv:"N"
           ~doc:"Fire each injected site at most $(docv) times (default: \
                 every hit).")

let fault_after_arg =
  Arg.(value & opt int 0
       & info [ "fault-after" ] ~docv:"K"
           ~doc:"Skip the first $(docv) hits of each injected site before \
                 firing; with io.crash-after-write and --fault-count 1 this \
                 selects the exact write boundary the simulated crash lands \
                 on.")

(* Engine sites travel inside the per-run [Fault.t]; "io.*" sites arm the
   ambient storage layer instead, so every durable writer — journal,
   checkpoint, trace, corpus — sees them without threading a plan. *)
let is_io_site s = String.length s > 3 && String.sub s 0 3 = "io."

let make_fault_plan ?(seed = 0) ?count ?(after = 0) sites =
  let armed sites =
    let f = Fault.create ~seed () in
    List.iter
      (fun site ->
        Fault.arm f ~site ?count ~after
          (Fault.Fail (Diag.Fault_injected { site })))
      sites;
    f
  in
  let io_sites, engine_sites = List.partition is_io_site sites in
  (match io_sites with
  | [] -> ()
  | _ ->
    Io.reset ();
    Io.set_fault (Some (armed io_sites)));
  match engine_sites with [] -> None | _ -> Some (armed engine_sites)

(* ---------- gen ---------- *)

let gen_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the netlist to $(docv) instead of stdout.")
  in
  let fmt_arg =
    Arg.(value
         & opt (enum [ ("bench", `Bench); ("verilog", `Verilog); ("dot", `Dot) ]) `Bench
         & info [ "format" ] ~doc:"Output format: bench, verilog or dot.")
  in
  let run name out fmt =
    let nl = circuit name in
    let text =
      match fmt with
      | `Bench -> Bench_format.to_string nl
      | `Verilog -> Verilog_format.to_string nl
      | `Dot ->
        Dot.to_dot ~name:"netlist" ~node_label:(Netlist.node_name nl)
          (Netlist.to_digraph nl)
    in
    match out with
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Fmt.pr "wrote %s (%d gates)@." path (Netlist.gate_count nl)
    | None -> print_string text
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a built-in circuit (bench/verilog/dot).")
    Term.(const run $ circuit_arg $ out $ fmt_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let run name =
    let nl = circuit name in
    let s = Netlist.stats nl in
    Fmt.pr "%s: %a@." (Netlist.name nl) Netlist.pp_stats s
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print netlist statistics.")
    Term.(const run $ circuit_arg)

(* ---------- sta ---------- *)

let sta_cmd =
  let run name granularity factor =
    let nl = circuit name in
    let model = build_model granularity nl in
    let x = Delay_model.uniform_sizes model model.Delay_model.min_size in
    let delays = Delay_model.delays model x in
    let sta = Sta.analyze model ~delays ~deadline:(factor *. Sweep.dmin model) in
    Fmt.pr "vertices: %d@." (Delay_model.num_vertices model);
    Fmt.pr "minimum-size critical path: %.4g@." sta.critical_path;
    Fmt.pr "deadline (factor %.2f): %.4g -> %s@." factor sta.deadline
      (if Sta.is_safe sta then "SAFE" else "UNSAFE at minimum size");
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
    Term.(const run $ circuit_arg $ model_arg $ factor_arg)

(* ---------- size ---------- *)

let size_cmd =
  let tool =
    Arg.(value & opt (enum [ ("tilos", `Tilos); ("minflo", `Minflo) ]) `Minflo
         & info [ "tool" ] ~doc:"Sizing tool: the TILOS baseline or MINFLOTRANSIT.")
  in
  let dump =
    Arg.(value & flag & info [ "dump-sizes" ] ~doc:"Print every size variable.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a proof-carrying run trace (newline-delimited JSON) \
                   to $(docv): the TILOS seed, every accepted D/W iteration \
                   with its sizes, delay budgets and min-cost-flow \
                   certificate, and the final result. Verify it later with \
                   $(b,minflo audit-run).")
  in
  let run name granularity factor tool dump solver do_check max_seconds
      max_iterations max_pivots fault_sites fault_count fault_after trace_out =
    let nl = circuit name in
    let model = build_model granularity nl in
    let d0 = Sweep.dmin model in
    let a0 = Sweep.min_area model in
    let target = factor *. d0 in
    Fmt.pr "circuit %s: %d sized vertices, Dmin %.4g, target %.4g@."
      (Netlist.name nl) (Delay_model.num_vertices model) d0 target;
    (* interval bound analysis: a target below the static delay floor is
       rejected here, with a witness path, before any solver runs *)
    let bounds = Bounds.compute model in
    (match Bounds.infeasible_target_error model bounds ~target with
    | Some e -> Diag.fail e
    | None -> ());
    let checks = if do_check then Some (Invariants.create ()) else None in
    (* a storage failure writing the trace must fail the --trace flag, not
       the sizing: the run's results are printed first, then the error *)
    let trace_error = ref None in
    let sizes, area, cp, met =
      match tool with
      | `Tilos ->
        let r = Tilos.size model ~target in
        Fmt.pr "TILOS: %d bumps@." r.bumps;
        (r.sizes, r.area, r.final_cp, r.met)
      | `Minflo ->
        let limits =
          Budget.limits ?wall_seconds:max_seconds ?max_iterations ?max_pivots ()
        in
        let options =
          { Minflotransit.default_options with solver; limits }
        in
        let fault =
          make_fault_plan ?count:fault_count ~after:fault_after fault_sites
        in
        let log = Diag.create_log () in
        (* steps arrive during the run but the trace file wants them after
           the tilos record (only available at the end), so buffer *)
        let steps = ref [] in
        let on_step =
          match trace_out with
          | Some _ -> Some (fun s -> steps := s :: !steps)
          | None -> None
        in
        let r =
          Minflotransit.optimize ~options ?fault ~log ?checks ?on_step model
            ~target
        in
        (match trace_out with
        | Some path -> (
          match Io.create_sink path with
          | Error e -> trace_error := Some e
          | Ok sink -> (
            let w = Trace.create sink model ~circuit:(Netlist.name nl) ~target in
            Trace.record_tilos w r.tilos;
            List.iter (Trace.record_step w) (List.rev !steps);
            Trace.record_result w r;
            Io.sink_close sink;
            match Trace.error w with
            | Some e -> trace_error := Some e
            | None ->
              Fmt.pr "trace: %d step records written to %s@."
                (List.length !steps) path))
        | None -> ());
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
        (r.sizes, r.area, r.cp, r.met)
    in
    Fmt.pr "met: %b  delay: %.4g (%.3f x Dmin)  area ratio: %.3f@." met cp
      (cp /. d0) (area /. a0);
    if dump then
      Array.iteri
        (fun i x -> Fmt.pr "  %-24s %.3f@." model.Delay_model.labels.(i) x)
        sizes;
    (match checks with
    | Some c ->
      Fmt.pr "invariants:@.%s@." (Invariants.to_string c);
      (match Invariants.first_failure c with
      | Some e -> Diag.fail e
      | None -> ())
    | None -> ());
    (match !trace_error with
    | Some e ->
      Fmt.epr "trace: %s@." (Diag.to_string e);
      if met then Diag.fail e
    | None -> ());
    if not met then Diag.fail (Diag.Unmet_target { target; achieved = cp })
  in
  Cmd.v
    (Cmd.info "size" ~doc:"Size a circuit for a delay target.")
    Term.(const run $ circuit_arg $ model_arg $ factor_arg $ tool $ dump
          $ solver_arg $ check_arg $ max_seconds_arg $ max_iterations_arg
          $ max_pivots_arg $ fault_arg $ fault_count_arg $ fault_after_arg
          $ trace_arg)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let factors =
    Arg.(value & opt (list float) [ 0.4; 0.5; 0.6; 0.8; 1.0 ]
         & info [ "factors" ] ~doc:"Comma-separated delay factors.")
  in
  let run name granularity factors =
    let nl = circuit name in
    let model = build_model granularity nl in
    Sweep.print_curve (Sweep.curve model ~factors)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Area-delay trade-off curve (Figure 7 style).")
    Term.(const run $ circuit_arg $ model_arg $ factors)

(* ---------- verify ---------- *)

let verify_cmd =
  let second =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT2"
         ~doc:"Second circuit to compare against.")
  in
  let run a b =
    let nla = circuit a and nlb = circuit b in
    match Cnf.equivalent nla nlb with
    | Cnf.Equivalent -> Fmt.pr "EQUIVALENT: %s == %s (SAT miter)@." a b
    | Cnf.Interface_mismatch ->
      let shape nl =
        Printf.sprintf "%d inputs / %d outputs" (Netlist.input_count nl)
          (List.length (Netlist.outputs nl))
      in
      Fmt.pr "MISMATCH: %s has %s, %s has %s@." a (shape nla) b (shape nlb);
      exit 1
    | Cnf.Differ { output_index; counterexample } ->
      Fmt.pr "DIFFER at output #%d; counterexample:@." output_index;
      List.iter (fun (n, v) -> Fmt.pr "  %s = %b@." n v) counterexample;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Formally check two circuits for equivalence (SAT miter).")
    Term.(const run $ circuit_arg $ second)

(* ---------- convert ---------- *)

let convert_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Destination file; format from the extension (.bench / .v / .dot).")
  in
  let run name out =
    let nl = circuit name in
    if Filename.check_suffix out ".v" then Verilog_format.write_file out nl
    else if Filename.check_suffix out ".dot" then
      Dot.write_file out (Netlist.to_digraph nl)
        ~node_label:(Netlist.node_name nl)
    else Bench_format.write_file out nl;
    Fmt.pr "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between netlist formats.")
    Term.(const run $ circuit_arg $ out)

(* ---------- batch ---------- *)

let batch_cmd =
  let circuits =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"CIRCUIT"
             ~doc:"Circuits to size (suite names or .bench/.v paths); the \
                   batch grid is every circuit at every factor with every \
                   solver.")
  in
  let factors =
    Arg.(value & opt (list float) [ 0.5 ]
         & info [ "factors" ] ~doc:"Comma-separated delay factors.")
  in
  let solvers =
    Arg.(value
         & opt
             (list
                (enum
                   [ ("auto", `Auto); ("simplex", `Simplex); ("ssp", `Ssp);
                     ("bf", `Bellman_ford) ]))
             [ `Auto ]
         & info [ "solvers" ] ~doc:"Comma-separated D-phase solvers.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Directory for per-job checkpoints and the crash-safe \
                   journal ($(docv)/journal.jsonl). Without it there is no \
                   checkpointing, journaling or resume.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Skip jobs the journal records as complete and restart \
                   interrupted jobs from their last validated checkpoint; \
                   the resumed results are bit-identical to an \
                   uninterrupted run.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent job processes.")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Extra attempts for transiently failing jobs (timeouts, \
                   crashes, retryable solver errors), with exponential \
                   backoff. Deterministic failures are quarantined instead.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Hard per-attempt wall-clock limit; a job past it is \
                   SIGKILLed and treated as a transient failure.")
  in
  let differential =
    Arg.(value & flag
         & info [ "differential" ]
             ~doc:"Re-run every successful job under an independent D-phase \
                   solver and flag area disagreement beyond the tolerance \
                   as a differential-mismatch diagnostic (exit code 3).")
  in
  let diff_tolerance =
    Arg.(value & opt float Differential.default_tolerance
         & info [ "diff-tolerance" ] ~docv:"T"
             ~doc:"Relative area tolerance for --differential.")
  in
  let no_isolate =
    Arg.(value & flag
         & info [ "no-isolate" ]
             ~doc:"Run jobs in-process instead of forked children (no \
                   timeout enforcement; for debugging).")
  in
  let fault_seed =
    Arg.(value & opt int 0
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed for the --inject-fault plan (recorded in \
                   checkpoints).")
  in
  let no_preflight =
    Arg.(value & flag
         & info [ "no-preflight" ]
             ~doc:"Skip the pre-fork lint gate. By default every distinct \
                   circuit is linted first and jobs on circuits with parse \
                   errors or Error-severity findings are quarantined \
                   immediately, with zero attempts.")
  in
  let run circuits factors solvers checkpoint_dir resume jobs retries timeout
      differential diff_tolerance no_isolate max_seconds max_iterations
      max_pivots fault_sites fault_count fault_after fault_seed no_preflight =
    let grid = Job.cross ~circuits ~factors ~solvers in
    let limits =
      Budget.limits ?wall_seconds:max_seconds ?max_iterations ?max_pivots ()
    in
    (* arm io.* sites ambiently in the parent too, so the journal and
       checkpoint writers — not just forked job engines — see them *)
    ignore
      (make_fault_plan ~seed:fault_seed ?count:fault_count ~after:fault_after
         fault_sites);
    let config =
      { Batch.checkpoint_dir;
        resume;
        supervise =
          { Supervisor.default_config with
            parallel = jobs;
            retries;
            timeout_seconds = timeout;
            isolate = not no_isolate };
        differential;
        diff_tolerance;
        engine = { Minflotransit.default_options with limits };
        fault_seed = (if fault_sites = [] then None else Some fault_seed);
        make_fault =
          (fun _ ->
            make_fault_plan ~seed:fault_seed ?count:fault_count
              ~after:fault_after fault_sites);
        preflight = not no_preflight }
    in
    match Batch.run ~config grid with
    | Error e -> Diag.fail e
    | Ok s ->
      let table =
        Table.create
          ~columns:
            [ ("job", Table.Left); ("status", Table.Left);
              ("area ratio", Table.Right); ("iters", Table.Right);
              ("attempts", Table.Right); ("differential", Table.Left) ]
      in
      List.iter
        (fun (r : Batch.job_report) ->
          let status, area, iters =
            match r.outcome with
            | None -> ("skipped (journal)", "-", "-")
            | Some (Ok o) ->
              ( (if o.Job.resumed then "ok (resumed)" else "ok"),
                Printf.sprintf "%.3f" o.Job.area_ratio,
                string_of_int o.Job.iterations )
            | Some (Error e) ->
              ( (if r.quarantined then "quarantined " else "failed ")
                ^ "[" ^ Diag.error_code e ^ "]",
                "-", "-" )
          in
          let diff =
            match r.differential with
            | None -> "-"
            | Some (Ok ()) -> "agree"
            | Some (Error e) -> "MISMATCH [" ^ Diag.error_code e ^ "]"
          in
          Table.add_row table
            [ Job.id r.job; status; area; iters;
              string_of_int r.attempts; diff ])
        s.reports;
      Table.print table;
      Fmt.pr "batch: %d ok, %d failed, %d skipped, %d differential mismatches@."
        s.ok s.failed s.skipped s.mismatches;
      (* exit with the worst per-job failure, same mapping as single runs *)
      let worst =
        List.fold_left
          (fun acc (r : Batch.job_report) ->
            let acc =
              match r.outcome with
              | Some (Error e) -> max acc (exit_code_of_error e)
              | _ -> acc
            in
            match r.differential with
            | Some (Error e) -> max acc (exit_code_of_error e)
            | _ -> acc)
          0 s.reports
      in
      if worst > 0 then exit worst
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a grid of sizing jobs under supervision: checkpoint/resume, \
             per-job isolation with retry and quarantine, optional \
             cross-solver differential verification.")
    Term.(const run $ circuits $ factors $ solvers $ checkpoint_dir $ resume
          $ jobs $ retries $ timeout $ differential $ diff_tolerance
          $ no_isolate $ max_seconds_arg $ max_iterations_arg $ max_pivots_arg
          $ fault_arg $ fault_count_arg $ fault_after_arg $ fault_seed
          $ no_preflight)

(* ---------- bench ---------- *)

let bench_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Run the CI smoke subset (c432, c880) instead of the full \
                   grid (adds c1908, c6288). With --scale, also trims the \
                   scaling grid to rca1024 and mul32.")
  in
  let scale =
    Arg.(value & flag
         & info [ "scale" ]
             ~doc:"Also run the synthetic scaling grid: 1024/4096-bit \
                   ripple adders, 32x32/64x64 array multipliers and a \
                   50k-gate layered random DAG (warm legs, certificates \
                   audited). Deterministic, so the results are part of the \
                   checked-in baseline like the ISCAS grid.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the machine-readable baseline document (one \
                   experiment per line) instead of the table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the JSON document to $(docv) instead of stdout \
                   (implies --json).")
  in
  let check =
    Arg.(value & opt (some string) None
         & info [ "check" ] ~docv:"BASELINE"
             ~doc:"Compare this run against a checked-in baseline JSON \
                   file. The comparison is exact on areas, iteration counts \
                   and every perf counter — wall time is excluded, it is \
                   the only non-deterministic field. Any divergence exits 3.")
  in
  let paper =
    Arg.(value & flag
         & info [ "paper" ]
             ~doc:"Print the paper's evaluation instead: Table 1 (12 \
                   rows), the Figure 7 area-delay curves (c432, c6288) and \
                   the ablations that compare engines or models. With \
                   --quick, only the c432 and c880 rows and the c432 \
                   curve. Exits 3 if MINFLOTRANSIT ends above TILOS on \
                   any row or point. Cannot be combined with --json, -o, \
                   --check or --scale.")
  in
  let grid quick scale json out check =
    let experiments =
      Benchmarks.suite ~quick ()
      @ (if scale then Benchmarks.scale_suite ~quick () else [])
    in
    (if json || out <> None then begin
       let text = Benchmarks.render experiments in
       match out with
       | Some path ->
         let oc = open_out path in
         output_string oc text;
         close_out oc;
         Fmt.pr "wrote %s (%d experiments)@." path (List.length experiments)
       | None -> print_string text
     end
     else begin
       let table =
         Table.create
           ~columns:
             [ ("circuit", Table.Left); ("mode", Table.Left);
               ("gates", Table.Right); ("area", Table.Right);
               ("iters", Table.Right); ("pivots", Table.Right);
               ("sweeps", Table.Right); ("incr", Table.Right);
               ("audit", Table.Right); ("wall s", Table.Right) ]
       in
       List.iter
         (fun (e : Benchmarks.experiment) ->
           Table.add_row table
             [ e.circuit; e.mode;
               string_of_int e.gates;
               Printf.sprintf "%.3f" e.area;
               string_of_int e.iterations;
               string_of_int e.counters.Perf.pivots;
               string_of_int e.counters.Perf.sweeps;
               string_of_int e.counters.Perf.incr_updates;
               string_of_int e.audit_findings;
               Printf.sprintf "%.2f" e.wall_seconds ])
         experiments;
       Table.print table;
       List.iter
         (fun c ->
           match Benchmarks.pivot_reduction experiments ~circuit:c with
           | Some pct ->
             Fmt.pr "%s: warm start saves %.1f%% of simplex pivots@." c pct
           | None -> ())
         (List.sort_uniq compare
            (List.map (fun (e : Benchmarks.experiment) -> e.circuit)
               experiments))
     end);
    match check with
    | None -> ()
    | Some baseline -> (
      match Benchmarks.check ~baseline experiments with
      | Ok () -> Fmt.pr "bench: counters match baseline %s@." baseline
      | Error diffs ->
        List.iter (fun d -> Fmt.epr "bench diverges:@.%s@." d) diffs;
        Diag.fail
          (Diag.Invariant
             { what = "bench";
               detail =
                 Printf.sprintf "%d experiment(s) diverge from %s"
                   (List.length diffs) baseline }))
  in
  let run quick scale json out check paper =
    if paper && (scale || json || out <> None || check <> None) then
      `Error
        (true, "--paper cannot be combined with --json, -o, --check or --scale")
    else begin
      Logs.set_level (Some Logs.Error);
      if paper then Paper.run ~quick else grid quick scale json out check;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the deterministic benchmark suite: the full engine, cold \
             and warm, on ISCAS-85 circuits, reporting areas and the \
             deterministic perf counters (pivots, relabels, sweeps, bumps). \
             With --scale, adds the synthetic scaling grid (up to 50k \
             gates). With --check, a counter drifting from the checked-in \
             baseline exits 3 — the CI bench-smoke gate. With --paper, \
             prints the paper's Table 1, Figure 7 and ablations instead.")
    Term.(ret (const run $ quick $ scale $ json $ out $ check $ paper))

(* ---------- power ---------- *)

let power_cmd =
  let run name factor =
    let nl = circuit name in
    let tech = Tech.default_130nm in
    let model = Elmore.of_netlist tech nl in
    let target = factor *. Sweep.dmin model in
    let r = Minflotransit.optimize model ~target in
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
    Term.(const run $ circuit_arg $ factor_arg)

(* ---------- lint ---------- *)

let lint_cmd =
  let circuits =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"CIRCUIT"
             ~doc:"Circuits to lint: .bench/.v file paths or built-in suite \
                   names; repeatable.")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Report format: human-readable $(b,text) (default) or \
                   $(b,sarif) (SARIF 2.1.0 JSON, the schema GitHub code \
                   scanning ingests).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Fail (exit 2) on warnings too; shorthand for \
                   --fail-on=warning.")
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
  let run circuits format out strict fail_on max_fanout bounds_factor =
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
              | Some f
                when not
                       (Lint_finding.exceeds ~fail_on:Lint_rule.Error
                          structural) -> (
                match Job.load_circuit spec with
                | Ok nl ->
                  let model = build_model `Gate nl in
                  Bounds.check model ~target:(f *. Sweep.dmin model)
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
    let text =
      match format with
      | `Text -> Lint_report.render findings
      | `Sarif -> Sarif.render findings
    in
    (match out with
    | Some path -> (
      (* through the instrumented layer: a full disk is a typed disk-full
         diagnostic (exit 2), not a Sys_error backtrace *)
      match Io.write_file path text with
      | Ok () -> ()
      | Error e -> Diag.fail e)
    | None -> print_string text);
    let fail_on = if strict then Lint_rule.Warning else fail_on in
    let code = Lint_report.exit_code ~fail_on findings in
    if code <> 0 then exit code
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
    Term.(const run $ circuits $ format $ out $ strict $ fail_on $ max_fanout
          $ bounds_factor)

(* ---------- audit-cert ---------- *)

let audit_cert_cmd =
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
    Arg.(value & opt_all fault_site_conv []
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Corrupt the named solver's solution before auditing \
                   (audit.simplex, audit.ssp, audit.cost-scaling); \
                   repeatable. The audit must then fail — this is how the \
                   auditor itself is tested.")
  in
  let run name granularity factor solvers fault_sites =
    let nl = circuit name in
    let model = build_model granularity nl in
    let d0 = Sweep.dmin model in
    let target = factor *. d0 in
    (* a real D-phase workload: TILOS first, so the displacement LP is built
       at a feasible, representative operating point *)
    let tilos = Tilos.size model ~target in
    if not tilos.met then
      Diag.fail (Diag.Unmet_target { target; achieved = tilos.final_cp });
    let sizes = tilos.sizes in
    let delays = Delay_model.delays model sizes in
    let problem =
      match Dphase.displacement_problem model ~sizes ~delays ~deadline:target with
      | Ok p -> p
      | Error e -> Diag.fail e
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
      (Netlist.name nl) factor problem.Mcf.num_nodes
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
      Diag.fail
        (Diag.Invariant
           { what = "audit-cert";
             detail =
               Printf.sprintf "%d of %d certificates rejected" (List.length bad)
                 (List.length solvers) })
  in
  Cmd.v
    (Cmd.info "audit-cert"
       ~doc:"Independently audit min-cost-flow optimality certificates: \
             solve the circuit's D-phase displacement LP with each solver, \
             then re-verify flow bounds, conservation, complementary \
             slackness and the objective from first principles (rules \
             MF101-MF105) without a second solve. A rejected certificate \
             exits 3.")
    Term.(const run $ circuit_arg $ model_arg $ factor_arg $ solvers_arg
          $ audit_fault_arg)

(* ---------- audit-run ---------- *)

let audit_run_cmd =
  let trace_pos =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file written by $(b,minflo size --trace).")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Report format: $(b,text) (default) or $(b,sarif).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let run name granularity factor trace_path format out =
    let nl = circuit name in
    let model = build_model granularity nl in
    let target = factor *. Sweep.dmin model in
    if not (Sys.file_exists trace_path) then
      Diag.fail (Diag.Io_error { file = trace_path; msg = "no such file" });
    let findings =
      match Trace.audit_file model ~target trace_path with
      | Ok findings -> findings
      | Error e -> Diag.fail e
    in
    if findings = [] then
      Fmt.pr "trace OK: %s @@ factor %.2f verified against %s@." trace_path
        factor (Netlist.name nl)
    else begin
      let text =
        match format with
        | `Text -> Lint_report.render findings
        | `Sarif -> Sarif.render findings
      in
      match out with
      | Some path -> (
        match Io.write_file path text with
        | Ok () -> ()
        | Error e -> Diag.fail e)
      | None -> print_string text
    end;
    let code = Lint_report.exit_code ~fail_on:Lint_rule.Error findings in
    if code <> 0 then exit code
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
    Term.(const run $ circuit_arg $ model_arg $ factor_arg $ trace_pos
          $ format $ out)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Campaign seed; the whole campaign is deterministic in it.")
  in
  let iterations_arg =
    Arg.(value & opt int 200
         & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Cases to generate.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Reproducer directory: fresh failures are shrunk and \
                   written here; fingerprints already present count as \
                   known.")
  in
  let list_faults_arg =
    Arg.(value & flag
         & info [ "list-faults" ]
             ~doc:"Print every instrumented fault-injection site and exit.")
  in
  let fuzz_fault_arg =
    Arg.(value & opt (some fault_site_conv) None
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Arm this site in every case's oracle run; the campaign \
                   must then find (and shrink, and deterministically \
                   replay) the planted fault.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 0
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed for the injected fault plan.")
  in
  let factor_arg =
    Arg.(value & opt float 0.6
         & info [ "factor" ; "f" ] ~docv:"F"
             ~doc:"Delay target per case, as a fraction of its Dmin.")
  in
  let solvers_arg =
    Arg.(value
         & opt
             (list
                (enum
                   [ ("auto", `Auto); ("simplex", `Simplex); ("ssp", `Ssp);
                     ("bf", `Bellman_ford) ]))
             [ `Simplex; `Ssp ]
         & info [ "solvers" ]
             ~doc:"Comma-separated engine legs to run (and differentially \
                   compare) per case.")
  in
  let no_differential_arg =
    Arg.(value & flag
         & info [ "no-differential" ]
             ~doc:"Skip the LP-level three-solver differential and \
                   certificate-audit stage.")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Write fresh reproducers unshrunk.")
  in
  let shrink_checks_arg =
    Arg.(value & opt int 400
         & info [ "shrink-checks" ] ~docv:"N"
             ~doc:"Oracle evaluations the shrinker may spend per bucket.")
  in
  let isolate_arg =
    Arg.(value & flag
         & info [ "isolate" ]
             ~doc:"Run each case in a supervised forked child, so a hang \
                   or hard crash becomes a runner/hang or runner/crash \
                   bucket instead of killing the campaign.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-case hard kill (seconds); only with --isolate.")
  in
  let max_gates_arg =
    Arg.(value & opt int 40
         & info [ "max-gates" ] ~docv:"N"
             ~doc:"Upper bound on generated random-DAG gate counts.")
  in
  let known_arg =
    Arg.(value & opt_all string []
         & info [ "known" ] ~docv:"FINGERPRINT"
             ~doc:"Treat this fingerprint as already triaged (repeatable).")
  in
  let known_from_arg =
    Arg.(value & opt_all string []
         & info [ "known-from" ] ~docv:"DIR"
             ~doc:"Treat every fingerprint stored in this reproducer \
                   directory as known, without writing new reproducers \
                   there (repeatable). Unlike $(b,--corpus), the \
                   directory is read-only.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-case progress.")
  in
  let run seed iterations corpus list_faults fault_site fault_seed factor
      solvers no_differential no_shrink shrink_checks isolate timeout
      max_gates known known_from quiet =
    if list_faults then List.iter print_endline Fault.all_points
    else begin
      (* engine-level warnings are expected noise when the oracle drives
         thousands of deliberately broken runs *)
      Logs.set_level (Some Logs.Error);
      let known =
        known
        @ List.concat_map
            (fun dir ->
              List.filter_map
                (fun path ->
                  match Corpus.load path with
                  | Ok r -> Some (Fingerprint.to_string r.Corpus.fingerprint)
                  | Error _ -> None)
                (Corpus.list dir))
            known_from
      in
      let cfg =
        { Campaign.seed;
          iterations;
          oracle =
            { Oracle.default_config with
              target_factor = factor;
              solvers;
              differential = not no_differential;
              fault_site;
              fault_seed };
          profile = { Gen_mut.default_profile with max_gates };
          corpus_dir = corpus;
          known;
          shrink = not no_shrink;
          shrink_checks;
          isolate;
          timeout_seconds = timeout }
      in
      let progress =
        if quiet then None
        else
          Some
            (fun i ->
              if (i + 1) mod 50 = 0 || i + 1 = iterations then
                Fmt.epr "fuzz: %d/%d cases@." (i + 1) iterations)
      in
      let report = Campaign.run ?progress cfg in
      Fmt.pr "campaign: %d cases, %d failing, %d buckets (%d fresh)@."
        report.Campaign.cases report.failing_cases
        (List.length report.buckets) report.fresh;
      List.iter
        (fun (b : Campaign.bucket) ->
          Fmt.pr "  %-52s x%-4d %s@."
            (Fingerprint.to_string b.fingerprint)
            b.count
            (if b.fresh then "FRESH" else "known");
          Fmt.pr "    first seed %d: %s@." b.first_seed b.info;
          (match b.shrunk_gates with
          | Some g -> Fmt.pr "    shrunk to %d gates@." g
          | None -> ());
          (match b.repro_path with
          | Some p -> Fmt.pr "    repro: %s@." p
          | None -> ());
          match b.replay_deterministic with
          | Some true -> Fmt.pr "    replay: deterministic@."
          | Some false -> Fmt.pr "    replay: NON-DETERMINISTIC@."
          | None -> ())
        report.buckets;
      if report.fresh > 0 then
        Diag.fail
          (Diag.Invariant
             { what = "fuzz";
               detail =
                 Printf.sprintf "%d fresh failure fingerprint(s)" report.fresh })
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing campaign: random mutated netlists pushed \
             through lint, TILOS seeding and the full D/W iteration under \
             budget, with cross-solver differential checks, certificate \
             audits and post-phase invariants as the oracle. Failures are \
             fingerprinted, bucketed, shrunk by delta debugging to a \
             minimal reproducer, and written to the corpus for \
             $(b,minflo replay). A fresh fingerprint exits 3.")
    Term.(const run $ seed_arg $ iterations_arg $ corpus_arg $ list_faults_arg
          $ fuzz_fault_arg $ fault_seed_arg $ factor_arg $ solvers_arg
          $ no_differential_arg $ no_shrink_arg $ shrink_checks_arg
          $ isolate_arg $ timeout_arg $ max_gates_arg $ known_arg
          $ known_from_arg $ quiet_arg)

(* ---------- replay ---------- *)

let replay_cmd =
  let paths_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"REPRO"
             ~doc:"Reproducer files, or directories of them.")
  in
  let run paths =
    Logs.set_level (Some Logs.Error);
    let files =
      List.concat_map
        (fun p ->
          if Sys.file_exists p && Sys.is_directory p then Corpus.list p
          else [ p ])
        paths
    in
    if files = [] then
      Diag.fail
        (Diag.Io_error
           { file = String.concat " " paths; msg = "no .repro files found" });
    let bad = ref 0 in
    List.iter
      (fun f ->
        match Campaign.replay f with
        | Error e -> Diag.fail e
        | Ok r ->
          let ok = r.Campaign.reproduced && r.deterministic in
          if not ok then incr bad;
          Fmt.pr "%-56s %s@." (Filename.basename f)
            (if not r.reproduced then "NOT REPRODUCED"
             else if not r.deterministic then "NON-DETERMINISTIC"
             else "reproduced");
          if not r.reproduced then begin
            Fmt.pr "    expected: %s@."
              (Fingerprint.to_string r.repro.Corpus.fingerprint);
            if r.observed = [] then Fmt.pr "    observed: (clean run)@."
            else
              List.iter
                (fun fp ->
                  Fmt.pr "    observed: %s@." (Fingerprint.to_string fp))
                r.observed
          end)
      files;
    if !bad > 0 then
      Diag.fail
        (Diag.Invariant
           { what = "replay";
             detail =
               Printf.sprintf "%d of %d reproducer(s) did not reproduce"
                 !bad (List.length files) })
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run stored reproducers bit-deterministically (the oracle's \
             budgets are iteration- and pivot-based, never wall clock) and \
             verify each still yields its stored failure fingerprint, \
             twice. A lost or flaky fingerprint exits 3; a malformed \
             reproducer exits 2.")
    Term.(const run $ paths_arg)

(* ---------- serve / client / loadgen / chaosproxy ---------- *)

let socket_arg =
  Arg.(value & opt string "minflo.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket the daemon listens on.")

let endpoint_conv =
  let parse s =
    match Serve_transport.parse s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf e -> Fmt.string ppf (Serve_transport.to_string e))

(* client-side endpoint selection: --tcp HOST:PORT wins over --socket *)
let client_endpoint socket tcp =
  match tcp with
  | Some e -> e
  | None -> Serve_transport.Unix_sock socket

let client_tcp_arg =
  Arg.(value & opt (some endpoint_conv) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Connect over TCP instead of the unix socket.")

let retries_arg =
  Arg.(value & opt int 3
       & info [ "retries" ] ~docv:"N"
           ~doc:"Total connection/request attempts before giving up with a \
                 typed error; transport failures (connect-refused, \
                 net-timeout, torn-response) are retried with exponential \
                 backoff and jitter, daemon responses never are.")

let backoff_arg =
  Arg.(value & opt float 0.1
       & info [ "backoff" ] ~docv:"S"
           ~doc:"First retry delay in seconds; doubles per retry, jittered.")

let net_seed_arg =
  Arg.(value & opt int 0
       & info [ "retry-seed" ] ~docv:"N"
           ~doc:"Seed for the retry jitter stream (reproducible runs).")

let serve_cmd =
  let run_dir =
    Arg.(value & opt string "minflo-serve"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Run directory: the crash-safe journal \
                   ($(docv)/journal.jsonl, advisory-locked so a second \
                   daemon on the same directory fails fast) and per-job \
                   checkpoints. Restarting on the same directory recovers \
                   accepted-but-unfinished jobs and the result cache from \
                   the journal.")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  in
  let queue =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; submissions beyond it are \
                   rejected with a typed $(b,overloaded) response instead \
                   of queueing unboundedly.")
  in
  let timeout =
    Arg.(value & opt (some float) (Some 300.0)
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Hard per-attempt wall-clock limit for one job; a worker \
                   past it is SIGKILLed and the job retried as a transient \
                   failure.")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Extra attempts for transiently failing jobs (timeouts, \
                   worker crashes), with exponential backoff; deterministic \
                   failures are quarantined instead.")
  in
  let no_preflight =
    Arg.(value & flag
         & info [ "no-preflight" ]
             ~doc:"Skip the admission-time lint gate.")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Also listen on this TCP endpoint (port 0 lets the \
                   kernel pick; the actual address is journaled in the \
                   $(b,serve-start) event's $(b,tcp) field). The unix \
                   socket stays active either way.")
  in
  let io_timeout =
    Arg.(value & opt float 30.0
         & info [ "io-timeout" ] ~docv:"S"
             ~doc:"Per-connection read/write deadline: a peer stalled \
                   mid-request, or not reading its response, this long is \
                   disconnected. Parked $(b,result --wait) connections are \
                   exempt.")
  in
  let watchdog =
    Arg.(value & opt float 60.0
         & info [ "watchdog" ] ~docv:"S"
             ~doc:"Worker liveness deadline: a worker whose event pipe \
                   stays silent (no events, no heartbeats) this long is \
                   SIGKILLed and its job requeued as a transient failure. \
                   0 disables.")
  in
  let cache_bytes =
    Arg.(value & opt int (64 * 1024 * 1024)
         & info [ "cache-bytes" ] ~docv:"BYTES"
             ~doc:"Byte budget for the in-memory result cache; past it the \
                   least recently used results are evicted (still served \
                   from the journal, counted by the $(b,evictions) perf \
                   counter).")
  in
  let run socket tcp dir jobs queue timeout watchdog io_timeout cache_bytes
      retries no_preflight fault_sites fault_count fault_after =
    (* io.* sites arm the ambient storage layer under the daemon's journal
       writers — how the disk-smoke drives the degraded read-only mode *)
    ignore
      (make_fault_plan ?count:fault_count ~after:fault_after fault_sites);
    match
      Serve.run
        ~config:
          { Serve.socket_path = socket;
            tcp;
            run_dir = dir;
            parallel = jobs;
            queue_capacity = queue;
            timeout_seconds = timeout;
            watchdog_seconds = (if watchdog > 0.0 then Some watchdog else None);
            io_timeout_seconds = io_timeout;
            cache_bytes;
            retries;
            backoff_base = 0.5;
            preflight = not no_preflight }
        ()
    with
    | Ok () -> ()
    | Error e -> Diag.fail e
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sizing daemon: accept jobs over a unix socket (and \
             optionally TCP), schedule them across supervised worker \
             processes with admission control, per-request budgets, a \
             worker liveness watchdog, per-connection I/O deadlines, \
             idempotent result caching under a byte budget, \
             journal-backed crash recovery and graceful drain on SIGTERM \
             (or the $(b,drain) op).")
    Term.(const run $ socket_arg $ tcp $ run_dir $ jobs $ queue $ timeout
          $ watchdog $ io_timeout $ cache_bytes $ retries $ no_preflight
          $ fault_arg $ fault_count_arg $ fault_after_arg)

(* map a daemon response to the CLI's stable exit codes *)
let client_exit_code response =
  if Json.bool_field "ok" response = Some true then 0
  else
    match Json.str_field "code" response with
    | Some ("bad-request" | "unknown-job") -> 2
    | Some ("internal" | "storage-error") -> 3
    | _ -> 1

let client_cmd =
  let action =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("submit", `Submit); ("status", `Status);
                     ("result", `Result); ("cancel", `Cancel);
                     ("stats", `Stats); ("health", `Health);
                     ("drain", `Drain) ]))
             None
         & info [] ~docv:"ACTION"
             ~doc:"One of $(b,submit) CIRCUIT, $(b,status) JOB, \
                   $(b,result) JOB, $(b,cancel) JOB, $(b,stats), \
                   $(b,health), $(b,drain).")
  in
  let operand =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"CIRCUIT|JOB"
             ~doc:"The circuit to submit, or the job id to query.")
  in
  let wait =
    Arg.(value & flag
         & info [ "wait" ]
             ~doc:"With $(b,result): block until the job is terminal.")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"S"
             ~doc:"With $(b,submit): artificial pre-solve latency (load \
                   testing).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-attempt network deadline. A daemon that dies \
                   mid-$(b,--wait), or stalls, yields a typed \
                   $(b,net-timeout) error and exit code 1 instead of \
                   hanging forever. Default: 30s, except $(b,result \
                   --wait) which waits indefinitely unless this is set.")
  in
  let run socket tcp action operand factor solver max_seconds max_iterations
      max_pivots wait sleep timeout retries backoff retry_seed =
    let need what =
      match operand with
      | Some v -> v
      | None ->
        Fmt.epr "minflo client: this action requires a %s operand@." what;
        exit 2
    in
    let req =
      match action with
      | `Submit ->
        Serve_protocol.Submit
          { Serve_protocol.circuit = need "circuit";
            factor;
            solver;
            max_seconds;
            max_iterations;
            max_pivots;
            sleep_seconds = sleep }
      | `Status -> Serve_protocol.Status (need "job id")
      | `Result -> Serve_protocol.Result { id = need "job id"; wait }
      | `Cancel -> Serve_protocol.Cancel (need "job id")
      | `Stats -> Serve_protocol.Stats
      | `Health -> Serve_protocol.Health
      | `Drain -> Serve_protocol.Drain
    in
    let waiting = match req with Serve_protocol.Result r -> r.wait | _ -> false in
    let retry =
      { Serve_client.attempts =
          (* an explicit deadline on a blocking wait bounds the TOTAL
             wait, so it must not be multiplied by retries *)
          (if waiting && timeout <> None then 1 else max 1 retries);
        backoff_base = backoff;
        timeout =
          (match timeout with
          | Some t -> Some t
          | None -> if waiting then None else Some 30.0);
        seed = retry_seed }
    in
    match
      Serve_client.one_shot ~retry
        ~endpoint:(client_endpoint socket tcp)
        (Serve_protocol.request_to_json req)
    with
    | Error e -> Diag.fail e
    | Ok response ->
      print_endline (Json.to_string response);
      let code = client_exit_code response in
      if code > 0 then exit code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,minflo serve) daemon over its unix \
             socket or TCP: submit jobs, query status and results \
             (optionally blocking), cancel, and probe \
             stats/health/drain. Transport failures are retried with \
             backoff, then reported typed: $(b,connect-refused) and \
             $(b,net-timeout) exit 1, $(b,torn-response) exits 3. Prints \
             the daemon's JSON response; exit code follows the response \
             ($(b,overloaded), $(b,draining) and pending map to 1, bad \
             input to 2, $(b,storage-error) — the daemon degraded \
             read-only after a failed journal write — to 3).")
    Term.(const run $ socket_arg $ client_tcp_arg $ action $ operand
          $ factor_arg $ solver_arg $ max_seconds_arg $ max_iterations_arg
          $ max_pivots_arg $ wait $ sleep $ timeout $ retries_arg
          $ backoff_arg $ net_seed_arg)

let loadgen_cmd =
  let circuits =
    Arg.(value & pos_all string [ "c17" ]
         & info [] ~docv:"CIRCUIT" ~doc:"Circuits to cycle through.")
  in
  let count =
    Arg.(value & opt int 4
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Well-formed jobs to submit.")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"S"
             ~doc:"Artificial per-job latency, to make overload and drain \
                   windows reproducible.")
  in
  let lint_bad =
    Arg.(value & opt int 0
         & info [ "lint-bad" ] ~docv:"N"
             ~doc:"Additional jobs the admission lint gate must reject.")
  in
  let tiny_budget =
    Arg.(value & opt int 0
         & info [ "tiny-budget" ] ~docv:"N"
             ~doc:"Additional jobs with a 1-iteration run budget \
                   (exercises best-feasible-on-exhaustion).")
  in
  let deadline =
    Arg.(value & opt float 300.0
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Give up polling after this many seconds.")
  in
  let timeout =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-attempt network deadline for every request.")
  in
  let run socket tcp circuits factor solver count sleep lint_bad tiny_budget
      deadline timeout retries backoff retry_seed =
    match
      Loadgen.run
        { Loadgen.endpoint = client_endpoint socket tcp;
          retry =
            { Serve_client.attempts = max 1 retries;
              backoff_base = backoff;
              timeout = Some timeout;
              seed = retry_seed };
          circuits;
          factor;
          solver;
          count;
          sleep_seconds = sleep;
          lint_bad;
          tiny_budget;
          poll_interval = 0.05;
          deadline_seconds = deadline }
    with
    | Error e -> Diag.fail e
    | Ok summary -> print_endline (Json.to_string summary)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a deterministic job mix at a running daemon — \
             well-formed jobs, lint-rejected jobs, tiny-budget jobs — \
             poll everything to a terminal state and print a JSON summary \
             (accepted/overloaded/rejected counts, terminal states, \
             p50/p99 submit-to-terminal latency percentiles, and \
             the daemon's own stats). All traffic rides the retrying \
             client, so a run pointed through $(b,minflo chaosproxy) \
             measures end-to-end resilience. The CI serve-smoke and \
             chaos-smoke jobs assert on this output.")
    Term.(const run $ socket_arg $ client_tcp_arg $ circuits $ factor_arg
          $ solver_arg $ count $ sleep $ lint_bad $ tiny_budget $ deadline
          $ timeout $ retries_arg $ backoff_arg $ net_seed_arg)

let chaosproxy_cmd =
  let listen =
    Arg.(value & opt endpoint_conv (Serve_transport.Tcp ("127.0.0.1", 0))
         & info [ "listen" ] ~docv:"ENDPOINT"
             ~doc:"Where to accept clients: $(b,HOST:PORT) (port 0 lets \
                   the kernel pick) or $(b,unix:PATH). The actual \
                   endpoint is printed on stdout.")
  in
  let upstream =
    Arg.(value & opt endpoint_conv (Serve_transport.Unix_sock "minflo.sock")
         & info [ "upstream" ] ~docv:"ENDPOINT"
             ~doc:"The real daemon to forward to.")
  in
  let faults =
    Arg.(value & opt_all fault_site_conv []
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Arm a network fault site ($(b,net.accept-drop), \
                   $(b,net.read-stall), $(b,net.torn-write), \
                   $(b,net.delayed-response)); repeatable. Validated \
                   against the same catalog as every other \
                   $(b,--inject-fault).")
  in
  let fault_count =
    Arg.(value & opt (some int) None
         & info [ "fault-count" ] ~docv:"N"
             ~doc:"Each armed site fires at most N times (default: every \
                   visit).")
  in
  let fault_prob =
    Arg.(value & opt (some float) None
         & info [ "fault-prob" ] ~docv:"P"
             ~doc:"Each visit fires with probability P, drawn from the \
                   seeded stream (default 1.0).")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed for probabilistic firing; a chaos run replays \
                   exactly from its seed.")
  in
  let delay =
    Arg.(value & opt float 0.2
         & info [ "delay" ] ~docv:"S"
             ~doc:"Stall/delay duration injected by $(b,net.read-stall) \
                   and $(b,net.delayed-response).")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"On exit, write a JSON object of per-site fired counts \
                   here — CI asserts the schedule actually fired.")
  in
  let run listen upstream faults fault_count fault_prob seed delay report =
    List.iter
      (fun site ->
        if not (String.length site > 4 && String.sub site 0 4 = "net.") then begin
          Fmt.epr
            "minflo chaosproxy: %s is not a network fault site (want net.*)@."
            site;
          exit 2
        end)
      faults;
    match
      Chaosproxy.run
        ~config:
          { Chaosproxy.listen;
            upstream;
            faults =
              List.map
                (fun site ->
                  { Chaosproxy.site; count = fault_count; prob = fault_prob })
                faults;
            seed;
            delay_seconds = delay;
            connect_timeout = 5.0;
            report_path = report }
        ()
    with
    | Ok () -> ()
    | Error e -> Diag.fail e
  in
  Cmd.v
    (Cmd.info "chaosproxy"
       ~doc:"Interpose deterministic network faults between real clients \
             and a real $(b,minflo serve) daemon: dropped accepts, \
             stalled requests, torn response lines, delayed responses — \
             each a seeded, replayable schedule. Runs until SIGTERM, \
             then writes the fired-count report. The end-to-end chaos \
             tests drive $(b,minflo loadgen) through this proxy and \
             assert every accepted job still resolves bit-identically to \
             a fault-free run.")
    Term.(const run $ listen $ upstream $ faults $ fault_count $ fault_prob
          $ seed $ delay $ report)

(* ---------- torture ---------- *)

(* The concrete crash-point torture workload: a checkpointed batch run, a
   proof-carrying trace, and a serve-style journal segment — every durable
   writer in the stack — driven through {!Torture.run}, which replays it
   once per write boundary with a simulated process death pinned there and
   then checks the recovery invariants against the wreckage. *)
let torture_cmd =
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"State directory — destroyed and rebuilt before every \
                   simulation (default: a fresh directory under the system \
                   temp dir).")
  in
  let circuit_pos =
    Arg.(value & pos 0 string "c432"
         & info [] ~docv:"CIRCUIT"
             ~doc:"Circuit the workload sizes (default c432).")
  in
  let factors_arg =
    Arg.(value & opt (list float) [ 0.55; 0.6 ]
         & info [ "factors" ] ~docv:"F,F"
             ~doc:"Delay factors of the batch grid (one job per factor).")
  in
  let iters_arg =
    Arg.(value & opt int 20
         & info [ "max-iterations" ] ~docv:"N"
             ~doc:"Per-job iteration budget — bounds each simulation's \
                   runtime while still crossing checkpoint and trace \
                   boundaries.")
  in
  let max_points_arg =
    Arg.(value & opt int 0
         & info [ "max-crash-points" ] ~docv:"N"
             ~doc:"Cap the number of simulations, striding evenly over the \
                   boundary range (0 = every boundary in both modes).")
  in
  let min_points_arg =
    Arg.(value & opt int 50
         & info [ "min-crash-points" ] ~docv:"N"
             ~doc:"Fail (exit 3) unless at least $(docv) distinct crash \
                   points actually took effect — guards against the \
                   workload shrinking under the harness.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed for each child.")
  in
  let run dir circuit_spec factors max_iterations max_points min_points seed =
    if factors = [] then
      Diag.fail (Diag.Invariant { what = "torture"; detail = "empty --factors" });
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "minflo-torture-%d" (Unix.getpid ()))
    in
    let batch_dir = Filename.concat dir "batch" in
    let serve_dir = Filename.concat dir "serve" in
    let batch_journal = Filename.concat batch_dir "journal.jsonl" in
    let serve_journal = Filename.concat serve_dir "journal.jsonl" in
    let trace_path = Filename.concat dir "trace.jsonl" in
    let rec rm_rf path =
      match Unix.lstat path with
      | exception Unix.Unix_error _ -> ()
      | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun n -> rm_rf (Filename.concat path n))
          (try Sys.readdir path with Sys_error _ -> [||]);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
      | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    in
    let mkdirs d =
      match Io.mkdirs d with Ok () -> () | Error e -> Diag.fail e
    in
    let nl = circuit circuit_spec in
    let model = build_model `Gate nl in
    let trace_factor = List.hd factors in
    let trace_target = trace_factor *. Sweep.dmin model in
    let limits = Budget.limits ~max_iterations () in
    let grid =
      Job.cross ~circuits:[ circuit_spec ] ~factors ~solvers:[ `Simplex ]
    in
    (* in-process, sequential, no retries: every write the workload does
       happens in this (or the forked child's) process in a deterministic
       order, so boundary numbering is stable across replays *)
    let batch_config ~resume =
      { Batch.checkpoint_dir = Some batch_dir;
        resume;
        supervise =
          { Supervisor.default_config with
            parallel = 1;
            retries = 0;
            timeout_seconds = None;
            watchdog_seconds = None;
            isolate = false };
        differential = false;
        diff_tolerance = Differential.default_tolerance;
        engine = { Minflotransit.default_options with limits };
        fault_seed = None;
        make_fault = (fun _ -> None);
        preflight = false }
    in
    let run_batch ~resume = Batch.run ~config:(batch_config ~resume) grid in
    let serve_keys = [ "torture-done"; "torture-pending" ] in
    (* a serve-journal segment shaped exactly like the daemon's: two
       accepted jobs, one with a terminal result — so recovery must
       reconstruct one done and one requeued job from any crash prefix *)
    let write_serve_segment () =
      match Journal.open_append serve_journal with
      | Error e -> Diag.fail e
      | Ok jr ->
        List.iter
          (fun key ->
            Journal.event jr ~job:key
              ~fields:
                [ ("circuit", Json.Str circuit_spec);
                  ("factor", Diag.json_float trace_factor);
                  ("solver", Json.Str "simplex") ]
              "serve-accepted")
          serve_keys;
        Journal.event jr ~job:"torture-done"
          ~fields:
            [ ("area", Json.Num 42.0);
              ("area_ratio", Json.Num 1.5);
              ("cp", Diag.json_float trace_target);
              ("target", Diag.json_float trace_target);
              ("met", Json.Bool true);
              ("iterations", Json.Num 3.0);
              ("saving_pct", Json.Num 7.5);
              ("stop", Json.Str "converged");
              ("resumed", Json.Bool false) ]
          "job-result";
        Journal.close jr
    in
    let write_trace () =
      let steps = ref [] in
      let r =
        Minflotransit.optimize
          ~options:{ Minflotransit.default_options with limits }
          ~on_step:(fun s -> steps := s :: !steps)
          model ~target:trace_target
      in
      match Io.create_sink trace_path with
      | Error e -> Diag.fail e
      | Ok sink -> (
        let w =
          Trace.create sink model ~circuit:(Netlist.name nl)
            ~target:trace_target
        in
        Trace.record_tilos w r.tilos;
        List.iter (Trace.record_step w) (List.rev !steps);
        Trace.record_result w r;
        Io.sink_close sink;
        match Trace.error w with Some e -> Diag.fail e | None -> ())
    in
    let setup () =
      rm_rf dir;
      mkdirs batch_dir;
      mkdirs serve_dir
    in
    let workload () =
      (match run_batch ~resume:false with
      | Ok _ -> ()
      | Error e -> Diag.fail e);
      write_trace ();
      write_serve_segment ()
    in
    (* fault-free baseline: the areas a resumed run must reproduce bit for
       bit, and a sanity check that the workload itself is healthy *)
    setup ();
    workload ();
    let baseline = Journal.completed batch_journal in
    if Hashtbl.length baseline <> List.length grid then
      Diag.fail
        (Diag.Invariant
           { what = "torture-baseline";
             detail =
               Printf.sprintf "%d of %d jobs completed fault-free"
                 (Hashtbl.length baseline) (List.length grid) });
    (match Trace.audit_file model ~target:trace_target trace_path with
    | Ok [] -> ()
    | Ok fs ->
      Diag.fail
        (Diag.Invariant
           { what = "torture-baseline";
             detail =
               Printf.sprintf "fault-free trace rejected: %s"
                 (Lint_report.render fs) })
    | Error e -> Diag.fail e);
    let verify ~boundary:_ ~mode:_ =
      let violations = ref [] in
      let add fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      (* every newline-terminated journal line is one complete event
         record; only the crash's own write may be torn, and it never got
         its newline. Read the raw bytes: [Journal.scan] drops what does
         not parse, so it would hide exactly the lines this checks. *)
      List.iter
        (fun journal ->
          match In_channel.with_open_bin journal In_channel.input_all with
          | exception Sys_error _ -> ()
          | content ->
            let lines = String.split_on_char '\n' content in
            let complete = List.length lines - 1 in
            List.iteri
              (fun i line ->
                if i < complete then
                  match Json.parse line with
                  | Ok j when Json.str_field "event" j <> None -> ()
                  | Ok _ ->
                    add "%s: line is not an event record: %s" journal line
                  | Error msg ->
                    add "%s: surviving line does not parse (%s): %s" journal
                      msg line)
              lines)
        [ batch_journal; serve_journal ];
      (* checkpoints load or are rejected typed — never an exception, never
         a half-parse *)
      (match Sys.readdir batch_dir with
      | exception Sys_error _ -> ()
      | entries ->
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".ckpt" then begin
              let p = Filename.concat batch_dir name in
              match Checkpoint.load p with
              | Ok _ | Error _ -> ()
              | exception e ->
                add "checkpoint %s: load raised %s" p (Printexc.to_string e)
            end)
          entries);
      (* a resumed run completes every job with the baseline's exact area *)
      (match run_batch ~resume:true with
      | Error e -> add "resume: batch failed: %s" (Diag.to_string e)
      | Ok s ->
        if s.Batch.failed > 0 then
          add "resume: %d jobs failed after crash" s.Batch.failed;
        let completed = Journal.completed batch_journal in
        Hashtbl.iter
          (fun id area ->
            match Hashtbl.find_opt completed id with
            | None -> add "resume: job %s missing from resumed journal" id
            | Some area' when area' <> area ->
              add "resume: job %s area drifted: %h <> %h" id area' area
            | Some _ -> ())
          baseline);
      (* reopening the serve journal sweeps its directory like a restarting
         daemon would; the batch reopen above already swept batch_dir *)
      (match Journal.open_append serve_journal with
      | Ok jr -> Journal.close jr
      | Error e -> add "serve journal reopen: %s" (Diag.to_string e));
      let rec find_tmp d =
        match Sys.readdir d with
        | exception Sys_error _ -> ()
        | entries ->
          Array.iter
            (fun name ->
              let p = Filename.concat d name in
              if try Sys.is_directory p with Sys_error _ -> false then
                find_tmp p
              else if Filename.check_suffix name ".tmp" then
                add "stale tmp survived journal reopen: %s" p)
            entries
      in
      find_tmp dir;
      (* a surviving trace prefix audits as (at worst) truncation damage,
         never as garbage or a wrong claim *)
      if Sys.file_exists trace_path then begin
        match Trace.audit_file model ~target:trace_target trace_path with
        | Error e -> add "trace: unreadable after crash: %s" (Diag.to_string e)
        | Ok fs ->
          List.iter
            (fun (f : Lint_finding.t) ->
              if f.rule.Lint_rule.id <> "MF210" then
                add "trace: unexpected finding %s after crash"
                  f.rule.Lint_rule.id)
            fs
      end;
      (* the serve journal recovers to a coherent job table *)
      List.iter
        (fun (key, state) ->
          if not (List.mem key serve_keys) then
            add "recovery: unknown job key %s" key;
          if not (List.mem state [ "queued"; "done" ]) then
            add "recovery: job %s in impossible state %s" key state)
        (Serve.recovery_snapshot serve_journal);
      List.rev !violations
    in
    let progress d t =
      if d mod 20 = 0 || d = t then Fmt.pr "torture: %d/%d simulations@." d t
    in
    let max_sims = if max_points <= 0 then None else Some max_points in
    let report =
      match
        Torture.run ~seed ?max_sims ~progress ~setup ~workload ~verify ()
      with
      | Ok r -> r
      | Error e -> Diag.fail e
    in
    rm_rf dir;
    let points = Torture.crash_points report in
    let violations = Torture.violations report in
    let swallowed =
      List.length
        (List.filter
           (fun s -> s.Torture.sim_outcome = Torture.Crash_swallowed)
           report.Torture.sims)
    in
    Fmt.pr
      "torture: %d write boundaries, %d simulations, %d crash points (%d \
       crash-swallowed), %d violations@."
      report.Torture.total_boundaries
      (List.length report.Torture.sims)
      points swallowed (List.length violations);
    List.iter
      (fun (s, v) ->
        Fmt.pr "VIOLATION [boundary %d, %s]: %s@." s.Torture.sim_boundary
          (Torture.mode_to_string s.Torture.sim_mode)
          v)
      violations;
    if violations <> [] then
      Diag.fail
        (Diag.Invariant
           { what = "torture";
             detail =
               Printf.sprintf "%d recovery invariant violations"
                 (List.length violations) });
    if points < min_points then
      Diag.fail
        (Diag.Invariant
           { what = "torture";
             detail =
               Printf.sprintf "only %d crash points exercised (need %d)"
                 points min_points })
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Crash-point torture of the persistence stack: run a \
             checkpointed batch + proof-carrying trace + serve-journal \
             workload once to enumerate every write boundary it crosses, \
             then replay it once per boundary with a simulated process \
             death pinned exactly there (clean and torn-write modes) and \
             assert the recovery invariants against the wreckage — the \
             journal seals or drops the torn line, a resumed run \
             reproduces the baseline areas bit for bit, checkpoints load \
             or are rejected typed, surviving traces audit as truncation \
             at worst, stale .tmp files are swept on reopen, and the \
             serve journal recovers a coherent job table. Any violation \
             exits 3.")
    Term.(const run $ dir_arg $ circuit_pos $ factors_arg $ iters_arg
          $ max_points_arg $ min_points_arg $ seed_arg)

let main_cmd =
  let doc = "MINFLOTRANSIT: min-cost-flow based transistor sizing" in
  Cmd.group (Cmd.info "minflo" ~version:"1.0.0" ~doc)
    [ gen_cmd; stats_cmd; sta_cmd; size_cmd; sweep_cmd; batch_cmd; bench_cmd;
      verify_cmd; convert_cmd; power_cmd; lint_cmd; audit_cert_cmd;
      audit_run_cmd; fuzz_cmd; replay_cmd; serve_cmd; client_cmd; loadgen_cmd;
      chaosproxy_cmd; torture_cmd ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Diag.Error_exn e ->
    Fmt.epr "minflo: error [%s]: %s@." (Diag.error_code e) (Diag.to_string e);
    exit (exit_code_of_error e)
