(* minflo batch: a circuit x factor x solver grid under the supervised,
   checkpointing batch runner. *)

open Cmdliner
open Minflo

let cmd =
  let circuits =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"CIRCUIT"
             ~doc:"Circuits to size (suite names or .bench/.v paths); the \
                   batch grid is every circuit at every factor with every \
                   solver.")
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
                   solver and flag any disagreement as a \
                   differential-mismatch diagnostic (exit code 3): exact \
                   solvers must agree bit for bit on met, area and \
                   iterations; against bellman-ford only met is compared.")
  in
  let no_isolate =
    Arg.(value & flag
         & info [ "no-isolate" ]
             ~doc:"Run jobs in-process instead of forked children (no \
                   timeout enforcement; for debugging).")
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
      differential no_isolate limits faults fault_seed
      no_preflight =
    let grid = Job.cross ~circuits ~factors ~solvers in
    (* arm io.* sites ambiently in the parent too, so the journal and
       checkpoint writers — not just forked job engines — see them *)
    ignore (Cli.arm ~seed:fault_seed faults);
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
        engine = { Minflotransit.default_options with limits };
        fault_seed = (if faults.Cli.sites = [] then None else Some fault_seed);
        make_fault = (fun _ -> Cli.arm ~seed:fault_seed faults);
        preflight = not no_preflight }
    in
    let s = Cli.or_fail (Batch.run ~config grid) in
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
            | Some (Error e) -> max acc (Cli.exit_code_of_error e)
            | _ -> acc
          in
          match r.differential with
          | Some (Error e) -> max acc (Cli.exit_code_of_error e)
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
    Term.(const run $ circuits $ Cli.factors_arg [ 0.5 ]
          $ Cli.solvers_arg ~doc:"Comma-separated D-phase solvers." [ `Auto ]
          $ checkpoint_dir $ resume $ jobs $ Cli.job_retries_arg $ timeout
          $ differential $ no_isolate $ Cli.limits_term
          $ Cli.faults_term $ Cli.fault_seed_arg $ no_preflight)
