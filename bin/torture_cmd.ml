(* minflo torture: crash-point torture of every durable writer. *)

open Cmdliner
open Minflo

(* The concrete crash-point torture workload: a checkpointed batch run, a
   proof-carrying trace, and a serve-style journal segment — every durable
   writer in the stack — driven through {!Torture.run}, which replays it
   once per write boundary with a simulated process death pinned there and
   then checks the recovery invariants against the wreckage. *)
let cmd =
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
      Cli.invariant "torture" "empty --factors";
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
    let trace_factor = List.hd factors in
    let { Cli.nl; model; target = trace_target; _ } =
      Cli.target_of (Cli.circuit circuit_spec) ~factor:trace_factor
    in
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
      let jr = Cli.or_fail (Journal.open_append serve_journal) in
      let spec =
        { Serve_protocol.circuit = circuit_spec;
          factor = trace_factor;
          solver = `Simplex;
          max_seconds = None;
          max_iterations = None;
          max_pivots = None;
          sleep_seconds = 0.0 }
      in
      List.iter
        (fun key -> ignore (Serve.journal_accepted jr key spec))
        serve_keys;
      ignore
        (Serve.journal_result jr "torture-done"
           { Job.job = Serve_protocol.job_of spec;
             area = 42.0;
             area_ratio = 1.5;
             cp = trace_target;
             target = trace_target;
             met = true;
             iterations = 3;
             saving_pct = 7.5;
             stop = "converged";
             resumed = false;
             perf = Perf.zero () });
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
      Cli.or_fail
        (Trace.write_run trace_path model ~circuit:(Netlist.name nl)
           ~target:trace_target ~steps:(List.rev !steps) r)
    in
    let setup () =
      rm_rf dir;
      Cli.or_fail (Io.mkdirs batch_dir);
      Cli.or_fail (Io.mkdirs serve_dir)
    in
    let workload () =
      ignore (Cli.or_fail (run_batch ~resume:false));
      write_trace ();
      write_serve_segment ()
    in
    (* fault-free baseline: the areas a resumed run must reproduce bit for
       bit, and a sanity check that the workload itself is healthy *)
    setup ();
    workload ();
    let baseline = Journal.completed batch_journal in
    if Hashtbl.length baseline <> List.length grid then
      Cli.invariant "torture-baseline" "%d of %d jobs completed fault-free"
        (Hashtbl.length baseline) (List.length grid);
    (match Trace.audit_file model ~target:trace_target trace_path with
    | Ok [] -> ()
    | Ok fs ->
      Cli.invariant "torture-baseline" "fault-free trace rejected: %s"
        (Lint_report.render fs)
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
      Cli.or_fail
        (Torture.run ~seed ?max_sims ~progress ~setup ~workload ~verify ())
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
      Cli.invariant "torture" "%d recovery invariant violations"
        (List.length violations);
    if points < min_points then
      Cli.invariant "torture" "only %d crash points exercised (need %d)"
        points min_points
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
