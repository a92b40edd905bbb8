(* minflo fuzz / replay: the differential fuzzing campaign and its
   reproducer corpus. *)

open Cmdliner
open Minflo

let fuzz =
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
    Arg.(value & opt (some Cli.fault_site_conv) None
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Arm this site in every case's oracle run; the campaign \
                   must then find (and shrink, and deterministically \
                   replay) the planted fault.")
  in
  let factor_arg =
    Arg.(value & opt float 0.6
         & info [ "factor" ; "f" ] ~docv:"F"
             ~doc:"Delay target per case, as a fraction of its Dmin.")
  in
  let solvers_arg =
    Cli.solvers_arg
      ~doc:"Comma-separated engine legs to run (and differentially \
            compare) per case."
      [ `Simplex; `Ssp ]
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
        Cli.invariant "fuzz" "%d fresh failure fingerprint(s)" report.fresh
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
          $ fuzz_fault_arg $ Cli.fault_seed_arg $ factor_arg $ solvers_arg
          $ no_differential_arg $ no_shrink_arg $ shrink_checks_arg
          $ isolate_arg $ timeout_arg $ max_gates_arg $ known_arg
          $ known_from_arg $ quiet_arg)

let replay =
  let paths_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"REPRO"
             ~doc:"Reproducer files, or directories of them.")
  in
  let run paths =
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
        let r = Cli.or_fail (Campaign.replay f) in
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
              (fun fp -> Fmt.pr "    observed: %s@." (Fingerprint.to_string fp))
              r.observed
        end)
      files;
    if !bad > 0 then
      Cli.invariant "replay" "%d of %d reproducer(s) did not reproduce" !bad
        (List.length files)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run stored reproducers bit-deterministically (the oracle's \
             budgets are iteration- and pivot-based, never wall clock) and \
             verify each still yields its stored failure fingerprint, \
             twice. A lost or flaky fingerprint exits 3; a malformed \
             reproducer exits 2.")
    Term.(const run $ paths_arg)
