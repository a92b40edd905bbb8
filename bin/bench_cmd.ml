(* minflo bench: the deterministic benchmark grid and its baseline check,
   or (--paper) the paper's evaluation from {!Paper}. *)

open Cmdliner
open Minflo

let grid quick scale json out check =
  (* a bad -o or --check fails before anything is sized; the -o probe
     opens in append mode, so it creates a missing file and leaves an
     existing one as it is *)
  Option.iter
    (fun path -> Io.sink_close (Cli.or_fail (Io.create_sink ~append:true path)))
    out;
  let baseline =
    Option.map (fun path -> (path, Cli.or_fail (Benchmarks.load_baseline path)))
      check
  in
  let experiments =
    Benchmarks.suite ~quick ()
    @ (if scale then Benchmarks.scale_suite ~quick () else [])
  in
  (if json || out <> None then
     Cli.emit
       ~wrote:(Printf.sprintf " (%d experiments)" (List.length experiments))
       out
       (Benchmarks.render experiments)
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
          (List.map (fun (e : Benchmarks.experiment) -> e.circuit) experiments))
   end);
  match baseline with
  | None -> ()
  | Some (path, baseline) -> (
    match Benchmarks.check ~baseline experiments with
    | Ok () -> Fmt.pr "bench: counters match baseline %s@." path
    | Error diffs ->
      List.iter (fun d -> Fmt.epr "bench diverges:@.%s@." d) diffs;
      Cli.invariant "bench" "%d experiment(s) diverge from %s"
        (List.length diffs) path)

let cmd =
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
    Cli.output_arg
      ~doc:"Write the JSON document to $(docv) instead of stdout (implies \
            --json)."
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
