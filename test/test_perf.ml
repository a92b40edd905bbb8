(* Tests for the warm-start/perf layer: basis reuse correctness on
   cost-perturbed networks, pivot-count monotonicity, the engine-level
   warm-vs-cold trajectory identity with its >=30% pivot reduction, parallel
   batch bit-equality (journal, checkpoints, summary) including a mid-run
   SIGKILL of a worker, counter determinism, and a flat live heap across
   many fresh models in one process. *)

module Rng = Minflo_util.Rng
module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Perf = Minflo_robust.Perf
module Mcf = Minflo_flow.Mcf
module Simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Generators = Minflo_netlist.Generators
module Bench_format = Minflo_netlist.Bench_format
module Iscas85 = Minflo_netlist.Iscas85
module Tech = Minflo_tech.Tech
module Elmore = Minflo_tech.Elmore
module Model_cache = Minflo_tech.Model_cache
module Delay_model = Minflo_tech.Delay_model
module Tilos = Minflo_sizing.Tilos
module Dphase = Minflo_sizing.Dphase
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Audit = Minflo_lint.Audit
module Job = Minflo_runner.Job
module Checkpoint = Minflo_runner.Checkpoint
module Journal = Minflo_runner.Journal
module Supervisor = Minflo_runner.Supervisor
module Batch = Minflo_runner.Batch
module Benchmarks = Minflo_runner.Benchmarks

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let bits = Int64.bits_of_float

let check_float_bits name a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g (%016Lx) <> %.17g (%016Lx)" name a (bits a) b
      (bits b)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "minflo-perf-%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* the same pinned 50-instance family as test_flow's differential sweep *)
let arc src dst cap cost = { Mcf.src; dst; cap; cost }

let random_problem seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng (3 * n) in
  let arcs =
    Array.init m (fun _ ->
        let src = Rng.int rng n in
        let dst = Rng.int rng n in
        let cap = Rng.int rng 15 in
        let cost = Rng.int rng 21 - 6 in
        arc src dst cap cost)
  in
  let supply = Array.make n 0 in
  let pairs = 1 + Rng.int rng 3 in
  for _ = 1 to pairs do
    let s = Rng.int rng n and t = Rng.int rng n in
    let amount = 1 + Rng.int rng 5 in
    supply.(s) <- supply.(s) + amount;
    supply.(t) <- supply.(t) - amount
  done;
  { Mcf.num_nodes = n; arcs; supply }

(* the shape of a D/W iteration: same network, moved costs *)
let perturb_costs k (p : Mcf.problem) =
  { p with
    Mcf.arcs =
      Array.mapi
        (fun i (a : Mcf.arc) ->
          { a with Mcf.cost = a.cost + (((i + k) mod 3) - 1) })
        p.Mcf.arcs }

let pivots_of f =
  let before = Perf.snapshot () in
  let v = f () in
  (v, Perf.(diff before (snapshot ())).Perf.pivots)

(* ---------- warm-start correctness on the 50-seed family ---------- *)

let test_warm_matches_cold_on_perturbed () =
  let cold_total = ref 0 and warm_total = ref 0 and optimal = ref 0 in
  for seed = 1 to 50 do
    let p = random_problem ((seed * 48271) + 7) in
    let st = Simplex.make_state () in
    (* first fill through the state is a cold start and must agree with the
       plain solver *)
    let s0 = Simplex.solve_warm st p in
    let c0 = Simplex.solve p in
    if s0.Mcf.status <> c0.Mcf.status then
      Alcotest.failf "seed %d: first-fill status diverges" seed;
    if s0.Mcf.status = Mcf.Optimal then
      check int
        (Printf.sprintf "seed %d first-fill objective" seed)
        c0.Mcf.objective s0.Mcf.objective;
    (* re-solve with perturbed costs: warm (through the retained basis) and
       cold must agree on status, objective and certificate validity *)
    let q = perturb_costs seed p in
    let cold, cold_pivots = pivots_of (fun () -> Simplex.solve q) in
    let warm, warm_pivots = pivots_of (fun () -> Simplex.solve_warm st q) in
    if cold.Mcf.status <> warm.Mcf.status then
      Alcotest.failf "seed %d: perturbed status diverges" seed;
    if cold.Mcf.status = Mcf.Optimal then begin
      incr optimal;
      check int
        (Printf.sprintf "seed %d perturbed objective" seed)
        cold.Mcf.objective warm.Mcf.objective;
      (match Mcf.check_optimality q warm with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "seed %d: warm certificate invalid: %s" seed
          (Diag.to_string e));
      cold_total := !cold_total + cold_pivots;
      warm_total := !warm_total + warm_pivots
    end;
    (* the SSP warm path must agree with its own cold solver too *)
    let sst = Ssp.make_state () in
    ignore (Ssp.solve_warm sst p);
    let sc = Ssp.solve q in
    let sw = Ssp.solve_warm sst q in
    if sc.Mcf.status <> sw.Mcf.status then
      Alcotest.failf "seed %d: ssp warm status diverges" seed;
    if sc.Mcf.status = Mcf.Optimal then begin
      check int
        (Printf.sprintf "seed %d ssp objective" seed)
        sc.Mcf.objective sw.Mcf.objective;
      match Mcf.check_optimality q sw with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "seed %d: ssp warm certificate invalid: %s" seed
          (Diag.to_string e)
    end
  done;
  check bool "family exercises the optimal path" true (!optimal >= 10);
  (* monotonicity in aggregate: re-solving from the previous optimal basis
     must never cost more pivots than climbing out of the artificial one *)
  if !warm_total > !cold_total then
    Alcotest.failf "warm pivots %d > cold pivots %d over the 50-seed family"
      !warm_total !cold_total;
  check bool "pivots were actually counted" true (!cold_total > 0)

let test_shape_change_falls_back_cold () =
  let st = Simplex.make_state () in
  (* seeds 102/103 both solve Optimal, so the state survives the first
     solve and the second exercises the compatibility check *)
  let p = random_problem 102 in
  ignore (Simplex.solve_warm st p);
  (* re-solving the same shape starts from the retained basis *)
  let before = Perf.snapshot () in
  ignore (Simplex.solve_warm st p);
  check int "state retained" 1 Perf.(diff before (snapshot ())).Perf.warm_starts;
  (* a different network shape: the basis is incompatible and must be
     rebuilt, not misapplied *)
  let p2 = random_problem 103 in
  let cold = Simplex.solve p2 in
  let warm = Simplex.solve_warm st p2 in
  check bool "status" true (cold.Mcf.status = warm.Mcf.status);
  if cold.Mcf.status = Mcf.Optimal then
    check int "objective after shape change" cold.Mcf.objective
      warm.Mcf.objective

(* ---------- the engine: warm trajectory identical, >=30% fewer pivots ----- *)

let engine_run ~circuit ~warm =
  let nl = Iscas85.circuit circuit in
  let model = Model_cache.model ~tech:Tech.default_130nm nl in
  let target = 0.6 *. Sweep.dmin model in
  let options =
    { Minflotransit.default_options with
      solver = `Simplex;
      warm_start = warm;
      canonical_duals = true }
  in
  let before = Perf.snapshot () in
  let r = Minflotransit.optimize ~options model ~target in
  (r, Perf.(diff before (snapshot ())))

let engine_warm_reduction ~circuit () =
  let rc, pc = engine_run ~circuit ~warm:false in
  let rw, pw = engine_run ~circuit ~warm:true in
  check bool "both met" true (rc.Minflotransit.met && rw.Minflotransit.met);
  check_float_bits "final area identical" rc.Minflotransit.area
    rw.Minflotransit.area;
  check int "iteration count identical" rc.Minflotransit.iterations
    rw.Minflotransit.iterations;
  Array.iteri
    (fun i x ->
      check_float_bits (Printf.sprintf "size %d identical" i) x
        rw.Minflotransit.sizes.(i))
    rc.Minflotransit.sizes;
  check bool "warm leg reused a basis" true (pw.Perf.warm_starts > 0);
  check bool "cold leg never reused one" true (pc.Perf.warm_starts = 0);
  let reduction =
    100.
    *. float_of_int (pc.Perf.pivots - pw.Perf.pivots)
    /. float_of_int pc.Perf.pivots
  in
  if reduction < 30. then
    Alcotest.failf "%s: warm start saves only %.1f%% of pivots (%d -> %d)"
      circuit reduction pc.Perf.pivots pw.Perf.pivots

let test_engine_reduction_c432 = engine_warm_reduction ~circuit:"c432"
let test_engine_reduction_c6288 = engine_warm_reduction ~circuit:"c6288"

let test_warm_certificates_audit_clean () =
  (* the real D-phase workload: the displacement LP at the TILOS seed,
     solved cold and through a primed basis after a cost perturbation —
     both certificates must pass the independent auditor *)
  let nl = Iscas85.circuit "c432" in
  let model = Model_cache.model ~tech:Tech.default_130nm nl in
  let target = 0.6 *. Sweep.dmin model in
  let tilos = Tilos.size model ~target in
  check bool "tilos met" true tilos.Tilos.met;
  let delays = Delay_model.delays model tilos.Tilos.sizes in
  match
    Dphase.displacement_problem model ~sizes:tilos.Tilos.sizes ~delays
      ~deadline:target
  with
  | Error e -> Alcotest.failf "displacement LP: %s" (Diag.to_string e)
  | Ok problem ->
    let st = Simplex.make_state () in
    let first = Simplex.solve_warm st problem in
    check bool "first solve optimal" true (first.Mcf.status = Mcf.Optimal);
    (match Audit.check problem first with
    | [] -> ()
    | fs ->
      Alcotest.failf "first certificate rejected: %d finding(s)"
        (List.length fs));
    let q = perturb_costs 1 problem in
    let cold = Simplex.solve q in
    let warm = Simplex.solve_warm st q in
    check bool "perturbed solves optimal" true
      (cold.Mcf.status = Mcf.Optimal && warm.Mcf.status = Mcf.Optimal);
    check int "perturbed objectives agree" cold.Mcf.objective warm.Mcf.objective;
    List.iter
      (fun (tag, sol) ->
        match Audit.check q sol with
        | [] -> ()
        | fs ->
          Alcotest.failf "%s certificate rejected: %d finding(s)" tag
            (List.length fs))
      [ ("cold", cold); ("warm", warm) ]

(* ---------- counter determinism ---------- *)

let test_counter_determinism () =
  let a = snd (engine_run ~circuit:"c432" ~warm:true) in
  let b = snd (engine_run ~circuit:"c432" ~warm:true) in
  let fields c =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Perf.to_fields c))
  in
  if a <> b then
    Alcotest.failf "counters differ between identical runs: %s vs %s"
      (fields a) (fields b);
  check bool "counters are non-trivial" true (a.Perf.pivots > 0);
  (* the simplex's pricing counters are counts, not times: they repeat
     exactly too *)
  check int "arcs priced repeat" a.Perf.arcs_priced b.Perf.arcs_priced;
  check int "potential writes repeat" a.Perf.potential_writes
    b.Perf.potential_writes;
  check bool "pricing counters are non-trivial" true
    (a.Perf.arcs_priced > a.Perf.pivots && a.Perf.potential_writes > 0)

let test_bench_check_catches_drift () =
  let dir = fresh_dir "bench-drift" in
  let experiments = Benchmarks.suite ~quick:true () in
  let baseline = Filename.concat dir "baseline.json" in
  let oc = open_out baseline in
  output_string oc (Benchmarks.render experiments);
  close_out oc;
  (* the file is rewritten below, so each check loads it afresh *)
  let check_against path es =
    match Benchmarks.load_baseline path with
    | Ok baseline -> Benchmarks.check ~baseline es
    | Error e -> Error [ Diag.to_string e ]
  in
  (* same run, wall clock aside, matches its own baseline exactly *)
  (match check_against baseline experiments with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "self-comparison diverged: %s" (String.concat "; " ds));
  (* a subset run (the --quick grid against the full baseline) checks too *)
  (match
     check_against baseline (List.filteri (fun i _ -> i < 2) experiments)
   with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "subset comparison diverged: %s" (String.concat "; " ds));
  (* a single drifted counter is caught *)
  let drifted =
    List.mapi
      (fun i (e : Benchmarks.experiment) ->
        if i = 0 then
          { e with
            Benchmarks.counters =
              { e.Benchmarks.counters with
                Perf.pivots = e.Benchmarks.counters.Perf.pivots + 1 } }
        else e)
      experiments
  in
  (match check_against baseline drifted with
  | Ok () -> Alcotest.fail "drifted counter accepted"
  | Error ds -> check int "exactly the drifted experiment flagged" 1
                  (List.length ds));
  (* a baseline in the checked-in BENCH_pr10.json spelling (spaced, a
     three-decimal target factor, a nine-decimal area) checks too, and one
     changed counter in it is caught *)
  let pr10 ~pivots =
    Printf.sprintf
      "{\"schema\": \"minflo-bench/2\",\n\
      \ \"experiments\": [\n\
      \  {\"circuit\": \"c432\", \"mode\": \"cold\", \
       \"target_factor\": 0.600, \"gates\": 160, \"area\": 1244.137492244, \
       \"met\": true, \"iterations\": 9, \"audit_findings\": 0, \
       \"pivots\": %d, \"relabels\": 0, \"sweeps\": 82, \"bumps\": 317, \
       \"warm_starts\": 0, \"cold_starts\": 17, \"cache_hits\": 0, \
       \"cache_misses\": 0, \"rejections\": 0, \"evictions\": 0, \
       \"incr_updates\": 10862, \"full_sweeps_avoided\": 334, \
       \"arcs_priced\": 461853, \"potential_writes\": 66216, \
       \"wall_seconds\": 0.027}\n\
      \ ]}\n"
      pivots
  in
  let c432_cold = List.filteri (fun i _ -> i = 0) experiments in
  let write text =
    let oc = open_out baseline in
    output_string oc text;
    close_out oc
  in
  write (pr10 ~pivots:6612);
  (match check_against baseline c432_cold with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "BENCH_pr10 spelling diverged: %s" (String.concat "; " ds));
  write (pr10 ~pivots:6613);
  (match check_against baseline c432_cold with
  | Ok () -> Alcotest.fail "changed counter in BENCH_pr10 spelling accepted"
  | Error ds -> check int "the changed experiment flagged" 1 (List.length ds));
  (* a baseline that cannot be read, or is not a baseline document, is a
     typed error at load time *)
  (match Benchmarks.load_baseline (Filename.concat dir "missing.json") with
  | Error (Diag.Io_error _) -> ()
  | _ -> Alcotest.fail "missing baseline: expected an I/O error");
  List.iter
    (fun text ->
      write text;
      match Benchmarks.load_baseline baseline with
      | Error (Diag.Storage_corrupt _) -> ()
      | _ -> Alcotest.failf "baseline %S: expected storage-corrupt" text)
    [ "not json"; "{\"schema\": \"minflo-bench/2\"}" ];
  rm_rf dir

(* ---------- parallel batch: bit-equality vs -j 1 ---------- *)

let sup ?(parallel = 1) () =
  { Supervisor.default_config with
    parallel;
    retries = 2;
    backoff_base = 0.01;
    isolate = true }

let write_adder dir bits =
  let file = Filename.concat dir (Printf.sprintf "adder%d.bench" bits) in
  (match
     Minflo_robust.Io.write_file file
       (Bench_format.to_string (Generators.ripple_carry_adder ~bits ()))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write %s: %s" file (Diag.to_string e));
  file

let run_batch ?(make_fault = fun _ -> None) ?engine ~dir ~parallel jobs =
  let config =
    { Batch.default_config with
      checkpoint_dir = Some dir;
      supervise = sup ~parallel ();
      make_fault;
      engine =
        Option.value engine ~default:Batch.default_config.Batch.engine }
  in
  match Batch.run ~config jobs with
  | Ok s -> s
  | Error e -> Alcotest.failf "batch (-j %d): %s" parallel (Diag.to_string e)

(* everything deterministic about a summary, in submission order *)
let summary_sig (s : Batch.summary) =
  ( s.Batch.ok, s.Batch.failed, s.Batch.skipped, s.Batch.mismatches,
    List.map
      (fun (r : Batch.job_report) ->
        ( Job.id r.Batch.job,
          r.Batch.attempts,
          r.Batch.quarantined,
          match r.Batch.outcome with
          | Some (Ok o) ->
            Printf.sprintf "ok %016Lx %016Lx %d %b" (bits o.Job.area)
              (bits o.Job.area_ratio) o.Job.iterations o.Job.met
          | Some (Error e) -> "error " ^ Diag.error_code e
          | None -> "skipped" ))
      s.Batch.reports )

let check_canonical_journals_equal d1 d4 =
  let j1 = Journal.canonical (Filename.concat d1 "journal.jsonl") in
  let j4 = Journal.canonical (Filename.concat d4 "journal.jsonl") in
  check int "canonical journal line count" (List.length j1) (List.length j4);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "canonical journal line %d diverges:\n-j1: %s\n-j4: %s"
          i a b)
    (List.combine j1 j4);
  j1

let test_parallel_batch_bit_identical () =
  let src = fresh_dir "grid-src" in
  let adder = write_adder src 4 in
  let jobs =
    Job.cross ~circuits:[ "c17"; adder ]
      ~factors:[ 0.6; 0.7; 0.8; 0.9 ]
      ~solvers:[ `Simplex; `Ssp ]
  in
  check int "16-job grid" 16 (List.length jobs);
  let d1 = fresh_dir "grid-j1" and d4 = fresh_dir "grid-j4" in
  let s1 = run_batch ~dir:d1 ~parallel:1 jobs in
  let s4 = run_batch ~dir:d4 ~parallel:4 jobs in
  check bool "summaries bit-identical" true (summary_sig s1 = summary_sig s4);
  check int "all jobs succeeded" 16 s1.Batch.ok;
  let j1 = check_canonical_journals_equal d1 d4 in
  (* the parent-side journal carries the worker-side events: per-pass
     checkpoint progress and the final perf counters of every job *)
  check bool "journal has job-perf events" true
    (List.exists (fun l -> contains l "job-perf") j1);
  check bool "journal has job-checkpoint events" true
    (List.exists (fun l -> contains l "job-checkpoint") j1);
  check bool "journal has pivot counters" true
    (List.exists (fun l -> contains l "\"pivots\":") j1);
  List.iter rm_rf [ src; d1; d4 ]

let test_parallel_sigkill_bit_identical () =
  let src = fresh_dir "kill-src" in
  let adder = write_adder src 4 in
  let jobs =
    Job.cross ~circuits:[ "c17"; adder ]
      ~factors:[ 0.6; 0.7; 0.8; 0.9 ]
      ~solvers:[ `Simplex; `Ssp ]
  in
  let victim = Job.id (List.nth jobs 5) in
  (* the victim's first attempt SIGKILLs its own worker process mid-run;
     the marker file makes the retry run clean. Runs inside the child, so
     the parent (and the other in-flight workers under -j 4) must absorb
     the loss: retry the victim, keep the journal consistent. *)
  let kill_once dir (job : Job.t) =
    if Job.id job = victim then begin
      let marker = Filename.concat dir "killed-once" in
      if not (Sys.file_exists marker) then begin
        close_out (open_out marker);
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end
    end;
    None
  in
  let d1 = fresh_dir "kill-j1" and d4 = fresh_dir "kill-j4" in
  let s1 = run_batch ~make_fault:(kill_once d1) ~dir:d1 ~parallel:1 jobs in
  let s4 = run_batch ~make_fault:(kill_once d4) ~dir:d4 ~parallel:4 jobs in
  check bool "summaries bit-identical" true (summary_sig s1 = summary_sig s4);
  check int "all jobs still succeed" 16 s1.Batch.ok;
  let victim_report =
    List.find
      (fun (r : Batch.job_report) -> Job.id r.Batch.job = victim)
      s4.Batch.reports
  in
  check int "victim needed a retry" 2 victim_report.Batch.attempts;
  let j1 = check_canonical_journals_equal d1 d4 in
  check bool "crash was journaled" true
    (List.exists (fun l -> contains l "job-crashed") j1);
  List.iter rm_rf [ src; d1; d4 ]

let test_parallel_checkpoints_bit_identical () =
  (* interrupt every job with a 2-pass budget: each leaves a checkpoint,
     and the -j 4 checkpoints must carry exactly the -j 1 state (the wall
     budget meter aside — it is the only wall-clock field) *)
  let src = fresh_dir "ckpt-src" in
  let adder = write_adder src 8 in
  let jobs =
    Job.cross ~circuits:[ "c17"; adder ] ~factors:[ 0.6; 0.7 ]
      ~solvers:[ `Simplex ]
  in
  let engine =
    { Minflotransit.default_options with
      limits = Budget.limits ~max_iterations:2 () }
  in
  let d1 = fresh_dir "ckpt-j1" and d4 = fresh_dir "ckpt-j4" in
  let s1 = run_batch ~engine ~dir:d1 ~parallel:1 jobs in
  let s4 = run_batch ~engine ~dir:d4 ~parallel:4 jobs in
  check bool "summaries bit-identical" true (summary_sig s1 = summary_sig s4);
  let compared = ref 0 in
  List.iter
    (fun j ->
      let f = Job.file_slug j ^ ".ckpt" in
      let p1 = Filename.concat d1 f and p4 = Filename.concat d4 f in
      check bool
        (Printf.sprintf "checkpoint presence parity (%s)" (Job.id j))
        (Sys.file_exists p1) (Sys.file_exists p4);
      if Sys.file_exists p1 then begin
        incr compared;
        match (Checkpoint.load p1, Checkpoint.load p4) with
        | Ok a, Ok b ->
          let id = Job.id j in
          check string (id ^ " circuit") a.Checkpoint.circuit
            b.Checkpoint.circuit;
          check bool (id ^ " hash") true
            (a.Checkpoint.circuit_hash = b.Checkpoint.circuit_hash);
          check_float_bits (id ^ " target") a.Checkpoint.target
            b.Checkpoint.target;
          check string (id ^ " solver") a.Checkpoint.solver b.Checkpoint.solver;
          let sa = a.Checkpoint.snapshot and sb = b.Checkpoint.snapshot in
          check int (id ^ " iter") sa.Minflotransit.snap_iter
            sb.Minflotransit.snap_iter;
          check_float_bits (id ^ " area") sa.Minflotransit.snap_area
            sb.Minflotransit.snap_area;
          check_float_bits (id ^ " eta") sa.Minflotransit.snap_eta
            sb.Minflotransit.snap_eta;
          Array.iteri
            (fun i x ->
              check_float_bits
                (Printf.sprintf "%s size %d" id i)
                x
                sb.Minflotransit.snap_sizes.(i))
            sa.Minflotransit.snap_sizes;
          check int (id ^ " budget iterations") a.Checkpoint.budget_iterations
            b.Checkpoint.budget_iterations;
          check int (id ^ " budget pivots") a.Checkpoint.budget_pivots
            b.Checkpoint.budget_pivots
        | Error e, _ | _, Error e ->
          Alcotest.failf "%s: checkpoint load: %s" (Job.id j) (Diag.to_string e)
      end)
    jobs;
  check bool "at least one interrupted checkpoint compared" true (!compared > 0);
  List.iter rm_rf [ src; d1; d4 ]

(* ---------- heap: dropped models are collectable ---------- *)

(* A long-lived process (a serve daemon, a batch worker) sizes one fresh
   model per job. Once a job drops its model nothing may keep it reachable,
   so the live heap after the 12th model must stay within 10 % of the live
   heap after the 2nd. *)
let test_dropped_models_collected () =
  let live_after_job seed =
    (let nl =
       Generators.random_dag ~gates:2000 ~inputs:64 ~outputs:32 ~seed ()
     in
     let model = Elmore.of_netlist Tech.default_130nm nl in
     let target = 0.9 *. Sweep.dmin model in
     ignore (Tilos.size model ~target));
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live = Array.init 12 (fun k -> live_after_job (k + 1)) in
  if float_of_int live.(11) > 1.1 *. float_of_int live.(1) then
    Alcotest.failf "live words grew from %d after model 2 to %d after model 12"
      live.(1) live.(11)

let () =
  Alcotest.run "perf"
    [ ( "warm-flow",
        [ Alcotest.test_case "warm = cold on 50 perturbed networks" `Quick
            test_warm_matches_cold_on_perturbed;
          Alcotest.test_case "shape change falls back cold" `Quick
            test_shape_change_falls_back_cold ] );
      ( "warm-engine",
        [ Alcotest.test_case "c432: identical trajectory, >=30% fewer pivots"
            `Quick test_engine_reduction_c432;
          Alcotest.test_case "c6288: identical trajectory, >=30% fewer pivots"
            `Slow test_engine_reduction_c6288;
          Alcotest.test_case "warm certificates audit-clean" `Quick
            test_warm_certificates_audit_clean ] );
      ( "counters",
        [ Alcotest.test_case "identical runs, identical counters" `Quick
            test_counter_determinism;
          Alcotest.test_case "bench --check catches a drifted counter" `Quick
            test_bench_check_catches_drift ] );
      ( "parallel",
        [ Alcotest.test_case "-j 4 batch bit-identical to -j 1" `Quick
            test_parallel_batch_bit_identical;
          Alcotest.test_case "mid-run SIGKILL of a worker" `Quick
            test_parallel_sigkill_bit_identical;
          Alcotest.test_case "checkpoints bit-identical" `Quick
            test_parallel_checkpoints_bit_identical ] );
      ( "heap",
        [ Alcotest.test_case "dropped models are collected" `Quick
            test_dropped_models_collected ] ) ]
