(** MINFLOTRANSIT — min-cost-flow based transistor sizing.

    This is the single-module facade over the library stack. A typical
    session:

    {[
      let nl = Minflo.Iscas85.circuit "c432" in
      let model = Minflo.Elmore.of_netlist Minflo.Tech.default_130nm nl in
      let dmin = Minflo.Sweep.dmin model in
      let result = Minflo.Minflotransit.optimize model ~target:(0.5 *. dmin) in
      Printf.printf "area saving over TILOS: %.1f%%\n" result.area_saving_pct
    ]}

    Layers (each also usable as its own library):
    - {!Vec}, {!Heap}, {!Rng}, {!Stats}, {!Table}, {!Json} —
      containers, statistics and the one JSON dialect shared by the serve
      protocol, traces, journals and the persisted documents
      ([minflo_util]);
    - {!Diag}, {!Budget}, {!Fault}, {!Io}, {!Torture}, {!Perf} — typed
      diagnostics (and which failures are retryable), run budgets, fault
      injection and the instrumented storage layer ([minflo_robust]). The
      D-phase solver chain itself lives in {!Dphase.solve};
    - {!Mcf}, {!Network_simplex}, {!Ssp}, {!Cost_scaling}, {!Dinic},
      {!Bellman_ford} — the network-flow substrate ([minflo_flow]). The
      D-phase's displacement LP is built directly as the {!Mcf.problem}
      whose optimal potentials are its solution
      ({!Dphase.displacement_problem});
    - {!Gate}, {!Netlist}, {!Raw}, {!Bench_format}, {!Verilog_format},
      {!Generators}, {!Compose}, {!Transform}, {!Iscas85}, {!Mutate} —
      gate-level circuits ([minflo_netlist]). There is no separate graph
      library: node ids are topological, so a netlist walk is a sweep
      over its fanin arrays, the timing graph is {!Delay_model}'s CSR
      arrays and the D-phase network is {!Mcf}'s arc arrays;
    - {!Sat}, {!Cnf} — CDCL SAT and the miter equivalence checker
      ([minflo_sat]);
    - {!Tech}, {!Gate_model}, {!Delay_model}, {!Elmore}, {!Transistor},
      {!Model_cache} — electrical models at gate or transistor granularity
      ([minflo_tech]). {!Delay_model.make} builds the one timing
      representation: flat CSR adjacency, coefficient and loader rows,
      topological order and elimination blocks, read directly by every
      timing hot loop;
    - {!Sta}, {!Incremental}, {!Balance}, {!Tolerance} — batch and
      incremental timing analysis, FSDU delay balancing and the one
      tolerance contract ("meets the target", "safe", "in the size box",
      "budget met") every check reads ([minflo_timing]);
    - {!Activity}, {!Power} — switching activity and dynamic power
      ([minflo_power]);
    - {!Tilos}, {!Wphase}, {!Dphase}, {!Sensitivity}, {!Lagrangian},
      {!Optimality}, {!Minflotransit}, {!Sweep} — the sizing engines
      ([minflo_sizing]);
    - {!Lint_rule}, {!Lint_finding}, {!Lint}, {!Bounds}, {!Audit},
      {!Trace}, {!Sarif}, {!Lint_report} — the static analyzer, interval
      bound analysis, flow-certificate auditor and proof-carrying trace
      auditor ([minflo_lint]);
    - {!Job}, {!Checkpoint}, {!Journal}, {!Supervisor}, {!Differential},
      {!Batch}, {!Benchmarks} — the crash-safe batch runner
      ([minflo_runner]);
    - {!Serve}, {!Serve_protocol}, {!Serve_transport}, {!Serve_client},
      {!Serve_result_cache}, {!Loadgen}, {!Chaosproxy} — the
      sizing-as-a-service daemon, its retrying clients and the network
      chaos proxy ([minflo_serve]);
    - {!Fingerprint}, {!Gen_mut}, {!Oracle}, {!Shrink}, {!Corpus},
      {!Campaign} — the differential fuzzing harness ([minflo_fuzz]). *)

(* util *)
module Vec = Minflo_util.Vec
module Heap = Minflo_util.Heap
module Rng = Minflo_util.Rng
module Stats = Minflo_util.Stats
module Table = Minflo_util.Table
module Json = Minflo_util.Json

(* resilience: structured diagnostics, run budgets, deterministic fault
   injection *)
module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Fault = Minflo_robust.Fault
module Io = Minflo_robust.Io
module Torture = Minflo_robust.Torture
module Perf = Minflo_robust.Perf

(* flow *)
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Cost_scaling = Minflo_flow.Cost_scaling
module Dinic = Minflo_flow.Dinic
module Bellman_ford = Minflo_flow.Bellman_ford

(* netlist *)
module Gate = Minflo_netlist.Gate
module Netlist = Minflo_netlist.Netlist
module Raw = Minflo_netlist.Raw
module Bench_format = Minflo_netlist.Bench_format
module Verilog_format = Minflo_netlist.Verilog_format
module Generators = Minflo_netlist.Generators
module Compose = Minflo_netlist.Compose
module Transform = Minflo_netlist.Transform
module Iscas85 = Minflo_netlist.Iscas85

(* sat *)
module Sat = Minflo_sat.Sat
module Cnf = Minflo_sat.Cnf

(* tech *)
module Tech = Minflo_tech.Tech
module Gate_model = Minflo_tech.Gate_model
module Delay_model = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Model_cache = Minflo_tech.Model_cache

(* timing *)
module Sta = Minflo_timing.Sta
module Incremental = Minflo_timing.Incremental
module Balance = Minflo_timing.Balance
module Tolerance = Minflo_timing.Tolerance

(* power estimation (the low-power motivation of [13]) *)
module Activity = Minflo_power.Activity
module Power = Minflo_power.Power

(* sizing *)
module Tilos = Minflo_sizing.Tilos
module Wphase = Minflo_sizing.Wphase
module Dphase = Minflo_sizing.Dphase
module Sensitivity = Minflo_sizing.Sensitivity
module Lagrangian = Minflo_sizing.Lagrangian
module Optimality = Minflo_sizing.Optimality
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep

(* static analysis: netlist linter, interval bound analysis,
   flow-certificate auditor and proof-carrying trace auditor *)
module Lint_rule = Minflo_lint.Rule
module Lint_finding = Minflo_lint.Finding
module Lint = Minflo_lint.Lint
module Bounds = Minflo_lint.Bounds
module Audit = Minflo_lint.Audit
module Trace = Minflo_lint.Trace
module Sarif = Minflo_lint.Sarif
module Lint_report = Minflo_lint.Report

(* batch runner: crash-safe checkpoint/resume, per-job process isolation,
   cross-solver differential verification *)
module Job = Minflo_runner.Job
module Checkpoint = Minflo_runner.Checkpoint
module Journal = Minflo_runner.Journal
module Supervisor = Minflo_runner.Supervisor
module Differential = Minflo_runner.Differential
module Batch = Minflo_runner.Batch
module Benchmarks = Minflo_runner.Benchmarks

(* sizing-as-a-service daemon: admission control, crash recovery,
   graceful drain, health probes over unix sockets and TCP, retrying
   clients, byte-budgeted result cache, network chaos proxy *)
module Serve_protocol = Minflo_serve.Protocol
module Serve = Minflo_serve.Server
module Serve_transport = Minflo_serve.Transport
module Serve_client = Minflo_serve.Client
module Serve_result_cache = Minflo_serve.Result_cache
module Loadgen = Minflo_serve.Loadgen
module Chaosproxy = Minflo_serve.Chaosproxy

(* differential fuzzing harness: seeded campaigns, failure fingerprints,
   delta-debugging shrinker, deterministic replay corpus *)
module Mutate = Minflo_netlist.Mutate
module Fingerprint = Minflo_fuzz.Fingerprint
module Gen_mut = Minflo_fuzz.Gen_mut
module Oracle = Minflo_fuzz.Oracle
module Shrink = Minflo_fuzz.Shrink
module Corpus = Minflo_fuzz.Corpus
module Campaign = Minflo_fuzz.Campaign
