(* Tests for the resilience layer: typed diagnostics, run budgets, the
   D-phase solver fallback chain, invariant checking and fault injection —
   both as units and threaded through the full sizing engine. *)

module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Inv = Minflo_robust.Check
module Fault = Minflo_robust.Fault
module Perf = Minflo_robust.Perf
module Json = Minflo_util.Json
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Bench_format = Minflo_netlist.Bench_format
module Verilog_format = Minflo_netlist.Verilog_format
module Gen = Minflo_netlist.Generators
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Sweep = Minflo_sizing.Sweep
module Minflotransit = Minflo_sizing.Minflotransit

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ---------- Diag ---------- *)

let test_diag_error_codes () =
  check string "parse" "parse-error"
    (Diag.error_code
       (Diag.Parse_error { file = None; line = 3; col = 0; msg = "x" }));
  check string "lint" "lint-error"
    (Diag.error_code
       (Diag.Lint_error
          { rule = "MF001"; file = None; line = 1; msg = "cycle" }));
  check string "unknown" "unknown-circuit"
    (Diag.error_code (Diag.Unknown_circuit { name = "z"; known = [] }));
  check string "budget" "budget-exhausted"
    (Diag.error_code
       (Diag.Budget_exhausted { resource = "pivots"; spent = 7.; limit = 5. }));
  check string "invariant" "invariant"
    (Diag.error_code (Diag.Invariant { what = "w"; detail = "d" }));
  check string "fault" "fault-injected"
    (Diag.error_code (Diag.Fault_injected { site = "s" }))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_diag_json () =
  (* printed and parsed back, as the journal and the serve wire carry it *)
  let reparse e =
    match Json.parse (Json.to_string (Diag.to_json e)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "to_json does not parse: %s" msg
  in
  let j =
    reparse
      (Diag.Parse_error { file = Some "a.bench"; line = 7; col = 2; msg = "bad" })
  in
  let str_opt = Alcotest.(option string) in
  check str_opt "has code" (Some "parse-error") (Json.str_field "code" j);
  check Alcotest.(option int) "has line" (Some 7) (Json.int_field "line" j);
  check str_opt "has file" (Some "a.bench") (Json.str_field "file" j);
  let j2 =
    reparse
      (Diag.Budget_exhausted { resource = "pivots"; spent = 12.5; limit = 3. })
  in
  check str_opt "budget code" (Some "budget-exhausted")
    (Json.str_field "code" j2)

let test_diag_log () =
  let l = Diag.create_log () in
  check int "empty" 0 (List.length (Diag.events l));
  Diag.log l Diag.Debug ~source:"t" "dbg";
  Diag.log l Diag.Warning ~source:"t" "warn";
  Diag.logf l Diag.Info ~source:"t" "n=%d" 3;
  check int "all events" 3 (List.length (Diag.events l));
  check int "warning and above" 1
    (List.length (Diag.events_above l Diag.Warning));
  check int "nothing above warning" 0
    (List.length (Diag.events_above l Diag.Error))

(* ---------- Budget ---------- *)

let test_budget_pivots () =
  let b = Budget.start (Budget.limits ~max_pivots:5 ()) in
  for i = 1 to 5 do
    check bool (Printf.sprintf "tick %d ok" i) true (Budget.tick_pivot b)
  done;
  check bool "tick 6 trips" false (Budget.tick_pivot b);
  check bool "sticky" false (Budget.tick_pivot b);
  check bool "exhausted" true (Budget.exhausted b);
  (match Budget.check b with
  | Some (Diag.Budget_exhausted { resource; _ }) ->
    check string "resource" "pivots" resource
  | _ -> Alcotest.fail "expected Budget_exhausted")

let test_budget_iterations () =
  let b = Budget.start (Budget.limits ~max_iterations:2 ()) in
  Budget.tick_iteration b;
  check bool "below the limit is fine" true (Budget.check b = None);
  Budget.tick_iteration b;
  (match Budget.check b with
  | Some (Diag.Budget_exhausted { resource; _ }) ->
    check string "resource" "iterations" resource
  | _ -> Alcotest.fail "expected Budget_exhausted on iterations")

let test_budget_wall () =
  let b = Budget.start (Budget.limits ~wall_seconds:0.0 ()) in
  (* the deadline trips on [elapsed > limit]: wait out the clock tick *)
  while Budget.elapsed b <= 0.0 do () done;
  (match Budget.check b with
  | Some (Diag.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "expected wall-clock exhaustion");
  check bool "exhausted" true (Budget.exhausted b)

let test_budget_unlimited () =
  let b = Budget.start Budget.no_limits in
  for _ = 1 to 10_000 do ignore (Budget.tick_pivot b) done;
  Budget.tick_iteration b;
  check bool "still fine" true (Budget.check b = None);
  check bool "not exhausted" false (Budget.exhausted b);
  check int "pivot count" 10_000 (Budget.pivots b)

(* ---------- Fault ---------- *)

let test_fault_unarmed () =
  let f = Fault.create () in
  check bool "never fires" true (Fault.fire f ~site:"s" = None);
  check int "fired count" 0 (Fault.fired f ~site:"s")

let test_fault_count () =
  let f = Fault.create () in
  Fault.arm f ~site:"s" ~count:2 (Fault.Fail (Diag.Fault_injected { site = "s" }));
  check bool "1st" true (Fault.fire f ~site:"s" <> None);
  check bool "2nd" true (Fault.fire f ~site:"s" <> None);
  check bool "3rd exhausted" true (Fault.fire f ~site:"s" = None);
  check int "fired twice" 2 (Fault.fired f ~site:"s");
  check bool "sites" true (Fault.sites f = [ "s" ])

let test_fault_prob_deterministic () =
  let pattern seed =
    let f = Fault.create ~seed () in
    Fault.arm f ~site:"s" ~prob:0.5 (Fault.Perturb 1.0);
    List.init 32 (fun _ -> Fault.fire f ~site:"s" <> None)
  in
  check bool "same seed, same replay" true (pattern 7 = pattern 7);
  let f0 = Fault.create ~seed:3 () in
  Fault.arm f0 ~site:"s" ~prob:0.0 (Fault.Perturb 1.0);
  for _ = 1 to 32 do
    check bool "prob 0 never fires" true (Fault.fire f0 ~site:"s" = None)
  done

(* ---------- Invariant recorder ---------- *)

let test_invariants_record () =
  let c = Inv.create () in
  Inv.record c "good" (Ok ());
  check bool "ok so far" true (Inv.failures c = []);
  Inv.record c "bad" (Error "broken");
  Inv.record c "worse" (Error "also broken");
  check int "failures" 2 (List.length (Inv.failures c));
  (match Inv.first_failure c with
  | Some (Diag.Invariant { what; _ }) -> check string "first" "bad" what
  | _ -> Alcotest.fail "expected an Invariant error");
  check bool "render marks failures" true (contains (Inv.to_string c) "FAIL");
  check int "one line per finding" 3
    (List.length (String.split_on_char '\n' (Inv.to_string c)))

(* ---------- MCF invariants on corrupted solutions ---------- *)

let small_problem () =
  { Mcf.num_nodes = 3;
    arcs =
      [| { Mcf.src = 0; dst = 1; cap = 5; cost = 1 };
         { Mcf.src = 1; dst = 2; cap = 5; cost = 1 } |];
    supply = [| 2; 0; -2 |] }

let test_mcf_corrupted_flow () =
  let p = small_problem () in
  let sol = Network_simplex.solve p in
  check bool "optimal" true (sol.Mcf.status = Mcf.Optimal);
  check bool "clean flow passes" true
    (Result.is_ok (Mcf.check_feasible_flow p sol.Mcf.flow));
  check bool "clean solution optimal" true
    (Result.is_ok (Mcf.check_optimality p sol));
  let bad = Array.copy sol.Mcf.flow in
  bad.(0) <- bad.(0) + 1;
  (match Mcf.check_feasible_flow p bad with
  | Error (Diag.Invariant { what; _ }) ->
    check string "conservation" "flow-conservation" what
  | _ -> Alcotest.fail "corrupted flow must fail conservation")

let test_mcf_corrupted_potential () =
  let p = small_problem () in
  let sol = Network_simplex.solve p in
  let pi = Array.copy sol.Mcf.potential in
  pi.(1) <- pi.(1) + 7;
  (match Mcf.check_optimality p { sol with Mcf.potential = pi } with
  | Error (Diag.Invariant { what; _ }) ->
    check string "reduced cost" "reduced-cost-optimality" what
  | _ -> Alcotest.fail "corrupted potential must fail optimality")

(* ---------- parsers: typed errors ---------- *)

let test_bench_parse_error_line () =
  (match Bench_format.parse_string "INPUT(a" with
  | Error (Diag.Parse_error { line; _ }) -> check int "line" 1 line
  | _ -> Alcotest.fail "expected Parse_error");
  match Bench_format.parse_string "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" with
  | Error (Diag.Parse_error { line; _ }) -> check int "line of bad gate" 3 line
  | _ -> Alcotest.fail "expected Parse_error on the gate line"

let test_verilog_parse_error () =
  (match
     Verilog_format.parse_string
       "module m(a, y);\ninput a;\nalways @(a) begin end\nendmodule\n"
   with
  | Error (Diag.Parse_error { line; _ }) ->
    check int "behavioral construct line" 3 line
  | _ -> Alcotest.fail "expected Parse_error");
  match Verilog_format.parse_string "module m(a; endmodule" with
  | Error (Diag.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error on an empty module"

let test_parse_file_io_error () =
  match Bench_format.parse_file "/nonexistent/definitely/missing.bench" with
  | Error (Diag.Io_error _) -> ()
  | _ -> Alcotest.fail "expected Io_error"

(* ---------- engine resilience (end-to-end on c17) ---------- *)

let tech = Tech.default_130nm
let model_of nl = Elmore.of_netlist tech nl

let c17_setup () =
  let model = model_of (Gen.c17 ()) in
  let target = 0.5 *. Sweep.dmin model in
  (model, target)

let sizes_in_bounds model sizes =
  Array.for_all (Minflo_timing.Tolerance.in_box model) sizes

(* ---------- the D-phase fallback chain, through the engine ---------- *)

let auto = { Minflotransit.default_options with solver = `Auto }

let failing sites error =
  let fault = Fault.create () in
  List.iter (fun site -> Fault.arm fault ~site (Fault.Fail (error site))) sites;
  fault

let injected site = Diag.Fault_injected { site }

(* the rungs named by the chain's warnings, in log order *)
let failed_rungs log =
  List.filter_map
    (fun (e : Diag.event) ->
      if e.source <> "fallback" then None
      else Scanf.sscanf_opt e.message "rung %s failed:" Fun.id)
    (Diag.events_above log Diag.Warning)

let test_fallback_first_rung () =
  let model, target = c17_setup () in
  let log = Diag.create_log () in
  let r = Minflotransit.optimize ~options:auto ~log model ~target in
  check bool "improved" true (r.iterations > 0);
  check Alcotest.(option string) "winning rung" (Some "simplex") r.solver_used;
  check Alcotest.(list string) "no rung failed" [] (failed_rungs log)

let test_fallback_retries_retryable () =
  let model, target = c17_setup () in
  let fault =
    failing [ "dphase.simplex" ] (fun _ ->
        Diag.Solver_diverged { solver = "simplex"; iters = 1 })
  in
  let log = Diag.create_log () in
  let r = Minflotransit.optimize ~options:auto ~fault ~log model ~target in
  check bool "improved through the fallback" true (r.iterations > 0);
  check Alcotest.(option string) "winning rung" (Some "ssp") r.solver_used;
  let failed = failed_rungs log in
  check int "one failure per simplex visit"
    (Fault.fired fault ~site:"dphase.simplex")
    (List.length failed);
  check bool "only the simplex rung failed" true
    (List.for_all (( = ) "simplex") failed)

let test_fallback_nonretryable_aborts () =
  let model, target = c17_setup () in
  let fault = failing [ "dphase.ssp"; "dphase.bellman-ford" ] injected in
  Fault.arm fault ~site:"dphase.simplex"
    (Fault.Fail
       (Diag.Infeasible_budget
          { vertex = 0; label = "g"; budget = 1.; intrinsic = 2. }));
  let r = Minflotransit.optimize ~options:auto ~fault model ~target in
  check bool "primary rung was hit" true
    (Fault.fired fault ~site:"dphase.simplex" > 0);
  check int "second rung never tried" 0 (Fault.fired fault ~site:"dphase.ssp");
  check int "no refinement" 0 r.iterations;
  check bool "TILOS seed survives" true r.met

let test_fallback_all_fail () =
  let model, target = c17_setup () in
  let fault =
    failing [ "dphase.simplex"; "dphase.ssp"; "dphase.bellman-ford" ] injected
  in
  let log = Diag.create_log () in
  let r = Minflotransit.optimize ~options:auto ~fault ~log model ~target in
  check bool "no winning rung" true (r.solver_used = None);
  let passes = Fault.fired fault ~site:"dphase.simplex" in
  check bool "passes ran" true (passes > 0);
  check Alcotest.(list string) "every rung logged once per pass"
    (List.concat
       (List.init passes (fun _ -> [ "simplex"; "ssp"; "bellman-ford" ])))
    (failed_rungs log)

(* Canonical duals make the SSP step identical to the simplex one, so a
   run that falls back on every pass does the same timing work as a clean
   run: the LP is built once per pass, not once per rung. *)
let test_fallback_builds_lp_once () =
  let model, target = c17_setup () in
  let sweeps ?fault options =
    let before = Perf.snapshot () in
    let r = Minflotransit.optimize ~options ?fault model ~target in
    (r, (Perf.diff before (Perf.snapshot ())).sweeps)
  in
  let clean, clean_sweeps = sweeps Minflotransit.default_options in
  let fault = failing [ "dphase.simplex" ] injected in
  let fell, fell_sweeps = sweeps ~fault auto in
  check bool "primary rung was hit" true
    (Fault.fired fault ~site:"dphase.simplex" > 0);
  check bool "same sizing" true (clean.sizes = fell.sizes);
  check int "same sweeps" clean_sweeps fell_sweeps

let test_engine_budget_best_feasible () =
  let model, target = c17_setup () in
  let options =
    { Minflotransit.default_options with
      limits = Budget.limits ~max_iterations:1 () }
  in
  let r = Minflotransit.optimize ~options model ~target in
  check bool "budget flagged" true r.budget_exhausted;
  (match r.stop with
  | Minflotransit.Stop_budget (Diag.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "expected a typed budget stop");
  check bool "best-so-far still meets the target" true r.met;
  check bool "sizes stay in bounds" true (sizes_in_bounds model r.sizes)

let test_engine_pivot_budget_no_exception () =
  let model, target = c17_setup () in
  let options =
    { Minflotransit.default_options with
      limits = Budget.limits ~max_pivots:5 () }
  in
  (* five pivots is not even enough for TILOS: the run must still return a
     flagged result, never raise *)
  let r = Minflotransit.optimize ~options model ~target in
  check bool "budget flagged" true r.budget_exhausted;
  check int "sizes for every vertex" (DM.num_vertices model)
    (Array.length r.sizes)

let test_engine_fallback_to_ssp () =
  let model, target = c17_setup () in
  let fault = Fault.create () in
  Fault.arm fault ~site:"dphase.simplex"
    (Fault.Fail (Diag.Fault_injected { site = "dphase.simplex" }));
  let options = { Minflotransit.default_options with solver = `Auto } in
  let log = Diag.create_log () in
  let r = Minflotransit.optimize ~options ~fault ~log model ~target in
  check bool "met" true r.met;
  check bool "primary rung was hit" true (Fault.fired fault ~site:"dphase.simplex" > 0);
  check bool "improved through the fallback" true (r.iterations > 0);
  (match r.solver_used with
  | Some s -> check string "winning rung" "ssp" s
  | None -> Alcotest.fail "expected an accepted iteration via ssp");
  check bool "rung failures logged" true
    (Diag.events_above log Diag.Warning <> [])

let test_engine_fallback_to_bellman_ford () =
  let model, target = c17_setup () in
  let fault = Fault.create () in
  List.iter
    (fun site -> Fault.arm fault ~site (Fault.Fail (Diag.Fault_injected { site })))
    [ "dphase.simplex"; "dphase.ssp" ];
  let options = { Minflotransit.default_options with solver = `Auto } in
  let r = Minflotransit.optimize ~options ~fault model ~target in
  check bool "met" true r.met;
  check bool "both upper rungs were hit" true
    (Fault.fired fault ~site:"dphase.simplex" > 0
    && Fault.fired fault ~site:"dphase.ssp" > 0);
  (* the Bellman-Ford rung produces feasible but suboptimal duals: its
     candidates repeat the same non-improving area, which the oscillation
     detector must turn into a typed termination, not a hang *)
  match r.stop with
  | Minflotransit.Stop_oscillation { repeats; _ } ->
    check bool "window reached" true (repeats >= 3)
  | Minflotransit.Stop_converged -> ()
  | s -> Alcotest.fail ("unexpected stop: " ^ Minflotransit.stop_reason_to_string s)

let test_engine_all_rungs_fail () =
  let model, target = c17_setup () in
  let fault = Fault.create () in
  List.iter
    (fun site -> Fault.arm fault ~site (Fault.Fail (Diag.Fault_injected { site })))
    [ "dphase.simplex"; "dphase.ssp"; "dphase.bellman-ford" ];
  let options = { Minflotransit.default_options with solver = `Auto } in
  let r = Minflotransit.optimize ~options ~fault model ~target in
  check bool "TILOS seed survives" true r.met;
  check int "no refinement possible" 0 r.iterations;
  check bool "no winning rung" true (r.solver_used = None)

let test_engine_wphase_fault () =
  let model, target = c17_setup () in
  let fault = Fault.create () in
  Fault.arm fault ~site:"wphase" ~count:1
    (Fault.Fail (Diag.Fault_injected { site = "wphase" }));
  let r = Minflotransit.optimize ~fault model ~target in
  check int "fired once" 1 (Fault.fired fault ~site:"wphase");
  check bool "run still completes and meets" true r.met;
  check bool "later iterations recover" true (r.iterations > 0)

let test_engine_perturb_caught_by_checks () =
  let model, target = c17_setup () in
  let fault = Fault.create () in
  (* corrupt the first simplex solution's duals: the post-phase checks must
     expose it and the auto chain must route around it *)
  Fault.arm fault ~site:"dphase.simplex" ~count:1 (Fault.Perturb 5.0);
  let checks = Inv.create () in
  let options = { Minflotransit.default_options with solver = `Auto } in
  let r = Minflotransit.optimize ~options ~fault ~checks model ~target in
  check int "fired once" 1 (Fault.fired fault ~site:"dphase.simplex");
  check bool "met" true r.met;
  check bool "corruption recorded as failed invariant" true
    (Inv.failures checks <> []);
  check bool "an fsdu or optimality check caught it" true
    (List.exists
       (fun (f : Inv.finding) ->
         (not f.ok)
         && (contains f.name "dphase.fsdu-nonnegative"
            || contains f.name "dphase.mcf-optimality"))
       (Inv.failures checks))

let test_engine_clean_run_passes_checks () =
  let model, target = c17_setup () in
  let checks = Inv.create () in
  let r = Minflotransit.optimize ~checks model ~target in
  check bool "met" true r.met;
  check bool "ran checks" true (Inv.to_string checks <> "");
  check bool "all invariants hold" true (Inv.failures checks = [])

let test_engine_oscillation_cutoff () =
  (* pinned Bellman-Ford duals are feasible but never area-improving on
     c17: every candidate is rejected with the same area, which must stop
     the loop with a typed oscillation reason instead of spinning until
     eta underflows *)
  let model, target = c17_setup () in
  let options =
    { Minflotransit.default_options with solver = `Bellman_ford }
  in
  let r = Minflotransit.optimize ~options model ~target in
  check bool "met" true r.met;
  match r.stop with
  | Minflotransit.Stop_oscillation { repeats; area } ->
    check bool "repeats reach the window" true (repeats >= 3);
    check bool "oscillating area is finite" true (Float.is_finite area)
  | s -> Alcotest.fail ("expected oscillation, got " ^ Minflotransit.stop_reason_to_string s)

let () =
  Alcotest.run "robust"
    [ ( "diag",
        [ Alcotest.test_case "error codes are stable" `Quick test_diag_error_codes;
          Alcotest.test_case "json rendering" `Quick test_diag_json;
          Alcotest.test_case "event log" `Quick test_diag_log ] );
      ( "budget",
        [ Alcotest.test_case "pivot limit trips and sticks" `Quick test_budget_pivots;
          Alcotest.test_case "iteration limit" `Quick test_budget_iterations;
          Alcotest.test_case "wall-clock limit" `Quick test_budget_wall;
          Alcotest.test_case "unlimited never trips" `Quick test_budget_unlimited ] );
      ( "fallback",
        [ Alcotest.test_case "first rung wins" `Quick test_fallback_first_rung;
          Alcotest.test_case "retryable falls through" `Quick
            test_fallback_retries_retryable;
          Alcotest.test_case "structural failure aborts" `Quick
            test_fallback_nonretryable_aborts;
          Alcotest.test_case "all rungs fail" `Quick test_fallback_all_fail;
          Alcotest.test_case "one LP build per pass" `Quick
            test_fallback_builds_lp_once ] );
      ( "fault",
        [ Alcotest.test_case "unarmed sites are silent" `Quick test_fault_unarmed;
          Alcotest.test_case "count limits firing" `Quick test_fault_count;
          Alcotest.test_case "seeded probability replays" `Quick
            test_fault_prob_deterministic ] );
      ( "invariants",
        [ Alcotest.test_case "recording and rendering" `Quick test_invariants_record;
          Alcotest.test_case "corrupted flow is caught" `Quick test_mcf_corrupted_flow;
          Alcotest.test_case "corrupted potential is caught" `Quick
            test_mcf_corrupted_potential ] );
      ( "parsers",
        [ Alcotest.test_case "bench error carries the line" `Quick
            test_bench_parse_error_line;
          Alcotest.test_case "verilog error is typed" `Quick test_verilog_parse_error;
          Alcotest.test_case "missing file is an io error" `Quick
            test_parse_file_io_error ] );
      ( "engine",
        [ Alcotest.test_case "budget exhaustion returns best feasible" `Quick
            test_engine_budget_best_feasible;
          Alcotest.test_case "starved pivot budget never raises" `Quick
            test_engine_pivot_budget_no_exception;
          Alcotest.test_case "fallback to ssp under fault" `Quick
            test_engine_fallback_to_ssp;
          Alcotest.test_case "fallback to bellman-ford under faults" `Quick
            test_engine_fallback_to_bellman_ford;
          Alcotest.test_case "all rungs failing keeps the seed" `Quick
            test_engine_all_rungs_fail;
          Alcotest.test_case "w-phase fault is survivable" `Quick
            test_engine_wphase_fault;
          Alcotest.test_case "perturbed duals are caught and routed around" `Quick
            test_engine_perturb_caught_by_checks;
          Alcotest.test_case "clean run passes all checks" `Quick
            test_engine_clean_run_passes_checks;
          Alcotest.test_case "oscillation cutoff" `Quick test_engine_oscillation_cutoff ] ) ]
