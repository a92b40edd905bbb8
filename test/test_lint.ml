(* Tests for the static analyzer (rules MF001-MF010 each triggered by a
   minimal fixture exactly once; every generator and the bundled suite
   lint-clean) and the flow-certificate auditor (rules MF101-MF105; a
   corrupted solution from each of the three solvers is rejected). *)

module Raw = Minflo_netlist.Raw
module Bench = Minflo_netlist.Bench_format
module Verilog = Minflo_netlist.Verilog_format
module Gen = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Tech = Minflo_tech.Tech
module Rule = Minflo_lint.Rule
module Finding = Minflo_lint.Finding
module Lint = Minflo_lint.Lint
module Audit = Minflo_lint.Audit
module Sarif = Minflo_lint.Sarif
module Report = Minflo_lint.Report
module Mcf = Minflo_flow.Mcf
module Simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Cost_scaling = Minflo_flow.Cost_scaling
module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let lint ?config text =
  match Bench.parse_raw_string ~name:"fixture" text with
  | Ok raw -> Lint.check ?config raw
  | Error e -> Alcotest.failf "fixture failed to parse: %s" (Diag.to_string e)

let count id findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.rule.Rule.id = id) findings)

(* ---------- the rule catalog ---------- *)

let test_catalog () =
  let find id = List.find_opt (fun (r : Rule.t) -> r.id = id) Rule.all in
  check int "twenty-six rules" 26 (List.length Rule.all);
  let ids = List.map (fun (r : Rule.t) -> r.id) Rule.all in
  check bool "ids sorted and unique" true (List.sort_uniq compare ids = ids);
  List.iter
    (fun (r : Rule.t) ->
      match find r.id with
      | Some r' -> check string ("find " ^ r.id) r.name r'.Rule.name
      | None -> Alcotest.failf "rule %s not found by id" r.id)
    Rule.all;
  check bool "unknown id" true (find "MF999" = None);
  check int "error outranks warning" 1
    (compare (Rule.severity_rank Error) (Rule.severity_rank Warning));
  check string "sarif level for info" "note" (Rule.sarif_level Info)

(* ---------- one minimal fixture per rule ---------- *)

let test_mf001_cycle () =
  let fs =
    lint
      "INPUT(a)\nOUTPUT(y)\ng1 = AND(g3, a)\ng2 = AND(g1, a)\n\
       g3 = AND(g2, a)\ny = NAND(g1, a)\n"
  in
  check int "one finding" 1 (List.length fs);
  check int "MF001 once" 1 (count "MF001" fs);
  let f = List.hd fs in
  check int "cycle members" 3 (List.length f.Finding.related);
  check int "points at first member" 3 f.Finding.loc.Raw.line;
  check bool "names the loop" true
    (contains f.Finding.message "g1 -> g2 -> g3 -> g1")

(* the exact MF001 report for two disjoint cycles, a cycle with a nested
   inner loop, a self-loop and a cycle closed through a second driver:
   the members and their order are fixed by the SCCs, not by how they are
   found *)
let test_mf001_rendered_pin () =
  let fs =
    lint
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
       p1 = AND(p2, a)\np2 = OR(p1, b)\n\
       q1 = AND(q3, a)\nq2 = AND(q1, q4)\nq3 = OR(q2, b)\nq4 = NOT(q2)\n\
       s = AND(s, a)\n\
       m = AND(a, b)\nm = OR(m2, a)\nm2 = NOT(m)\n\
       y = AND(p1, q1)\nz = OR(s, m)\n"
  in
  check string "MF001 report"
    "line 5: error MF001 (combinational-cycle): combinational cycle through \
     2 gate(s): p1 -> p2 -> p1\n\
     line 7: error MF001 (combinational-cycle): combinational cycle through \
     4 gate(s): q1 -> q2 -> q3 -> q4 -> q1\n\
     line 11: error MF001 (combinational-cycle): combinational cycle through \
     1 gate(s): s -> s\n\
     line 12: error MF001 (combinational-cycle): combinational cycle through \
     2 gate(s): m -> m2 -> m\n\
     4 error(s), 0 warning(s), 4 finding(s) total\n"
    (Report.render
       (List.filter (fun (f : Finding.t) -> f.rule.Rule.id = "MF001") fs))

let test_mf002_multi_driven () =
  let fs =
    lint "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n"
  in
  check int "one finding" 1 (List.length fs);
  check int "MF002 once" 1 (count "MF002" fs);
  check int "at the second driver" 5 (List.hd fs).Finding.loc.Raw.line

let test_mf002_input_driven () =
  let fs = lint "INPUT(a)\nINPUT(b)\nOUTPUT(b)\nb = NOT(a)\n" in
  check int "MF002 once" 1 (count "MF002" fs)

let test_mf003_undriven () =
  let fs = lint "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" in
  check int "one finding" 1 (List.length fs);
  check int "MF003 once" 1 (count "MF003" fs);
  check bool "names the signal" true
    (List.mem "ghost" (List.hd fs).Finding.related)

let test_mf004_dangling_input () =
  let fs = lint "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n" in
  check int "one finding" 1 (List.length fs);
  check int "MF004 once" 1 (count "MF004" fs);
  check int "at the declaration" 2 (List.hd fs).Finding.loc.Raw.line

let test_mf005_dead_gate () =
  let fs =
    lint "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ndead = OR(a, b)\n"
  in
  check int "one finding" 1 (List.length fs);
  check int "MF005 once" 1 (count "MF005" fs);
  check bool "names the gate" true
    (List.mem "dead" (List.hd fs).Finding.related)

(* a gate that feeds only the second driver of a multi-driven signal still
   reaches the output: MF002 names the signal, MF005 stays silent *)
let test_mf005_every_driver () =
  let fs =
    lint
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nm = AND(a, b)\nm = OR(m2, a)\n\
       m2 = NOT(b)\nz = OR(m, a)\n"
  in
  check int "one finding" 1 (List.length fs);
  check int "MF002 once" 1 (count "MF002" fs);
  check int "no MF005" 0 (count "MF005" fs)

let test_mf006_duplicate_decl () =
  let fs = lint "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" in
  check int "one finding" 1 (List.length fs);
  check int "MF006 once" 1 (count "MF006" fs)

let test_mf007_fanout_bound () =
  let text =
    "INPUT(a)\nOUTPUT(y)\nn1 = NOT(a)\nn2 = NOT(a)\nn3 = NOT(a)\n\
     y = AND(n1, n2, n3)\n"
  in
  let config = { Lint.fanout_bound = Some 2; tech = None } in
  let fs = lint ~config text in
  check int "one finding" 1 (List.length fs);
  check int "MF007 once" 1 (count "MF007" fs);
  (* the same fixture is clean under the default (unbounded) config *)
  check int "opt-in only" 0 (List.length (lint text))

let test_mf008_tech_coverage () =
  let text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n" in
  let narrow = { Tech.default_130nm with Tech.max_stack = 2 } in
  let config = { Lint.fanout_bound = None; tech = Some narrow } in
  let fs = lint ~config text in
  check int "one finding" 1 (List.length fs);
  check int "MF008 once" 1 (count "MF008" fs);
  check int "default stack admits it" 0 (List.length (lint text))

let test_mf009_empty_interface () =
  let fs = lint "INPUT(a)\n" in
  check int "MF009 once" 1 (count "MF009" fs);
  let no_inputs = lint "OUTPUT(y)\ny = AND(y, y)\n" in
  check int "MF009 for missing inputs" 1 (count "MF009" no_inputs)

let test_mf010_bad_arity () =
  let fs = lint "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n" in
  check int "one finding" 1 (List.length fs);
  check int "MF010 once" 1 (count "MF010" fs);
  let fs = lint "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n" in
  check int "MF010 for missing fanins" 1 (count "MF010" fs)

(* MF000 is the CLI's mapping of a parse failure; what the library owes it
   is a located error. Both readers must say where the text broke. *)
let test_parse_errors_are_located () =
  (match Bench.parse_raw_string "INPUT(a)\nOUTPUT(y)\ny = WIBBLE(a)\n" with
  | Error (Diag.Parse_error { line; col; _ }) ->
    check int "bench line" 3 line;
    check bool "bench col" true (col > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "unknown gate accepted");
  match
    Verilog.parse_string
      "module m(a, y);\n  input a;\n  output y;\n  always @(a) y = a;\nendmodule\n"
  with
  | Error (Diag.Parse_error { line; col; _ }) ->
    check int "verilog line" 4 line;
    check bool "verilog col" true (col > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "behavioral verilog accepted"

(* ---------- clean circuits stay clean ---------- *)

let assert_clean name nl =
  match Lint.check (Raw.of_netlist nl) with
  | [] -> ()
  | fs -> Alcotest.failf "%s not lint-clean:\n%s" name (Report.render fs)

let test_generators_lint_clean () =
  List.iter
    (fun bits ->
      assert_clean
        (Printf.sprintf "ripple%d" bits)
        (Gen.ripple_carry_adder ~bits ()))
    [ 32; 64; 128; 256 ];
  assert_clean "kogge-stone" (Gen.kogge_stone_adder ~bits:64 ());
  assert_clean "multiplier" (Gen.array_multiplier ~bits:8 ());
  assert_clean "parity" (Gen.parity_tree ~width:16 ());
  assert_clean "sec" (Gen.sec_circuit ~data_bits:16 ());
  assert_clean "alu" (Gen.alu ~width:8 ());
  assert_clean "priority" (Gen.priority_logic ~channels:8 ());
  assert_clean "mux" (Gen.mux_tree ~select_bits:4 ());
  assert_clean "comparator" (Gen.comparator ~width:8 ());
  assert_clean "random-dag"
    (Gen.random_dag ~gates:200 ~inputs:16 ~outputs:8 ~seed:42 ());
  assert_clean "c17" (Gen.c17 ())

let test_suite_lint_clean () =
  List.iter
    (fun (info : Iscas85.info) ->
      assert_clean info.name (Iscas85.circuit info.name))
    Iscas85.suite

(* ---------- the certificate auditor ---------- *)

let arc src dst cap cost = { Mcf.src; dst; cap; cost }

(* 0 -> 1 -> 2, one unit, slack capacity everywhere *)
let path_problem =
  { Mcf.num_nodes = 3;
    arcs = [| arc 0 1 2 1; arc 1 2 2 1 |];
    supply = [| 1; 0; -1 |] }

let solvers =
  [ ("simplex", fun p -> Simplex.solve p);
    ("ssp", fun p -> Ssp.solve p);
    ("cost-scaling", fun p -> Cost_scaling.solve p) ]

let test_audit_accepts_valid () =
  List.iter
    (fun (name, solve) ->
      let sol = solve path_problem in
      match Audit.check path_problem sol with
      | [] -> ()
      | fs -> Alcotest.failf "%s rejected:\n%s" name (Report.render fs))
    solvers

let test_mf101_flow_bounds () =
  let sol = Simplex.solve path_problem in
  sol.Mcf.flow.(0) <- path_problem.Mcf.arcs.(0).Mcf.cap + 5;
  check int "MF101 once" 1 (count "MF101" (Audit.check path_problem sol))

let test_mf102_conservation () =
  let sol = Simplex.solve path_problem in
  let skewed = { path_problem with Mcf.supply = [| 2; 0; -1 |] } in
  let fs = Audit.check skewed sol in
  check int "MF102 once" 1 (count "MF102" fs);
  check int "nothing else" 1 (List.length fs)

let test_mf103_slackness () =
  let sol = Simplex.solve path_problem in
  (* flow on 1 -> 2 is strictly between 0 and cap, so its reduced cost must
     be exactly zero: any nudge of the tail potential breaks one direction *)
  sol.Mcf.potential.(2) <- sol.Mcf.potential.(2) + 1;
  let fs = Audit.check path_problem sol in
  check int "MF103 once" 1 (count "MF103" fs);
  check int "nothing else" 1 (List.length fs)

let test_mf104_objective () =
  let sol = Simplex.solve path_problem in
  let lied = { sol with Mcf.objective = sol.Mcf.objective + 7 } in
  let fs = Audit.check path_problem lied in
  check int "MF104 once" 1 (count "MF104" fs);
  check int "nothing else" 1 (List.length fs)

let test_mf105_not_optimal () =
  let infeasible =
    { Mcf.num_nodes = 2; arcs = [| arc 0 1 1 1 |]; supply = [| 2; -2 |] }
  in
  let sol = Simplex.solve infeasible in
  check bool "not optimal" true (sol.Mcf.status <> Mcf.Optimal);
  let fs = Audit.check infeasible sol in
  check int "MF105 once" 1 (count "MF105" fs);
  check int "other checks skipped" 1 (List.length fs)

let test_audit_rejects_corruption_all_solvers () =
  List.iter
    (fun (name, solve) ->
      let sol = solve path_problem in
      sol.Mcf.flow.(0) <- sol.Mcf.flow.(0) + 1;
      let fs = Audit.check path_problem sol in
      check bool (name ^ " rejected") true (fs <> []);
      check bool
        (name ^ " at error severity")
        true
        (Finding.worst fs = Some Rule.Error))
    solvers

(* the displacement LP is entirely uncapacitated; cost scaling used to
   return a conservation-violating flow on such problems (the clamp in its
   solve is the fix, and this is its regression test) *)
let test_audit_uncapacitated_problem () =
  let inf = Mcf.infinite_capacity in
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 1 inf 5; arc 0 2 inf 1; arc 2 1 inf 1 |];
      supply = [| 2; -2; 0 |] }
  in
  List.iter
    (fun (name, solve) ->
      let sol = solve p in
      check int (name ^ " objective") 4 sol.Mcf.objective;
      match Audit.check p sol with
      | [] -> ()
      | fs -> Alcotest.failf "%s rejected:\n%s" name (Report.render fs))
    solvers

let test_audit_caps_violations () =
  let n = 40 in
  let arcs = Array.init n (fun i -> arc 0 1 2 (i + 1)) in
  let p = { Mcf.num_nodes = 2; arcs; supply = [| 2; -2 |] } in
  let sol = Simplex.solve p in
  Array.iteri (fun i _ -> sol.Mcf.flow.(i) <- -1) sol.Mcf.flow;
  let fs = Audit.check p sol in
  let bounds = count "MF101" fs in
  check bool "truncated" true (bounds < n);
  check bool "truncation is announced" true
    (List.exists (fun (f : Finding.t) -> contains f.Finding.message "truncated") fs)

(* ---------- rendering ---------- *)

let cycle_findings () =
  let text =
    "INPUT(a)\nOUTPUT(y)\ng1 = AND(g2, a)\ng2 = AND(g1, a)\ny = NAND(g1, a)\n"
  in
  match Bench.parse_raw_string ~name:"fixture" text with
  | Ok raw -> Lint.check { raw with Raw.file = Some "fixture.bench" }
  | Error e -> Alcotest.failf "fixture failed to parse: %s" (Diag.to_string e)

let test_report_text () =
  let fs = cycle_findings () in
  let text = Report.render fs in
  check bool "rule id" true (contains text "MF001");
  check bool "severity" true (contains text "error");
  check bool "location" true (contains text "fixture.bench:3:1");
  check bool "summary" true (contains text "1 error(s), 0 warning(s)");
  check string "clean" "no findings\n" (Report.render []);
  check int "exit 2 on error" 2 (Report.exit_code fs);
  check int "exit 0 clean" 0 (Report.exit_code [])

let test_sarif_shape () =
  (* a strict parse is the structural check: the document is one JSON
     value, braces and brackets balanced *)
  let parse doc =
    match Json.parse doc with
    | Ok j -> j
    | Error msg -> Alcotest.failf "SARIF does not parse: %s" msg
  in
  let rec at j = function
    | [] -> Some j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> at v rest)
  in
  let items j keys =
    match at j keys with Some (Json.List l) -> l | _ -> []
  in
  let run j = match items j [ "runs" ] with [ r ] -> r | _ -> Json.Null in
  let doc = parse (Sarif.render (cycle_findings ())) in
  let results = items (run doc) [ "results" ] in
  let any_result name keys v =
    check bool name true (List.exists (fun r -> at r keys = Some v) results)
  in
  check bool "version 2.1.0" true (Json.str_field "version" doc = Some "2.1.0");
  check bool "sarif-schema-2.1.0" true
    (match Json.str_field "$schema" doc with
    | Some uri -> contains uri "sarif-schema-2.1.0"
    | None -> false);
  check bool "minflo-lint" true
    (at (run doc) [ "tool"; "driver"; "name" ] = Some (Json.Str "minflo-lint"));
  any_result "ruleId MF001" [ "ruleId" ] (Json.Str "MF001");
  any_result "level error" [ "level" ] (Json.Str "error");
  check bool "startLine 3" true
    (List.exists
       (fun r ->
         List.exists
           (fun l ->
             at l [ "physicalLocation"; "region"; "startLine" ]
             = Some (Json.Num 3.0))
           (items r [ "locations" ]))
       results);
  (* the whole catalog rides along in tool.driver.rules *)
  check bool "MF105" true
    (List.exists
       (fun r -> Json.str_field "id" r = Some "MF105")
       (items (run doc) [ "tool"; "driver"; "rules" ]));
  let empty = parse (Sarif.render []) in
  check bool "empty run still a document" true
    (at (run empty) [ "results" ] = Some (Json.List []))

let () =
  Alcotest.run "lint"
    [ ( "catalog",
        [ Alcotest.test_case "rule catalog" `Quick test_catalog ] );
      ( "rules",
        [ Alcotest.test_case "MF001 combinational cycle" `Quick test_mf001_cycle;
          Alcotest.test_case "MF001 report pinned" `Quick test_mf001_rendered_pin;
          Alcotest.test_case "MF002 multi-driven" `Quick test_mf002_multi_driven;
          Alcotest.test_case "MF002 gate drives an input" `Quick
            test_mf002_input_driven;
          Alcotest.test_case "MF003 undriven" `Quick test_mf003_undriven;
          Alcotest.test_case "MF004 dangling input" `Quick
            test_mf004_dangling_input;
          Alcotest.test_case "MF005 dead gate" `Quick test_mf005_dead_gate;
          Alcotest.test_case "MF005 walks every driver" `Quick
            test_mf005_every_driver;
          Alcotest.test_case "MF006 duplicate declaration" `Quick
            test_mf006_duplicate_decl;
          Alcotest.test_case "MF007 fanout bound" `Quick test_mf007_fanout_bound;
          Alcotest.test_case "MF008 tech coverage" `Quick test_mf008_tech_coverage;
          Alcotest.test_case "MF009 empty interface" `Quick
            test_mf009_empty_interface;
          Alcotest.test_case "MF010 bad arity" `Quick test_mf010_bad_arity;
          Alcotest.test_case "parse errors carry line and column" `Quick
            test_parse_errors_are_located ] );
      ( "clean",
        [ Alcotest.test_case "all generators" `Quick test_generators_lint_clean;
          Alcotest.test_case "bundled ISCAS85 suite" `Quick
            test_suite_lint_clean ] );
      ( "audit",
        [ Alcotest.test_case "accepts valid certificates" `Quick
            test_audit_accepts_valid;
          Alcotest.test_case "MF101 flow bounds" `Quick test_mf101_flow_bounds;
          Alcotest.test_case "MF102 conservation" `Quick test_mf102_conservation;
          Alcotest.test_case "MF103 slackness" `Quick test_mf103_slackness;
          Alcotest.test_case "MF104 objective" `Quick test_mf104_objective;
          Alcotest.test_case "MF105 non-optimal status" `Quick
            test_mf105_not_optimal;
          Alcotest.test_case "corruption caught for all three solvers" `Quick
            test_audit_rejects_corruption_all_solvers;
          Alcotest.test_case "uncapacitated displacement-style LP" `Quick
            test_audit_uncapacitated_problem;
          Alcotest.test_case "violation cap announces truncation" `Quick
            test_audit_caps_violations ] );
      ( "render",
        [ Alcotest.test_case "text report" `Quick test_report_text;
          Alcotest.test_case "SARIF 2.1.0 shape" `Quick test_sarif_shape ] ) ]
