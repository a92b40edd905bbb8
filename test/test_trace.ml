(* Tests for proof-carrying engine traces (MF210-MF215): an untampered
   c432 trace audits clean, every class of single-field tamper — a
   claimed area, loosened budgets, one flow value, one arc cost, the
   schema version, a truncated file — surfaces as the right typed finding,
   the auditor fed as the run goes agrees with auditing the written file
   (also on steps tampered in memory), [Trace.run] hands each record on as
   the run produces it, every record survives the JSON print and parse bit
   for bit, and the c432 trace bytes at both granularities are pinned. *)

module Iscas85 = Minflo_netlist.Iscas85
module Netlist = Minflo_netlist.Netlist
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Sweep = Minflo_sizing.Sweep
module Minflotransit = Minflo_sizing.Minflotransit
module Tilos = Minflo_sizing.Tilos
module Perf = Minflo_robust.Perf
module Trace = Minflo_lint.Trace
module Finding = Minflo_lint.Finding
module Rule = Minflo_lint.Rule
module Report = Minflo_lint.Report
module Json = Minflo_util.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let count id findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.rule.Rule.id = id) findings)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* one engine run with the steps its [on_step] hook delivered, for the
   tests that tamper a step in memory *)
let run_with_steps ?options model ~target =
  let steps = ref [] in
  let result =
    Minflotransit.optimize ?options model ~target ~on_step:(fun s ->
        steps := s :: !steps)
  in
  (List.rev !steps, result)

(* the records of a run in trace order, built from its steps *)
let records_of model ~circuit ~target steps (result : Minflotransit.result) =
  Trace.header model ~circuit ~target
  :: Trace.tilos_record result.tilos
  :: List.map Trace.step_record steps
  @ [ Trace.final_record result ]

(* [f path] on the trace file [write] fills through the [emit] of a
   [Trace.File], as [minflo size --trace] fills it *)
let with_trace write f =
  let path = Filename.temp_file "minflo-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let file = Trace.File.create path in
      write (Trace.File.emit file);
      (match Trace.File.close file with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "trace write: %s" (Minflo_robust.Diag.to_string e));
      f path)

(* one engine run and the NDJSON bytes of its trace *)
let traced_run ?options model ~circuit ~target =
  with_trace
    (fun emit -> ignore (Trace.run ?options ~emit model ~circuit ~target))
    read_file

(* one real engine run, traced once and shared by every test *)
let fixture =
  lazy
    (let nl = Iscas85.circuit "c432" in
     let model = Elmore.of_netlist Tech.default_130nm nl in
     let target = 0.5 *. Sweep.dmin model in
     (model, target, traced_run model ~circuit:"c432" ~target))

(* ---------- byte-identity pins ---------- *)

let granular_model granularity nl =
  match granularity with
  | `Gate -> Elmore.of_netlist Tech.default_130nm nl
  | `Transistor ->
    Transistor.of_netlist Tech.default_130nm (Transform.to_nand_inv nl)

(* The exact bytes of [minflo size c432 --factor 0.6 --trace FILE], at
   gate granularity (file sha256 bf56532bdab1a0df...) and with
   [--granularity transistor] (fc601492b075b02c...). Every float sum and
   tie-break of the engine feeds these files, so any change in an
   iteration order moves the digest. *)
let test_trace_bytes_pinned granularity expect () =
  let nl = Iscas85.circuit "c432" in
  let model = granular_model granularity nl in
  let target = 0.6 *. Sweep.dmin model in
  let options = { Minflotransit.default_options with solver = `Auto } in
  let content = traced_run ~options model ~circuit:(Netlist.name nl) ~target in
  check Alcotest.string "trace md5" expect (Digest.to_hex (Digest.string content))

(* ---------- tamper machinery over the NDJSON lines ---------- *)

let lines content =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' content)

let unlines ls = String.concat "\n" ls ^ "\n"

let parse_line l =
  match Json.parse l with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable trace line: %s" e

let kind j = Option.value ~default:"" (Json.str_field "record" j)

let set_field k v = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  | j -> j

let num_field k j =
  match Json.num_field k j with
  | Some v -> v
  | None -> Alcotest.failf "field %s missing" k

(* rewrite the first line matching [sel] with [f]; fail if none matched *)
let tamper_first sel f content =
  let hit = ref false in
  let ls =
    List.map
      (fun l ->
        let j = parse_line l in
        if (not !hit) && sel j then begin
          hit := true;
          Json.to_string (f j)
        end
        else l)
      (lines content)
  in
  if not !hit then Alcotest.fail "no trace line matched the tamper selector";
  unlines ls

let has_lp j = Json.member "lp" j <> None
let is_step j = kind j = "step"

(* ---------- the tests ---------- *)

let test_untampered_is_clean () =
  let model, target, content = Lazy.force fixture in
  check bool "trace has steps" true
    (List.exists (fun l -> is_step (parse_line l)) (lines content));
  check bool "some step carries a flow certificate" true
    (List.exists
       (fun l ->
         let j = parse_line l in
         is_step j && has_lp j)
       (lines content));
  match Trace.audit model ~target content with
  | [] -> ()
  | fs -> Alcotest.failf "clean trace rejected:\n%s" (Report.render fs)

let audit_tampered tampered =
  let model, target, _ = Lazy.force fixture in
  let fs = Trace.audit model ~target tampered in
  check bool "tamper detected" true (fs <> []);
  check bool "at error severity" true (Finding.worst fs = Some Rule.Error);
  check int "exit code 2" 2 (Report.exit_code fs);
  fs

let test_tamper_claimed_area () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first is_step
      (fun j -> set_field "area" (Json.Num (num_field "area" j *. 1.01)) j)
      content
  in
  check bool "MF211 fired" true (count "MF211" (audit_tampered tampered) > 0)

(* loosened budgets still hold for the recorded sizes (MF212 stays quiet);
   only recomputing them from the step's certificate exposes the edit *)
let test_tamper_loosened_budgets () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        match Json.member "budgets" j with
        | Some (Json.List bs) ->
          set_field "budgets"
            (Json.List
               (List.map
                  (fun b ->
                    match Json.to_num b with
                    | Some f -> Json.Num (10.0 *. f)
                    | None -> b)
                  bs))
            j
        | _ -> Alcotest.fail "step without a budgets array")
      content
  in
  let fs = audit_tampered tampered in
  check int "MF212 quiet" 0 (count "MF212" fs);
  check bool "MF211 fired" true (count "MF211" fs > 0)

let test_tamper_flow_value () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        let lp =
          match Json.member "lp" j with
          | Some lp -> lp
          | None -> assert false
        in
        let flow =
          match Json.member "flow" lp with
          | Some (Json.List vs) -> vs
          | _ -> Alcotest.fail "lp has no flow array"
        in
        let bumped =
          List.mapi
            (fun i v ->
              if i = 0 then
                match v with
                | Json.Num f -> Json.Num (f +. 1.0)
                | _ -> Alcotest.fail "non-numeric flow"
              else v)
            flow
        in
        set_field "lp" (set_field "flow" (Json.List bumped) lp) j)
      content
  in
  (* a skewed flow breaks conservation at the arc's endpoints *)
  check bool "MF102 fired" true (count "MF102" (audit_tampered tampered) > 0)

let test_tamper_arc_cost () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        let lp =
          match Json.member "lp" j with
          | Some lp -> lp
          | None -> assert false
        in
        let arcs =
          match Json.member "arcs" lp with
          | Some (Json.List arcs) -> arcs
          | _ -> Alcotest.fail "lp has no arcs array"
        in
        let bumped =
          List.mapi
            (fun i arc ->
              if i = 0 then
                match arc with
                | Json.List [ s; d; c; Json.Num cost ] ->
                  Json.List [ s; d; c; Json.Num (cost +. 1.0) ]
                | _ -> Alcotest.fail "malformed arc"
              else arc)
            arcs
        in
        set_field "lp" (set_field "arcs" (Json.List bumped) lp) j)
      content
  in
  (* the rebuilt displacement LP no longer matches the recorded one *)
  check bool "MF215 fired" true (count "MF215" (audit_tampered tampered) > 0)

let test_tamper_schema_version () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> kind j = "header")
      (set_field "version" (Json.Num 999.0))
      content
  in
  check bool "MF210 fired" true (count "MF210" (audit_tampered tampered) > 0)

let test_truncated_trace () =
  let _, _, content = Lazy.force fixture in
  let ls = lines content in
  let truncated = unlines (List.filteri (fun i _ -> i < List.length ls - 1) ls) in
  check bool "MF210 fired" true (count "MF210" (audit_tampered truncated) > 0)

let test_wrong_target_rejected () =
  let model, target, content = Lazy.force fixture in
  let fs = Trace.audit model ~target:(1.1 *. target) content in
  check bool "MF210 fired" true (count "MF210" fs > 0)

let test_garbage_rejected () =
  let model, target, _ = Lazy.force fixture in
  let fs = Trace.audit model ~target "this is not json\n" in
  check bool "MF210 fired" true (count "MF210" fs > 0)

(* findings name physical file lines: a blank line still counts *)
let test_blank_line_numbering () =
  let _, _, content = Lazy.force fixture in
  let ls = lines content in
  let header = List.hd ls in
  let with_blank =
    unlines (header :: List.hd (List.tl ls) :: "" :: header :: List.tl (List.tl ls))
  in
  let fs = audit_tampered with_blank in
  check (Alcotest.list Alcotest.string) "duplicate header on line 4"
    [ "line 4: duplicate header" ]
    (List.filter_map
       (fun (f : Finding.t) ->
         if f.rule.Rule.id = "MF210" then Some f.message else None)
       fs)

(* [minflo size --check] is [--trace] followed by [audit-run]: the
   auditor fed one run's records as the run produces them agrees with the
   audit of the file the same run wrote. A step tampered in memory, before
   any text exists, goes through the record builders to both. c17 under
   Bellman-Ford accepts no step, so its trace is the seed and the final
   record alone. *)
let test_check_run_agrees ?tamper granularity ~factor ~solver circuit () =
  let nl = circuit () in
  let model = granular_model granularity nl in
  let target = factor *. Sweep.dmin model in
  let options = { Minflotransit.default_options with solver } in
  let circuit = Netlist.name nl in
  let auditor = Trace.Auditor.create model ~target in
  let write emit =
    let emit j =
      emit j;
      Trace.Auditor.feed auditor j
    in
    match tamper with
    | None -> ignore (Trace.run ~options ~emit model ~circuit ~target)
    | Some f ->
      let steps, result = run_with_steps ~options model ~target in
      let steps =
        match steps with
        | s :: rest -> f s :: rest
        | [] -> Alcotest.fail "run accepted no step"
      in
      List.iter emit (records_of model ~circuit ~target steps result)
  in
  let from_file =
    with_trace write (fun path ->
        match Trace.audit_file model ~target path with
        | Ok fs -> fs
        | Error e -> Alcotest.failf "audit: %s" (Minflo_robust.Diag.to_string e))
  in
  let in_process = Trace.Auditor.finish auditor in
  check Alcotest.string "same findings" (Report.render from_file)
    (Report.render in_process);
  check bool "findings exactly when tampered" (tamper <> None) (in_process <> [])

let c432 () = Iscas85.circuit "c432"

let tamper_area (s : Minflotransit.step) =
  { s with step_area = s.step_area *. 1.01 }

let tamper_flow (s : Minflotransit.step) =
  match s.step_certificate with
  | Some c ->
    let flow = Array.copy c.solution.flow in
    flow.(0) <- flow.(0) + 1;
    { s with
      step_certificate = Some { c with solution = { c.solution with flow } } }
  | None -> Alcotest.fail "first step has no certificate"

let tamper_nan_size (s : Minflotransit.step) =
  let sizes = Array.copy s.step_sizes in
  sizes.(0) <- Float.nan;
  { s with step_sizes = sizes }

(* ---------- codec ---------- *)

(* [Json.parse (Json.to_string r) = r], floats compared bit for bit, and
   printing is stable across the round trip *)
let rec json_bits_equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_bits_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_bits_equal x y) xs ys
  | _ -> a = b

let check_round_trip r =
  let text = Json.to_string r in
  match Json.parse text with
  | Error e -> Alcotest.failf "record does not parse back: %s" e
  | Ok back ->
    if not (json_bits_equal r back) then
      Alcotest.failf "record changed in the round trip: %s" text;
    check Alcotest.string "print is stable" text (Json.to_string back)

let run_records granularity ~factor ~solver circuit =
  let nl = circuit () in
  let model = granular_model granularity nl in
  let target = factor *. Sweep.dmin model in
  let options = { Minflotransit.default_options with solver } in
  let records = ref [] in
  ignore
    (Trace.run ~options
       ~emit:(fun j -> records := j :: !records)
       model ~circuit:(Netlist.name nl) ~target);
  List.rev !records

let test_codec_runs () =
  List.iter
    (fun (granularity, factor, solver, circuit) ->
      let rs = run_records granularity ~factor ~solver circuit in
      check bool "run has steps" true
        (List.length rs > 3 || solver = `Bellman_ford);
      List.iter check_round_trip rs)
    [ (`Gate, 0.6, `Auto, c432);
      (`Transistor, 0.6, `Auto, c432);
      (`Gate, 0.5, `Bellman_ford, Minflo_netlist.Generators.c17) ]

(* a certified step whose every float field, a few sizes and one arc and
   flow hold the values a float codec gets wrong first *)
let test_codec_edges () =
  let model = granular_model `Gate (c432 ()) in
  let target = 0.6 *. Sweep.dmin model in
  let steps, result = run_with_steps model ~target in
  let s, c =
    match
      List.find_map
        (fun (s : Minflotransit.step) ->
          Option.map (fun c -> (s, c)) s.step_certificate)
        steps
    with
    | Some sc -> sc
    | None -> Alcotest.fail "no step carries a certificate"
  in
  let edges =
    [| -0.0; 4.9e-324; 0x1p53 +. 2.0; 1e15; Float.nan; Float.infinity |]
  in
  let sizes = Array.copy s.step_sizes in
  Array.blit edges 0 sizes 0 (Array.length edges);
  let arcs = Array.copy c.problem.arcs in
  arcs.(0) <-
    { (arcs.(0)) with cost = 1 lsl 60; cap = Minflo_flow.Mcf.infinite_capacity };
  let flow = Array.copy c.solution.flow in
  flow.(0) <- (1 lsl 53) + 2;
  let r =
    Trace.step_record
      { s with
        step_eta = -0.0;
        step_predicted = 4.9e-324;
        step_area = 1e15;
        step_cp = Float.neg_infinity;
        step_sizes = sizes;
        step_certificate =
          Some
            { problem = { c.problem with arcs };
              solution = { c.solution with flow; objective = -1 } } }
  in
  (match Option.bind (Json.member "lp" r) (Json.member "arcs") with
  | Some (Json.List (Json.List [ _; _; cap; _ ] :: _)) ->
    check bool "infinite capacity is the -1 sentinel" true
      (cap = Json.Num (-1.0))
  | _ -> Alcotest.fail "lp has no arcs");
  check bool "a non-finite float is built as null" true
    (Json.member "cp" r = Some Json.Null);
  List.iter check_round_trip
    [ r; Trace.final_record { result with cp = Float.nan; area = -0.0 } ]

(* ---------- streaming ---------- *)

let dphase_solves () =
  let c = Perf.snapshot () in
  c.Perf.warm_starts + c.Perf.cold_starts

(* [Trace.run] hands each record on as the run produces it: the seed
   before the first D-phase solve, and each step after its own pass's
   solve and before the next pass's. A [Trace.run] that buffered the run and
   replayed it would hand every record on at one solve count. *)
let test_records_stream () =
  let model = granular_model `Gate (c432 ()) in
  let target = 0.5 *. Sweep.dmin model in
  let start = dphase_solves () in
  let seen = ref [] in
  let emit j = seen := (kind j, dphase_solves ()) :: !seen in
  ignore (Trace.run ~emit model ~circuit:"c432" ~target);
  match List.rev !seen with
  | ("header", h) :: ("tilos", t) :: rest ->
    check int "header before any solve" start h;
    check int "tilos before any solve" start t;
    let steps = List.filter (fun (k, _) -> k = "step") rest in
    check bool "several steps" true (List.length steps > 1);
    check int "steps then final" (List.length steps + 1) (List.length rest);
    check Alcotest.string "final last" "final" (fst (List.nth rest (List.length steps)));
    ignore
      (List.fold_left
         (fun prev (_, n) ->
           if n <= prev then
             Alcotest.failf "a step reached emit at %d solves, after %d" n prev;
           n)
         start steps)
  | _ -> Alcotest.fail "the run does not start with header and tilos"

(* [on_tilos] fires once with the seed, on a target TILOS meets and on
   one it misses; a missed seed's trace is header, tilos and final *)
let test_on_tilos_once () =
  List.iter
    (fun (circuit, factor, met) ->
      let model = granular_model `Gate (circuit ()) in
      let target = factor *. Sweep.dmin model in
      let calls = ref 0 in
      let r =
        Minflotransit.optimize model ~target ~on_tilos:(fun (t : Tilos.result) ->
            incr calls;
            check bool "seed met" met t.met)
      in
      check int "on_tilos calls" 1 !calls;
      check bool "run met" met r.met;
      let kinds = ref [] in
      ignore
        (Trace.run ~emit:(fun j -> kinds := kind j :: !kinds) model ~circuit:""
           ~target);
      if not met then
        check (Alcotest.list Alcotest.string) "unmet trace"
          [ "header"; "tilos"; "final" ] (List.rev !kinds))
    [ (c432, 0.5, true); (Minflo_netlist.Generators.c17, 0.1, false) ]

let () =
  Alcotest.run "trace"
    [ ( "clean",
        [ Alcotest.test_case "untampered c432 trace audits clean" `Quick
            test_untampered_is_clean;
          Alcotest.test_case "check_run agrees with audit-run: c432" `Quick
            (test_check_run_agrees `Gate ~factor:0.5 ~solver:`Simplex c432);
          Alcotest.test_case
            "check_run agrees with audit-run: c432 transistor" `Quick
            (test_check_run_agrees `Transistor ~factor:0.6 ~solver:`Simplex c432);
          Alcotest.test_case "check_run agrees with audit-run: c17 bf" `Quick
            (test_check_run_agrees `Gate ~factor:0.5 ~solver:`Bellman_ford
               Minflo_netlist.Generators.c17);
          Alcotest.test_case "check_run agrees with audit-run: claimed area"
            `Quick
            (test_check_run_agrees ~tamper:tamper_area `Gate ~factor:0.5
               ~solver:`Simplex c432);
          Alcotest.test_case "check_run agrees with audit-run: flow value"
            `Quick
            (test_check_run_agrees ~tamper:tamper_flow `Gate ~factor:0.5
               ~solver:`Simplex c432);
          Alcotest.test_case "check_run agrees with audit-run: nan size" `Quick
            (test_check_run_agrees ~tamper:tamper_nan_size `Gate ~factor:0.5
               ~solver:`Simplex c432) ] );
      ( "tamper",
        [ Alcotest.test_case "claimed area -> MF211" `Quick
            test_tamper_claimed_area;
          Alcotest.test_case "loosened budgets -> MF211" `Quick
            test_tamper_loosened_budgets;
          Alcotest.test_case "flow value -> MF102" `Quick test_tamper_flow_value;
          Alcotest.test_case "arc cost -> MF215" `Quick test_tamper_arc_cost;
          Alcotest.test_case "schema version -> MF210" `Quick
            test_tamper_schema_version;
          Alcotest.test_case "truncated file -> MF210" `Quick
            test_truncated_trace;
          Alcotest.test_case "foreign target -> MF210" `Quick
            test_wrong_target_rejected;
          Alcotest.test_case "garbage -> MF210" `Quick test_garbage_rejected;
          Alcotest.test_case "blank line keeps line numbers" `Quick
            test_blank_line_numbering ] );
      ( "codec",
        [ Alcotest.test_case "pinned runs round-trip bit for bit" `Quick
            test_codec_runs;
          Alcotest.test_case "edge values round-trip bit for bit" `Quick
            test_codec_edges ] );
      ( "stream",
        [ Alcotest.test_case "records reach emit as the run produces them"
            `Quick test_records_stream;
          Alcotest.test_case "on_tilos fires once, met or missed" `Quick
            test_on_tilos_once ] );
      ( "pins",
        [ Alcotest.test_case "c432 gate trace bytes" `Quick
            (test_trace_bytes_pinned `Gate "528c1fa1787a9a26eb911c3506ffe4c2");
          Alcotest.test_case "c432 transistor trace bytes" `Quick
            (test_trace_bytes_pinned `Transistor
               "0eb132a56b1821d21218630a22da47b6") ] ) ]
