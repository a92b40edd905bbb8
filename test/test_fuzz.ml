(* Tests for the differential fuzzing harness: fingerprint identity,
   fault-site enumeration, deterministic case generation, the
   delta-debugging shrinker's contract (keep-preservation, termination,
   budget), the reproducer corpus format, and end-to-end campaigns with
   deterministic replay. *)

module Diag = Minflo_robust.Diag
module Fault = Minflo_robust.Fault
module Netlist = Minflo_netlist.Netlist
module Bench_format = Minflo_netlist.Bench_format
module Generators = Minflo_netlist.Generators
module Fingerprint = Minflo_fuzz.Fingerprint
module Gen_mut = Minflo_fuzz.Gen_mut
module Oracle = Minflo_fuzz.Oracle
module Shrink = Minflo_fuzz.Shrink
module Corpus = Minflo_fuzz.Corpus
module Campaign = Minflo_fuzz.Campaign

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

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
      (Printf.sprintf "minflo-fuzz-%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let bench nl = Bench_format.to_string nl

(* a cheap oracle configuration: one solver, two D/W passes, no LP
   differential — fast enough to run hundreds of times in the shrink
   tests while still exercising the full TILOS + D/W path *)
let cheap_oracle ?fault_site () =
  { Oracle.default_config with
    dw_iterations = 2;
    budget_iterations = 400;
    budget_pivots = 200_000;
    solvers = [ `Simplex ];
    differential = false;
    fault_site;
    fault_seed = 3 }

let small_profile =
  { Gen_mut.max_gates = 12; max_inputs = 4; max_outputs = 3;
    mutation_rounds = 2 }

(* ---------- fingerprints ---------- *)

let test_fingerprint_roundtrip () =
  let cases =
    [ Fingerprint.make ~phase:"engine" ~code:"fault-injected"
        ~detail:"dphase.simplex" ();
      Fingerprint.make ~phase:"lint" ~code:"MF003" ();
      (* detail containing the separator must survive *)
      Fingerprint.make ~phase:"audit" ~code:"MF102" ~detail:"a/b/c" () ]
  in
  List.iter
    (fun fp ->
      match Fingerprint.of_string (Fingerprint.to_string fp) with
      | Some fp' ->
        check bool
          (Printf.sprintf "round trip %s" (Fingerprint.to_string fp))
          true
          (Fingerprint.equal fp fp')
      | None ->
        Alcotest.failf "unparsable own rendering %S"
          (Fingerprint.to_string fp))
    cases;
  check bool "phase alone is not a fingerprint" true
    (Fingerprint.of_string "engine" = None);
  check bool "empty string is not a fingerprint" true
    (Fingerprint.of_string "" = None)

let test_fingerprint_order () =
  let a = Fingerprint.make ~phase:"audit" ~code:"MF102" ~detail:"ssp" () in
  let b = Fingerprint.make ~phase:"audit" ~code:"MF102" ~detail:"ssp" () in
  let c = Fingerprint.make ~phase:"audit" ~code:"MF103" ~detail:"ssp" () in
  check bool "equal" true (Fingerprint.equal a b);
  check int "compare equal" 0 (Fingerprint.compare a b);
  check bool "code orders" true (Fingerprint.compare a c < 0);
  check bool "not equal" false (Fingerprint.equal a c)

let test_fingerprint_slug () =
  let fp =
    Fingerprint.make ~phase:"check" ~code:"invariant"
      ~detail:"wphase budgets met?!" ()
  in
  String.iter
    (fun ch ->
      let ok =
        (ch >= 'a' && ch <= 'z')
        || (ch >= 'A' && ch <= 'Z')
        || (ch >= '0' && ch <= '9')
        || ch = '.' || ch = '_' || ch = '-'
      in
      if not ok then
        Alcotest.failf "slug %S has unsafe char %c" (Fingerprint.slug fp) ch)
    (Fingerprint.slug fp)

(* ---------- fault sites ---------- *)

let test_fault_sites () =
  let pts = Fault.all_points in
  check int "seventeen instrumented sites" 17 (List.length pts);
  check bool "sorted and duplicate-free" true
    (List.sort_uniq String.compare pts = pts);
  List.iter
    (fun p ->
      check bool (Printf.sprintf "%s is known" p) true (Fault.is_known_point p))
    pts;
  check bool "bogus site rejected" false (Fault.is_known_point "bogus.site");
  check bool "prefix alone rejected" false (Fault.is_known_point "dphase");
  (* the enumeration covers both halves of the oracle's fault plan, plus
     the chaos proxy's network sites *)
  check bool "has an engine site" true (List.mem "wphase" pts);
  check bool "has an audit site" true (List.mem "audit.simplex" pts);
  check bool "has a storage site" true (List.mem "io.enospc" pts);
  check bool "has a network site" true (List.mem "net.torn-write" pts)

(* ---------- case generation ---------- *)

let test_gen_determinism () =
  for seed = 0 to 49 do
    let a = Gen_mut.case ~profile:small_profile ~seed () in
    let b = Gen_mut.case ~profile:small_profile ~seed () in
    if bench a <> bench b then
      Alcotest.failf "seed %d generated two different cases" seed
  done

let test_gen_validity () =
  (* every case elaborates and validates; the harness fuzzes the sizing
     stack, not the parser's rejection paths *)
  for seed = 0 to 99 do
    let nl = Gen_mut.case ~profile:small_profile ~seed () in
    (try Netlist.validate nl
     with exn ->
       Alcotest.failf "seed %d generated an invalid netlist: %s" seed
         (Printexc.to_string exn));
    if Netlist.gate_count nl < 1 then
      Alcotest.failf "seed %d generated a gateless netlist" seed
  done

let test_gen_boundary_shapes () =
  (* the 1-in-8 boundary cadence must actually surface extreme shapes *)
  let tiny = ref false and deep = ref false in
  for seed = 0 to 199 do
    let nl = Gen_mut.case ~profile:small_profile ~seed () in
    if Netlist.gate_count nl <= 2 then tiny := true;
    if Netlist.depth nl >= 40 then deep := true
  done;
  check bool "a near-degenerate case appeared" true !tiny;
  check bool "a deep-chain case appeared" true !deep

(* ---------- shrinking ---------- *)

(* (gates, total fanins, outputs, inputs): the lexicographic measure every
   accepted shrink step strictly decreases *)
let measure nl =
  let fanins = ref 0 in
  Netlist.iter_gates nl (fun v ->
      fanins := !fanins + List.length (Netlist.fanins nl v));
  ( Netlist.gate_count nl,
    !fanins,
    List.length (Netlist.outputs nl),
    Netlist.input_count nl )

let measure_le (a1, a2, a3, a4) (b1, b2, b3, b4) =
  compare (a1, a2, a3, a4) (b1, b2, b3, b4) <= 0

let test_shrink_terminates_and_shrinks () =
  for seed = 0 to 9 do
    let nl = Gen_mut.case ~profile:small_profile ~seed () in
    (* an always-true keep must reach a very small fixpoint *)
    let shrunk = Shrink.shrink ~max_checks:2000 ~keep:(fun _ -> true) nl in
    check bool
      (Printf.sprintf "seed %d measure never grows" seed)
      true
      (measure_le (measure shrunk) (measure nl));
    if Netlist.gate_count shrunk > 2 then
      Alcotest.failf "seed %d: trivial keep left %d gates" seed
        (Netlist.gate_count shrunk)
  done

let test_shrink_rejecting_keep_is_identity () =
  let nl = Gen_mut.case ~profile:small_profile ~seed:5 () in
  let shrunk = Shrink.shrink ~keep:(fun _ -> false) nl in
  check string "nothing accepted, input returned" (bench nl) (bench shrunk)

let test_shrink_respects_budget () =
  let nl = Gen_mut.case ~profile:small_profile ~seed:8 () in
  let calls = ref 0 in
  let keep _ = incr calls; true in
  ignore (Shrink.shrink ~max_checks:7 ~keep nl);
  check bool "keep evaluations bounded" true (!calls <= 7)

let test_shrink_preserves_keep_property () =
  (* every accepted step keeps the predicate, so the result must satisfy
     it — here a structural property the oracle-independent lattice could
     easily violate if substitution were wrong *)
  for seed = 0 to 9 do
    let nl = Gen_mut.case ~profile:small_profile ~seed () in
    let floor = min 2 (Netlist.gate_count nl) in
    let keep c = Netlist.gate_count c >= floor && Netlist.input_count c >= 1 in
    let shrunk = Shrink.shrink ~max_checks:500 ~keep nl in
    check bool (Printf.sprintf "seed %d keep holds on result" seed) true
      (keep shrunk);
    (* the result is still a valid netlist *)
    try Netlist.validate shrunk
    with exn ->
      Alcotest.failf "seed %d shrunk to an invalid netlist: %s" seed
        (Printexc.to_string exn)
  done

let test_shrink_preserves_fingerprint () =
  (* the campaign's real keep: the oracle still reports the same
     fingerprint. With a fault armed at wphase every case fails with
     engine/fault-injected/wphase, and the shrunk reproducer must too. *)
  let cfg = cheap_oracle ~fault_site:"wphase" () in
  let nl = Gen_mut.case ~profile:small_profile ~seed:1 () in
  let fps c = Oracle.fingerprints (Oracle.run cfg c) in
  match fps nl with
  | [] -> Alcotest.fail "armed fault did not fire on the original"
  | fp :: _ ->
    let keep c = List.exists (Fingerprint.equal fp) (fps c) in
    let shrunk = Shrink.shrink ~max_checks:120 ~keep nl in
    check bool "fingerprint survives shrinking" true (keep shrunk);
    check bool "shrunk is no larger" true
      (measure_le (measure shrunk) (measure nl));
    (* bit-deterministic replay: two oracle runs on the shrunk
       reproducer agree exactly *)
    let a = fps shrunk and b = fps shrunk in
    check int "replay lists same length" (List.length a) (List.length b);
    List.iter2
      (fun x y ->
        check bool "replay fingerprints identical" true (Fingerprint.equal x y))
      a b

(* ---------- corpus ---------- *)

let sample_repro () =
  { Corpus.fingerprint =
      Fingerprint.make ~phase:"engine" ~code:"fault-injected" ~detail:"wphase"
        ();
    seed = 123456789;
    config =
      { (cheap_oracle ~fault_site:"wphase" ()) with
        target_factor = 0.1 +. 0.2;  (* not prettily representable *)
        solvers = [ `Simplex; `Ssp; `Bellman_ford ] };
    netlist = Generators.c17 () }

let test_corpus_roundtrip () =
  let dir = fresh_dir "corpus-rt" in
  let r = sample_repro () in
  let path =
    match Corpus.save ~dir r with
    | Ok p -> p
    | Error e -> Alcotest.failf "save: %s" (Diag.to_string e)
  in
  (match Corpus.load path with
  | Error e -> Alcotest.failf "load: %s" (Diag.to_string e)
  | Ok r' ->
    check bool "fingerprint" true
      (Fingerprint.equal r.fingerprint r'.Corpus.fingerprint);
    check int "seed" r.seed r'.Corpus.seed;
    let c = r.config and c' = r'.Corpus.config in
    check bool "target factor bit-exact" true
      (Int64.bits_of_float c.Oracle.target_factor
      = Int64.bits_of_float c'.Oracle.target_factor);
    check int "dw iterations" c.dw_iterations c'.dw_iterations;
    check int "budget pivots" c.budget_pivots c'.budget_pivots;
    check bool "solvers" true (c.solvers = c'.solvers);
    check bool "differential" true (c.differential = c'.differential);
    check bool "fault site" true (c.fault_site = c'.fault_site);
    check string "netlist" (bench r.netlist) (bench r'.Corpus.netlist));
  rm_rf dir

(* a version-1 repro of [sample_repro], as older builds wrote it *)
let v1_repro =
  "minflo-repro 1\n\
   fingerprint engine/fault-injected/wphase\n\
   seed 123456789\n\
   target-factor 0x1.3333333333334p-2\n\
   dw-iterations 2\n\
   budget-iterations 400\n\
   budget-pivots 200000\n\
   solvers simplex ssp bellman-ford\n\
   differential false\n\
   tolerance 0x1.56e1fc2f8f359p-997\n\
   fault-site wphase\n\
   fault-seed 3\n\
   netlist 15\n\
   # c17\n\
   # 5 inputs, 2 outputs, 6 gates\n\
   INPUT(1)\n\
   INPUT(2)\n\
   INPUT(3)\n\
   INPUT(6)\n\
   INPUT(7)\n\
   OUTPUT(22)\n\
   OUTPUT(23)\n\
   10 = NAND(1, 3)\n\
   11 = NAND(3, 6)\n\
   16 = NAND(2, 11)\n\
   19 = NAND(11, 7)\n\
   22 = NAND(10, 16)\n\
   23 = NAND(16, 19)\n\
   end\n"

let test_corpus_rejects_garbage () =
  let dir = fresh_dir "corpus-bad" in
  let bad = Filename.concat dir "bad.repro" in
  let rejected what text =
    let oc = open_out_bin bad in
    output_string oc text;
    close_out oc;
    match Corpus.load bad with
    | Error (Diag.Checkpoint_invalid _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" what (Diag.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception exn ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string exn)
  in
  rejected "garbage" "not a repro\n";
  rejected "version 1 file" v1_repro;
  (* truncation (crash mid-copy) is caught by the strict parse, wherever
     the cut falls *)
  let r = sample_repro () in
  let good =
    match Corpus.save ~dir r with
    | Ok p -> p
    | Error e -> Alcotest.failf "save: %s" (Diag.to_string e)
  in
  let text =
    let ic = open_in_bin good in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  for n = 0 to String.length text - 1 do
    rejected (Printf.sprintf "%d-byte prefix" n) (String.sub text 0 n)
  done;
  (match Corpus.load (Filename.concat dir "absent.repro") with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "missing repro accepted");
  rm_rf dir

let test_corpus_list () =
  let dir = fresh_dir "corpus-list" in
  check bool "missing dir lists empty" true
    (Corpus.list (Filename.concat dir "nope") = []);
  let r = sample_repro () in
  (match Corpus.save ~dir r with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save: %s" (Diag.to_string e));
  let oc = open_out (Filename.concat dir "README") in
  output_string oc "not a repro\n";
  close_out oc;
  check int "only .repro files listed" 1 (List.length (Corpus.list dir));
  rm_rf dir

(* ---------- campaigns ---------- *)

let campaign_config ?corpus_dir ?(iterations = 6) ?fault_site () =
  { Campaign.seed = 11;
    iterations;
    oracle = cheap_oracle ?fault_site ();
    profile = small_profile;
    corpus_dir;
    known = [];
    shrink = true;
    shrink_checks = 60;
    isolate = false;
    timeout_seconds = None }

let test_campaign_deterministic () =
  let cfg = campaign_config ~fault_site:"dphase.simplex" () in
  let digest (r : Campaign.report) =
    ( r.cases,
      r.failing_cases,
      r.fresh,
      List.map
        (fun (b : Campaign.bucket) ->
          (Fingerprint.to_string b.fingerprint, b.count, b.first_seed))
        r.buckets )
  in
  check bool "two runs, same report" true
    (digest (Campaign.run cfg) = digest (Campaign.run cfg))

(* a planted fault fails the first case, so a bucket's first seed is that
   case's derived seed *)
let test_campaign_seed_derivation () =
  let first_seeds seed =
    let cfg =
      { (campaign_config ~iterations:2 ~fault_site:"wphase" ()) with
        Campaign.seed;
        shrink = false }
    in
    List.map (fun (b : Campaign.bucket) -> b.first_seed) (Campaign.run cfg).buckets
  in
  let a = first_seeds 42 in
  check bool "a bucket" true (a <> []);
  check bool "stable" true (a = first_seeds 42);
  check bool "seed-sensitive" true (a <> first_seeds 43)

let test_campaign_finds_shrinks_and_replays () =
  let dir = fresh_dir "campaign-e2e" in
  let cfg = campaign_config ~corpus_dir:dir ~fault_site:"wphase" () in
  let report = Campaign.run cfg in
  check bool "planted fault found" true (report.Campaign.fresh >= 1);
  let b =
    match
      List.find_opt
        (fun (b : Campaign.bucket) ->
          b.fingerprint.Fingerprint.code = "fault-injected")
        report.buckets
    with
    | Some b -> b
    | None -> Alcotest.fail "no fault-injected bucket"
  in
  (match b.shrunk_gates with
  | Some g -> check bool "shrunk to <= 25 gates" true (g <= 25)
  | None -> Alcotest.fail "bucket was not shrunk");
  check bool "repro replayed deterministically" true
    (b.replay_deterministic = Some true);
  let path =
    match b.repro_path with
    | Some p -> p
    | None -> Alcotest.fail "no repro written"
  in
  (match Campaign.replay path with
  | Error e -> Alcotest.failf "replay: %s" (Diag.to_string e)
  | Ok r ->
    check bool "reproduced" true r.Campaign.reproduced;
    check bool "deterministic" true r.deterministic);
  (* a second campaign over the same corpus sees the bucket as known *)
  let report2 = Campaign.run cfg in
  check int "corpus suppresses fresh" 0 report2.Campaign.fresh;
  check bool "bucket still reported" true (report2.buckets <> []);
  rm_rf dir

let test_campaign_known_list () =
  (* the audit.* sites live in the LP-differential stage, so this also
     covers the oracle's differential path end to end *)
  let cfg0 = campaign_config ~fault_site:"audit.ssp" ~iterations:3 () in
  let cfg0 =
    { cfg0 with Campaign.oracle = { cfg0.oracle with differential = true } }
  in
  let report = Campaign.run cfg0 in
  check bool "audit fault found" true (report.Campaign.fresh >= 1);
  let known =
    List.map
      (fun (b : Campaign.bucket) -> Fingerprint.to_string b.fingerprint)
      report.buckets
  in
  let report' = Campaign.run { cfg0 with known } in
  check int "known list suppresses fresh" 0 report'.Campaign.fresh

let () =
  Alcotest.run "fuzz"
    [ ( "fingerprint",
        [ Alcotest.test_case "string round trip" `Quick
            test_fingerprint_roundtrip;
          Alcotest.test_case "equality and order" `Quick test_fingerprint_order;
          Alcotest.test_case "slug is filename-safe" `Quick
            test_fingerprint_slug ] );
      ( "fault-sites",
        [ Alcotest.test_case "enumeration" `Quick test_fault_sites ] );
      ( "gen",
        [ Alcotest.test_case "deterministic in the seed" `Quick
            test_gen_determinism;
          Alcotest.test_case "cases are valid" `Quick test_gen_validity;
          Alcotest.test_case "boundary shapes appear" `Quick
            test_gen_boundary_shapes ] );
      ( "shrink",
        [ Alcotest.test_case "terminates at a small fixpoint" `Quick
            test_shrink_terminates_and_shrinks;
          Alcotest.test_case "rejecting keep returns the input" `Quick
            test_shrink_rejecting_keep_is_identity;
          Alcotest.test_case "check budget respected" `Quick
            test_shrink_respects_budget;
          Alcotest.test_case "keep property preserved" `Quick
            test_shrink_preserves_keep_property;
          Alcotest.test_case "fingerprint preserved, replay bit-identical"
            `Slow test_shrink_preserves_fingerprint ] );
      ( "corpus",
        [ Alcotest.test_case "bit-exact round trip" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "garbage and truncation rejected" `Quick
            test_corpus_rejects_garbage;
          Alcotest.test_case "listing" `Quick test_corpus_list ] );
      ( "campaign",
        [ Alcotest.test_case "deterministic in the seed" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "case-seed derivation" `Quick
            test_campaign_seed_derivation;
          Alcotest.test_case "find, shrink, replay end to end" `Slow
            test_campaign_finds_shrinks_and_replays;
          Alcotest.test_case "known list suppresses" `Slow
            test_campaign_known_list ] ) ]
