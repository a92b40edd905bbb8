(* Tests for the crash-safe batch runner: checkpoint round trips and
   validation, journal crash tolerance, supervised isolation with
   retry/backoff/quarantine, bit-identical resume, and cross-solver
   differential verification. *)

module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json
module Budget = Minflo_robust.Budget
module Fault = Minflo_robust.Fault
module Generators = Minflo_netlist.Generators
module Bench_format = Minflo_netlist.Bench_format
module Minflotransit = Minflo_sizing.Minflotransit
module Tilos = Minflo_sizing.Tilos
module Job = Minflo_runner.Job
module Checkpoint = Minflo_runner.Checkpoint
module Journal = Minflo_runner.Journal
module Supervisor = Minflo_runner.Supervisor
module Differential = Minflo_runner.Differential
module Batch = Minflo_runner.Batch

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
      (Printf.sprintf "minflo-runner-%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let bits = Int64.bits_of_float

let check_float_bits name a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g (%016Lx) <> %.17g (%016Lx)" name a (bits a) b
      (bits b)

(* ---------- jobs ---------- *)

let test_job_id_and_slug () =
  let j = { Job.circuit = "c432"; factor = 0.5; solver = `Simplex } in
  check string "id" "c432@0.500/simplex" (Job.id j);
  let p = { Job.circuit = "bench/my adder.bench"; factor = 0.75; solver = `Auto } in
  let slug = Job.file_slug p in
  String.iter
    (fun c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '.' || c = '_' || c = '-'
      in
      if not ok then Alcotest.failf "slug %S has unsafe char %c" slug c)
    slug

let test_job_cross () =
  let grid =
    Job.cross ~circuits:[ "a"; "b" ] ~factors:[ 0.5; 0.8 ]
      ~solvers:[ `Simplex; `Ssp ]
  in
  check int "grid size" 8 (List.length grid);
  check string "circuits-major order" "a@0.500/simplex" (Job.id (List.hd grid));
  (* ids are unique *)
  let ids = List.sort_uniq compare (List.map Job.id grid) in
  check int "unique ids" 8 (List.length ids)

let test_job_solver_names () =
  List.iter
    (fun s ->
      match Job.solver_of_string (Job.solver_name s) with
      | Some s' -> check bool "solver name round trip" true (s = s')
      | None -> Alcotest.failf "unparsable solver name %s" (Job.solver_name s))
    [ `Auto; `Simplex; `Ssp; `Bellman_ford ]

(* ---------- checkpoints ---------- *)

let sample_checkpoint () =
  { Checkpoint.circuit = "c17";
    circuit_hash = Checkpoint.hash_netlist (Generators.c17 ());
    target = 0.1 +. 0.2 (* deliberately not representable prettily *);
    solver = "simplex";
    fault_seed = Some 42;
    snapshot =
      { Minflotransit.snap_iter = 7;
        snap_sizes = [| 1.0; Float.pi; 1e-300; 0.1; 3.3333333333333335 |];
        snap_area = 12.345678901234567;
        snap_eta = 0.125;
        snap_osc_area = 1.0000000000000002;
        snap_osc_repeats = 2;
        snap_solver = Some "ssp" };
    tilos =
      { Tilos.sizes = [| 1.1; 2.2; 4.4; 0.30000000000000004; 1.0 |];
        met = true;
        bumps = 31;
        final_cp = 0.09999999999999999;
        area = 17.5 };
    budget_iterations = 9;
    budget_pivots = 12345;
    budget_elapsed = 1.5 }

let test_checkpoint_roundtrip () =
  let dir = fresh_dir "ckpt-rt" in
  let file = Filename.concat dir "a.ckpt" in
  let ck = sample_checkpoint () in
  (match Checkpoint.save file ck with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Diag.to_string e));
  (match Checkpoint.load file with
  | Error e -> Alcotest.failf "load: %s" (Diag.to_string e)
  | Ok ck' ->
    check string "circuit" ck.circuit ck'.Checkpoint.circuit;
    check bool "hash" true (ck.circuit_hash = ck'.Checkpoint.circuit_hash);
    check string "solver" ck.solver ck'.Checkpoint.solver;
    check bool "fault seed" true (ck.fault_seed = ck'.Checkpoint.fault_seed);
    check_float_bits "target" ck.target ck'.Checkpoint.target;
    let s = ck.snapshot and s' = ck'.Checkpoint.snapshot in
    check int "iter" s.snap_iter s'.Minflotransit.snap_iter;
    check int "osc repeats" s.snap_osc_repeats s'.Minflotransit.snap_osc_repeats;
    check bool "snap solver" true (s.snap_solver = s'.Minflotransit.snap_solver);
    check_float_bits "area" s.snap_area s'.Minflotransit.snap_area;
    check_float_bits "eta" s.snap_eta s'.Minflotransit.snap_eta;
    check_float_bits "osc area" s.snap_osc_area s'.Minflotransit.snap_osc_area;
    Array.iteri
      (fun i x -> check_float_bits (Printf.sprintf "size %d" i) x
          s'.Minflotransit.snap_sizes.(i))
      s.snap_sizes;
    Array.iteri
      (fun i x -> check_float_bits (Printf.sprintf "tilos size %d" i) x
          ck'.Checkpoint.tilos.Tilos.sizes.(i))
      ck.tilos.Tilos.sizes;
    check_float_bits "tilos cp" ck.tilos.final_cp ck'.Checkpoint.tilos.Tilos.final_cp;
    check int "budget iterations" ck.budget_iterations ck'.Checkpoint.budget_iterations;
    check int "budget pivots" ck.budget_pivots ck'.Checkpoint.budget_pivots;
    check_float_bits "budget elapsed" ck.budget_elapsed ck'.Checkpoint.budget_elapsed);
  rm_rf dir

(* a version-1 checkpoint of [sample_checkpoint], as older builds wrote it *)
let v1_checkpoint =
  "minflo-checkpoint 1\n\
   circuit c17\n\
   circuit-hash 677886c4ca1aa755\n\
   target 0x1.3333333333334p-2\n\
   solver simplex\n\
   fault-seed 42\n\
   iter 7\n\
   eta 0x1p-3\n\
   area 0x1.8b0fcd32f707ap+3\n\
   osc-area 0x1.0000000000001p+0\n\
   osc-repeats 2\n\
   solver-used ssp\n\
   budget-iterations 9\n\
   budget-pivots 12345\n\
   budget-elapsed 0x1.8p+0\n\
   tilos-met true\n\
   tilos-bumps 31\n\
   tilos-cp 0x1.9999999999999p-4\n\
   tilos-area 0x1.18p+4\n\
   sizes 5 0x1p+0 0x1.921fb54442d18p+1 0x1.56e1fc2f8f359p-997 \
   0x1.999999999999ap-4 0x1.aaaaaaaaaaaabp+1\n\
   tilos-sizes 5 0x1.199999999999ap+0 0x1.199999999999ap+1 \
   0x1.199999999999ap+2 0x1.3333333333334p-2 0x1p+0\n\
   end\n"

let test_checkpoint_rejects_garbage () =
  let dir = fresh_dir "ckpt-bad" in
  let file = Filename.concat dir "bad.ckpt" in
  let rejected what text =
    let oc = open_out_bin file in
    output_string oc text;
    close_out oc;
    match Checkpoint.load file with
    | Error (Diag.Checkpoint_invalid _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" what (Diag.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception exn ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string exn)
  in
  rejected "garbage" "not a checkpoint\n";
  rejected "version 1 file" v1_checkpoint;
  rejected "other version"
    "{\"format\":\"minflo-checkpoint\",\"version\":3}";
  (* a truncated file (crash mid-write of a non-atomic copy) is rejected,
     wherever the cut falls *)
  let good = Filename.concat dir "good.ckpt" in
  (match Checkpoint.save good (sample_checkpoint ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Diag.to_string e));
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
  (* a missing or malformed field is named *)
  let member_dropped =
    match Json.parse text with
    | Ok (Json.Obj members) ->
      Json.to_string (Json.Obj (List.remove_assoc "tilos_cp" members))
    | _ -> Alcotest.fail "checkpoint is not a JSON object"
  in
  let oc = open_out_bin file in
  output_string oc member_dropped;
  close_out oc;
  (match Checkpoint.load file with
  | Error (Diag.Checkpoint_invalid { reason; _ }) ->
    check string "reason names the key" "missing field \"tilos_cp\"" reason
  | _ -> Alcotest.fail "checkpoint without tilos_cp accepted");
  (* missing file is an io error, not a crash *)
  (match Checkpoint.load (Filename.concat dir "absent.ckpt") with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "missing checkpoint accepted");
  rm_rf dir

let test_checkpoint_validate () =
  let dir = fresh_dir "ckpt-val" in
  let file = Filename.concat dir "v.ckpt" in
  let ck = sample_checkpoint () in
  let hash = ck.circuit_hash in
  (match Checkpoint.validate ~file ck ~circuit_hash:hash ~target:ck.target
           ~solver:"simplex" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid rejected: %s" (Diag.to_string e));
  (match Checkpoint.validate ~file ck ~circuit_hash:(Int64.add hash 1L)
           ~target:ck.target ~solver:"simplex" with
  | Error (Diag.Checkpoint_invalid { file = f; _ }) ->
    check string "error carries the file" file f
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "foreign circuit accepted");
  (match Checkpoint.validate ~file ck ~circuit_hash:hash ~target:ck.target
           ~solver:"ssp" with
  | Error (Diag.Checkpoint_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "wrong solver accepted");
  (match Checkpoint.validate ~file ck ~circuit_hash:hash
           ~target:(ck.target *. (1.0 +. 1e-15)) ~solver:"simplex" with
  | Error (Diag.Checkpoint_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "different target accepted");
  rm_rf dir

let test_circuit_hash_sensitivity () =
  let h8 = Checkpoint.hash_netlist (Generators.ripple_carry_adder ~bits:8 ()) in
  let h8' = Checkpoint.hash_netlist (Generators.ripple_carry_adder ~bits:8 ()) in
  let h9 = Checkpoint.hash_netlist (Generators.ripple_carry_adder ~bits:9 ()) in
  check bool "stable" true (h8 = h8');
  check bool "sensitive" true (h8 <> h9)

(* ---------- journal ---------- *)

let test_journal_completed_scan () =
  let dir = fresh_dir "journal" in
  let path = Filename.concat dir "journal.jsonl" in
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "open: %s" (Diag.to_string e)
  | Ok j ->
    Journal.event j ~job:"a@0.500/simplex"
      ~fields:[ ("area", Json.Num 12.5) ] "job-ok";
    Journal.event j ~job:"b@0.500/simplex"
      ~error:(Diag.Job_timeout { job = "b@0.500/simplex"; seconds = 1.0 })
      "job-failed";
    Journal.event j ~job:"c \"quoted\"@0.500/ssp"
      ~fields:[ ("area", Json.Num 99.0) ] "job-ok";
    Journal.close j);
  (* simulate a crash mid-append: a truncated trailing line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"event\": \"job-ok\", \"job\": \"d@0.5";
  close_out oc;
  let table = Journal.completed path in
  check int "two completed jobs" 2 (Hashtbl.length table);
  (match Hashtbl.find_opt table "a@0.500/simplex" with
  | Some a -> check_float_bits "area read back" 12.5 a
  | None -> Alcotest.fail "job a missing");
  check bool "escaped job key survives" true
    (Hashtbl.mem table "c \"quoted\"@0.500/ssp");
  check bool "failed job not completed" false (Hashtbl.mem table "b@0.500/simplex");
  (* scanning a missing journal is empty, not an error *)
  check int "missing journal" 0
    (Hashtbl.length (Journal.completed (Filename.concat dir "nope.jsonl")));
  rm_rf dir

let test_journal_torn_line_recovery () =
  let dir = fresh_dir "journal-torn" in
  let path = Filename.concat dir "journal.jsonl" in
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "open: %s" (Diag.to_string e)
  | Ok j ->
    Journal.event j ~job:"a@0.500/simplex"
      ~fields:[ ("area", Json.Num 1.0) ] "job-ok";
    Journal.close j);
  (* crash mid-append: the final line has no terminating newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"event\": \"job-ok\", \"job\": \"torn@0.5";
  close_out oc;
  (* the next open_append must seal the torn line so later events are not
     glued onto it *)
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "reopen: %s" (Diag.to_string e)
  | Ok j ->
    Journal.event j ~job:"b@0.500/simplex"
      ~fields:[ ("area", Json.Num 2.0) ] "job-ok";
    Journal.close j);
  let table = Journal.completed path in
  check int "both intact jobs completed" 2 (Hashtbl.length table);
  check bool "pre-crash job" true (Hashtbl.mem table "a@0.500/simplex");
  check bool "post-crash job" true (Hashtbl.mem table "b@0.500/simplex");
  check bool "torn job discarded" false
    (Hashtbl.fold
       (fun k _ acc ->
         acc || (String.length k >= 4 && String.sub k 0 4 = "torn"))
       table false);
  (* sealing is idempotent: a clean reopen adds nothing *)
  let size_of p = (Unix.stat p).Unix.st_size in
  let before = size_of path in
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "idempotent reopen: %s" (Diag.to_string e)
  | Ok j -> Journal.close j);
  check int "clean reopen writes nothing" before (size_of path);
  rm_rf dir

(* every value a journal line carries comes back equal, whether the parent
   wrote it or a forked worker sent it over the event pipe: escapes (a tab
   is not a "t"), a non-finite float (a string, never null) and a nested
   object *)
let test_journal_round_trip () =
  let dir = fresh_dir "journal-round-trip" in
  let path = Filename.concat dir "journal.jsonl" in
  let awkward = "a\tb \"quoted\" back\\slash unit\x1fsep" in
  let phases =
    Json.Obj [ ("dphase", Json.Num 3.0); ("wphase", Json.Num 0.5) ]
  in
  let fields =
    [ ("note", Json.Str awkward);
      ("area", Json.of_float infinity);
      ("eta", Json.of_float 0.1);
      ("phases", phases) ]
  in
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "open: %s" (Diag.to_string e)
  | Ok j ->
    Journal.event j ~job:"direct" ~fields "job-perf";
    ignore
      (Supervisor.run_all_tasks ~journal:j
         [ ( "piped",
             fun emit ->
               emit ~fields "job-perf";
               Ok () ) ]);
    Journal.close j);
  let perf = List.filter (fun (ev, _) -> ev = "job-perf") (Journal.scan path) in
  check Alcotest.(list string) "direct and piped records" [ "direct"; "piped" ]
    (List.filter_map (fun (_, j) -> Json.str_field "job" j) perf);
  List.iter
    (fun (_, j) ->
      check Alcotest.(option string) "string with escapes" (Some awkward)
        (Json.str_field "note" j);
      (match Json.float_field "area" j with
      | Some a -> check_float_bits "infinite float" infinity a
      | None -> Alcotest.fail "infinite float lost");
      (match Json.float_field "eta" j with
      | Some e -> check_float_bits "finite float" 0.1 e
      | None -> Alcotest.fail "finite float lost");
      check bool "nested object" true (Json.member "phases" j = Some phases))
    perf;
  (* a complete line in the spaced format older builds wrote, with a
     non-finite area as its "%h" string *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc
    "{\"event\": \"job-ok\", \"seq\": 9, \"t\": 0.125, \"job\": \
     \"old@0.500/simplex\", \"area\": \"infinity\", \"met\": true}\n";
  close_out oc;
  (match Hashtbl.find_opt (Journal.completed path) "old@0.500/simplex" with
  | Some a -> check_float_bits "old-format line" infinity a
  | None -> Alcotest.fail "old-format line not recovered");
  rm_rf dir

let test_checkpoint_special_floats () =
  (* the one float spelling must round-trip every float bit pattern the
     engine can produce, including the non-finite ones a diverging run
     leaves in a snapshot, through print and parse *)
  let payload_nan = Int64.float_of_bits 0x7ff8_0000_dead_beefL in
  let specials =
    [ Float.nan; payload_nan; Float.infinity; Float.neg_infinity; -0.0;
      Float.min_float; Float.max_float; 4.9e-324 (* subnormal *) ]
  in
  List.iter
    (fun f ->
      let text = Json.to_string (Json.of_float f) in
      match Result.map Json.to_float (Json.parse text) with
      | Ok (Some f') -> check_float_bits text f f'
      | _ -> Alcotest.failf "unparsable own rendering %S" text)
    specials;
  (* and through a whole checkpoint file *)
  let dir = fresh_dir "ckpt-special" in
  let file = Filename.concat dir "s.ckpt" in
  let ck = sample_checkpoint () in
  let ck =
    { ck with
      Checkpoint.snapshot =
        { ck.snapshot with
          Minflotransit.snap_sizes =
            [| Float.nan; payload_nan; Float.infinity; Float.neg_infinity;
               -0.0 |];
          snap_area = Float.infinity } }
  in
  (match Checkpoint.save file ck with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Diag.to_string e));
  (match Checkpoint.load file with
  | Error e -> Alcotest.failf "load: %s" (Diag.to_string e)
  | Ok ck' ->
    check_float_bits "inf area" ck.snapshot.snap_area
      ck'.Checkpoint.snapshot.Minflotransit.snap_area;
    Array.iteri
      (fun i x ->
        check_float_bits
          (Printf.sprintf "special size %d" i)
          x
          ck'.Checkpoint.snapshot.Minflotransit.snap_sizes.(i))
      ck.snapshot.snap_sizes);
  rm_rf dir

(* ---------- supervisor ---------- *)

let sup ?(parallel = 1) ?timeout ?(retries = 2) ?(isolate = true) ?watchdog ()
    =
  { Supervisor.parallel; timeout_seconds = timeout; retries;
    backoff_base = 0.01; isolate; watchdog_seconds = watchdog }

let test_supervisor_ok_isolated () =
  match Supervisor.run_all ~config:(sup ()) [ ("t", fun () -> Ok 42) ] with
  | [ ("t", { Supervisor.verdict = Ok v; attempts = 1; quarantined = false }) ]
    -> check int "marshalled result" 42 v
  | _ -> Alcotest.fail "unexpected outcome"

let test_supervisor_retries_transient () =
  (* fails on the first attempt, succeeds once the marker file exists;
     state is communicated through the filesystem because each attempt
     runs in its own process *)
  let dir = fresh_dir "sup-retry" in
  let marker = Filename.concat dir "attempted" in
  let thunk () =
    if Sys.file_exists marker then Ok 1
    else begin
      close_out (open_out marker);
      Error (Diag.Solver_diverged { solver = "simplex"; iters = 3 })
    end
  in
  (match Supervisor.run_all ~config:(sup ()) [ ("t", thunk) ] with
  | [ (_, { Supervisor.verdict = Ok 1; attempts = 2; quarantined = false }) ] -> ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b ok=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
      (Result.is_ok o.Supervisor.verdict)
  | _ -> Alcotest.fail "unexpected outcome");
  rm_rf dir

let test_supervisor_quarantines_structural () =
  let thunk () = Error (Diag.Unmet_target { target = 1.0; achieved = 2.0 }) in
  match Supervisor.run_all ~config:(sup ()) [ ("t", thunk) ] with
  | [ (_, { Supervisor.verdict = Error (Diag.Unmet_target _); attempts = 1;
            quarantined = true }) ] -> ()
  | _ -> Alcotest.fail "structural failure was not quarantined on sight"

let test_supervisor_quarantines_repeat_offender () =
  (* retryable error, but identical on consecutive attempts: one retry to
     observe the repetition, then quarantine without burning the rest *)
  let thunk () = Error (Diag.Solver_diverged { solver = "simplex"; iters = 3 }) in
  match Supervisor.run_all ~config:(sup ~retries:5 ()) [ ("t", thunk) ] with
  | [ (_, { Supervisor.verdict = Error (Diag.Solver_diverged _); attempts = 2;
            quarantined = true }) ] -> ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
  | _ -> Alcotest.fail "unexpected outcome"

let test_supervisor_timeout_kills () =
  let thunk () =
    while true do
      ignore (Sys.opaque_identity 0)
    done;
    Ok 0
  in
  match
    Supervisor.run_all ~config:(sup ~timeout:0.2 ~retries:0 ()) [ ("t", thunk) ]
  with
  | [ (_, { Supervisor.verdict = Error (Diag.Job_timeout _); quarantined = false;
            _ }) ] -> ()
  | [ (_, o) ] ->
    Alcotest.failf "quarantined=%b error=%s" o.Supervisor.quarantined
      (match o.Supervisor.verdict with
      | Error e -> Diag.error_code e
      | Ok _ -> "ok")
  | _ -> Alcotest.fail "unexpected outcome"

let test_supervisor_crash_is_contained () =
  let thunk () = Unix._exit 9 in
  match
    Supervisor.run_all ~config:(sup ~retries:0 ()) [ ("t", thunk) ]
  with
  | [ (_, { Supervisor.verdict = Error (Diag.Job_crashed _); _ }) ] -> ()
  | _ -> Alcotest.fail "abnormal exit not reported as a crash"

let test_supervisor_parallel_order () =
  let tasks =
    List.init 6 (fun i -> (string_of_int i, fun () -> Ok (i * i)))
  in
  let out = Supervisor.run_all ~config:(sup ~parallel:3 ()) tasks in
  check int "all ran" 6 (List.length out);
  List.iteri
    (fun i (id, o) ->
      check string "submission order" (string_of_int i) id;
      match o.Supervisor.verdict with
      | Ok v -> check int "value" (i * i) v
      | Error e -> Alcotest.failf "task %d: %s" i (Diag.to_string e))
    out

let test_supervisor_in_process_mode () =
  let calls = ref 0 in
  (* distinct (but retryable) errors on the first two attempts, so the
     repeat-offender quarantine does not kick in *)
  let thunk () =
    incr calls;
    match !calls with
    | 1 -> Error (Diag.Numeric { what = "flaky"; value = 1.0 })
    | 2 -> Error (Diag.Solver_diverged { solver = "simplex"; iters = 5 })
    | n -> Ok n
  in
  match
    Supervisor.run_all ~config:(sup ~isolate:false ~retries:5 ())
      [ ("t", thunk) ]
  with
  | [ (_, { Supervisor.verdict = Ok 3; attempts = 3; _ }) ] -> ()
  | [ (_, o) ] -> Alcotest.failf "attempts=%d" o.Supervisor.attempts
  | _ -> Alcotest.fail "unexpected outcome"

let test_supervisor_timeout_then_success () =
  (* attempt 1 wedges (and is SIGKILLed by the timeout), attempt 2 runs
     clean: a timeout is environmental, so the retry budget applies *)
  let dir = fresh_dir "sup-timeout-retry" in
  let marker = Filename.concat dir "attempted" in
  let thunk () =
    if Sys.file_exists marker then Ok 7
    else begin
      close_out (open_out marker);
      while true do
        ignore (Sys.opaque_identity 0)
      done;
      Ok 0
    end
  in
  (match
     Supervisor.run_all ~config:(sup ~timeout:0.3 ~retries:2 ()) [ ("t", thunk) ]
   with
  | [ (_, { Supervisor.verdict = Ok 7; attempts = 2; quarantined = false }) ] ->
    ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b ok=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
      (Result.is_ok o.Supervisor.verdict)
  | _ -> Alcotest.fail "unexpected outcome");
  rm_rf dir

let test_supervisor_watchdog_requeues_wedged_worker () =
  (* attempt 1 wedges with its heartbeat suppressed — the parent can only
     learn it is dead from the silence — attempt 2 runs clean *)
  let dir = fresh_dir "sup-watchdog" in
  let marker = Filename.concat dir "attempted" in
  let jpath = Filename.concat dir "journal.jsonl" in
  let journal =
    match Journal.open_append jpath with
    | Ok j -> j
    | Error e -> Alcotest.failf "journal: %s" (Diag.to_string e)
  in
  let thunk () =
    if Sys.file_exists marker then Ok 7
    else begin
      close_out (open_out marker);
      (* block SIGALRM so the heartbeat timer never fires, then hang:
         the event pipe goes silent exactly like a livelocked worker *)
      ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
      Unix.sleep 30;
      Ok 0
    end
  in
  (match
     Supervisor.run_all ~config:(sup ~watchdog:0.3 ~retries:2 ()) ~journal
       [ ("t", thunk) ]
   with
  | [ (_, { Supervisor.verdict = Ok 7; attempts = 2; quarantined = false }) ]
    -> ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b ok=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
      (Result.is_ok o.Supervisor.verdict)
  | _ -> Alcotest.fail "unexpected outcome");
  Journal.close journal;
  let events = List.map fst (Journal.scan jpath) in
  check Alcotest.bool "watchdog kill journaled" true
    (List.mem "job-watchdog-kill" events);
  check int "spawned twice" 2
    (List.length (List.filter (( = ) "job-spawn") events));
  rm_rf dir

let test_supervisor_quarantines_when_error_stabilizes () =
  (* distinct transient errors keep the retry budget alive; the moment the
     same typed code repeats on consecutive attempts, the failure counts
     as deterministic and the job is quarantined without burning the rest
     of a large budget *)
  let dir = fresh_dir "sup-stabilize" in
  let counter = Filename.concat dir "n" in
  let thunk () =
    let n =
      if Sys.file_exists counter then
        let ic = open_in counter in
        let v = int_of_string (input_line ic) in
        close_in ic;
        v
      else 0
    in
    let oc = open_out counter in
    output_string oc (string_of_int (n + 1));
    close_out oc;
    if n = 0 then Error (Diag.Numeric { what = "first"; value = 1.0 })
    else Error (Diag.Solver_diverged { solver = "simplex"; iters = n })
  in
  (match
     Supervisor.run_all ~config:(sup ~retries:10 ()) [ ("t", thunk) ]
   with
  | [ (_, { Supervisor.verdict = Error (Diag.Solver_diverged _); attempts = 3;
            quarantined = true }) ] -> ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
  | _ -> Alcotest.fail "unexpected outcome");
  rm_rf dir

let test_supervisor_sigkill_between_checkpoints_requeues () =
  (* the worker emits a checkpoint event, then dies by SIGKILL before the
     next one — exactly a mid-job machine crash. The supervisor must
     classify the crash as transient, requeue, and the retry must succeed;
     the journal must hold attempt 1's checkpoint event, the retry, and
     the final verdict in within-job order *)
  let dir = fresh_dir "sup-sigkill-ckpt" in
  let marker = Filename.concat dir "attempted" in
  let jpath = Filename.concat dir "journal.jsonl" in
  let journal =
    match Journal.open_append jpath with
    | Ok j -> j
    | Error e -> Alcotest.failf "journal: %s" (Diag.to_string e)
  in
  let thunk (emit : Supervisor.emit) =
    if Sys.file_exists marker then begin
      emit ~fields:[ ("iter", Json.Num 1.0) ] "job-checkpoint";
      Ok 99
    end
    else begin
      close_out (open_out marker);
      emit ~fields:[ ("iter", Json.Num 0.0) ] "job-checkpoint";
      (* give the parent's pipe a moment, then die like a crashed host *)
      Unix.sleepf 0.05;
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      Ok 0
    end
  in
  (match
     Supervisor.run_all_tasks ~config:(sup ~retries:2 ()) ~journal
       [ ("t", thunk) ]
   with
  | [ (_, { Supervisor.verdict = Ok 99; attempts = 2; quarantined = false }) ]
    -> ()
  | [ (_, o) ] ->
    Alcotest.failf "attempts=%d quarantined=%b ok=%b" o.Supervisor.attempts
      o.Supervisor.quarantined
      (Result.is_ok o.Supervisor.verdict)
  | _ -> Alcotest.fail "unexpected outcome");
  Journal.close journal;
  let events = List.map fst (Journal.scan jpath) in
  let expect =
    [ "job-spawn"; "job-checkpoint"; "job-retry"; "job-spawn";
      "job-checkpoint" ]
  in
  check (Alcotest.list string) "journal event order" expect events;
  rm_rf dir

(* ---------- supervisor: incremental pool ---------- *)

let test_pool_incremental_submit_and_cancel () =
  let dir = fresh_dir "pool-inc" in
  let slow = Filename.concat dir "slow-started" in
  let pool =
    Supervisor.pool_create ~config:(sup ~parallel:1 ~retries:0 ()) ()
  in
  Alcotest.(check bool) "fresh pool is idle" true (Supervisor.pool_idle pool);
  Supervisor.pool_submit pool ~id:"slow" (fun _ ->
      close_out (open_out slow);
      Unix.sleepf 5.0;
      Ok 1);
  Supervisor.pool_submit pool ~id:"queued" (fun _ -> Ok 2);
  Supervisor.pool_submit pool ~id:"third" (fun _ -> Ok 3);
  check int "load counts queued and running" 3 (Supervisor.pool_load pool);
  (* let the slow job actually start *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait_start () =
    ignore (Supervisor.pool_step pool);
    if Sys.file_exists slow then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "slow job never started"
    else begin
      Unix.sleepf 0.01;
      wait_start ()
    end
  in
  wait_start ();
  check int "one running" 1 (Supervisor.pool_running_count pool);
  (match Supervisor.pool_cancel pool "queued" with
  | `Cancelled_pending -> ()
  | _ -> Alcotest.fail "queued task should cancel from the queue");
  (match Supervisor.pool_cancel pool "slow" with
  | `Killed_running -> ()
  | _ -> Alcotest.fail "running task should be killed");
  (match Supervisor.pool_cancel pool "missing" with
  | `Not_found -> ()
  | _ -> Alcotest.fail "unknown id should be Not_found");
  let finished = ref [] in
  let rec drain () =
    finished := !finished @ Supervisor.pool_step pool;
    if not (Supervisor.pool_idle pool) then begin
      Unix.sleepf 0.01;
      drain ()
    end
  in
  drain ();
  (* cancelled-from-queue never reports; killed-running reports a crashed
     verdict without retrying; "third" completes normally *)
  let by_id id = List.assoc_opt id !finished in
  (match by_id "queued" with
  | None -> ()
  | Some _ -> Alcotest.fail "queue-cancelled task must not report");
  (match by_id "slow" with
  | Some { Supervisor.verdict = Error (Diag.Job_crashed { detail; _ });
           attempts = 1; _ } ->
    check string "cancel detail" "cancelled" detail
  | _ -> Alcotest.fail "killed task should finish as a cancelled crash");
  (match by_id "third" with
  | Some { Supervisor.verdict = Ok 3; _ } -> ()
  | _ -> Alcotest.fail "remaining task should complete");
  rm_rf dir

(* ---------- journal: single-writer advisory lock ---------- *)

let test_journal_lock_excludes_second_process () =
  let dir = fresh_dir "journal-lock" in
  let path = Filename.concat dir "journal.jsonl" in
  (match Journal.open_append path with
  | Error e -> Alcotest.failf "first open: %s" (Diag.to_string e)
  | Ok j -> (
    Journal.event j "held";
    (* POSIX record locks are per-process, so the conflict only shows from
       another process *)
    match Unix.fork () with
    | 0 ->
      let code =
        match Journal.open_append path with
        | Error (Diag.Journal_locked _) -> 0
        | Error _ -> 1
        | Ok _ -> 2
      in
      Unix._exit code
    | pid -> (
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED 1 -> Alcotest.fail "child got a non-lock error"
      | Unix.WEXITED 2 -> Alcotest.fail "child acquired the held lock"
      | _ -> Alcotest.fail "child died abnormally");
      Journal.close j;
      (* the lock dies with the holder: reopening now must succeed *)
      match Journal.open_append path with
      | Ok j2 -> Journal.close j2
      | Error e ->
        Alcotest.failf "reopen after close: %s" (Diag.to_string e))));
  rm_rf dir

(* ---------- batch: SIGTERM seals the journal ---------- *)

let test_batch_sigterm_seals_journal () =
  let dir = fresh_dir "batch-sigterm" in
  let jobs =
    [ { Job.circuit = "c432"; factor = 0.4; solver = `Simplex };
      { Job.circuit = "c432"; factor = 0.45; solver = `Simplex } ]
  in
  let cfg =
    { Batch.default_config with
      Batch.checkpoint_dir = Some dir;
      supervise = sup ~parallel:1 () }
  in
  match Unix.fork () with
  | 0 ->
    (* stdout belongs to alcotest; the batch child stays silent *)
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    ignore (Batch.run ~config:cfg jobs);
    Unix._exit 0
  | pid ->
    Unix.sleepf 0.4;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    let events = List.map fst (Journal.scan (Filename.concat dir "journal.jsonl")) in
    (match status with
    | Unix.WEXITED 143 ->
      if not (List.mem "run-interrupted" events) then
        Alcotest.failf "no run-interrupted event; got: %s"
          (String.concat ", " events)
    | Unix.WEXITED 0 ->
      (* the batch outran the signal — the seal path wasn't exercised, but
         the journal must still be complete *)
      if not (List.mem "batch-end" events) then
        Alcotest.fail "batch finished but journal has no batch-end"
    | _ -> Alcotest.fail "batch child died abnormally");
    rm_rf dir

(* ---------- batch: bit-identical resume ---------- *)

(* Interrupt a run by tripping its iteration budget (the same code path a
   SIGKILL resumes through: the last on-disk checkpoint), then resume it
   and require the final area to match the uninterrupted run bit for bit. *)
let resume_bit_identical ~name ~circuit ~factor ~interrupt_after () =
  let dir = fresh_dir name in
  let job = { Job.circuit; factor; solver = `Simplex } in
  let base_cfg = Batch.default_config in
  let baseline =
    match Batch.run_job base_cfg job with
    | Ok o -> o
    | Error e -> Alcotest.failf "baseline: %s" (Diag.to_string e)
  in
  check bool "baseline refined past the seed" true (baseline.Job.iterations > 0);
  let interrupted_cfg =
    { base_cfg with
      Batch.checkpoint_dir = Some dir;
      engine =
        { Minflotransit.default_options with
          limits = Budget.limits ~max_iterations:interrupt_after () } }
  in
  (match Batch.run_job interrupted_cfg job with
  | Error (Diag.Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "interrupt: %s" (Diag.to_string e)
  | Ok _ ->
    Alcotest.failf "run converged before the %d-pass interrupt" interrupt_after);
  let ckpt = Filename.concat dir (Job.file_slug job ^ ".ckpt") in
  check bool "interrupted run left a checkpoint" true (Sys.file_exists ckpt);
  let resumed_cfg =
    { base_cfg with Batch.checkpoint_dir = Some dir; resume = true }
  in
  (match Batch.run_job resumed_cfg job with
  | Error e -> Alcotest.failf "resume: %s" (Diag.to_string e)
  | Ok o ->
    check bool "outcome marked resumed" true o.Job.resumed;
    check bool "met" true o.Job.met;
    check_float_bits "final area (resumed vs uninterrupted)" baseline.Job.area
      o.Job.area;
    check int "iteration count" baseline.Job.iterations o.Job.iterations;
    check bool "checkpoint consumed on success" false (Sys.file_exists ckpt));
  rm_rf dir

let test_resume_iscas85 =
  resume_bit_identical ~name:"resume-c432" ~circuit:"c432" ~factor:0.6
    ~interrupt_after:2

let test_resume_generated_adder () =
  (* a generated circuit, loaded through the .bench file path route *)
  let dir = fresh_dir "resume-adder-src" in
  let file = Filename.concat dir "adder8.bench" in
  Bench_format.write_file file (Generators.ripple_carry_adder ~bits:8 ());
  resume_bit_identical ~name:"resume-adder" ~circuit:file ~factor:0.6
    ~interrupt_after:2 ();
  rm_rf dir

let test_resume_supervised_batch () =
  (* the same guarantee end to end through Batch.run: supervised children,
     journal bookkeeping, quarantine of the budget-tripped job, then a
     --resume-style second batch *)
  let dir = fresh_dir "resume-batch" in
  let job = { Job.circuit = "c17"; factor = 0.6; solver = `Simplex } in
  let baseline =
    match Batch.run_job Batch.default_config job with
    | Ok o -> o
    | Error e -> Alcotest.failf "baseline: %s" (Diag.to_string e)
  in
  let interrupted_cfg =
    { Batch.default_config with
      checkpoint_dir = Some dir;
      supervise = sup ~retries:3 ();
      engine =
        { Minflotransit.default_options with
          limits = Budget.limits ~max_iterations:2 () } }
  in
  (match Batch.run ~config:interrupted_cfg [ job ] with
  | Error e -> Alcotest.failf "interrupted batch: %s" (Diag.to_string e)
  | Ok s ->
    check int "failed" 1 s.Batch.failed;
    match s.Batch.reports with
    | [ r ] ->
      check bool "budget trip quarantined, not retried" true r.Batch.quarantined;
      check int "single attempt" 1 r.Batch.attempts
    | _ -> Alcotest.fail "expected one report");
  let resumed_cfg =
    { Batch.default_config with
      checkpoint_dir = Some dir;
      resume = true;
      supervise = sup () }
  in
  (match Batch.run ~config:resumed_cfg [ job ] with
  | Error e -> Alcotest.failf "resumed batch: %s" (Diag.to_string e)
  | Ok s -> (
    check int "ok" 1 s.Batch.ok;
    match s.Batch.reports with
    | [ { Batch.outcome = Some (Ok o); _ } ] ->
      check bool "resumed" true o.Job.resumed;
      check_float_bits "area" baseline.Job.area o.Job.area
    | _ -> Alcotest.fail "expected one successful report"));
  (* a third run skips the job entirely: the journal records it complete *)
  (match Batch.run ~config:resumed_cfg [ job ] with
  | Error e -> Alcotest.failf "skip batch: %s" (Diag.to_string e)
  | Ok s ->
    check int "skipped" 1 s.Batch.skipped;
    check int "ok" 0 s.Batch.ok);
  rm_rf dir

let test_resume_rejects_foreign_checkpoint () =
  (* checkpoint from one circuit must not seed another *)
  let dir = fresh_dir "resume-foreign" in
  let job = { Job.circuit = "c17"; factor = 0.6; solver = `Simplex } in
  let cfg =
    { Batch.default_config with
      checkpoint_dir = Some dir;
      engine =
        { Minflotransit.default_options with
          limits = Budget.limits ~max_iterations:2 () } }
  in
  (match Batch.run_job cfg job with
  | Error (Diag.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "expected a budget trip");
  (* swap in a different circuit under the same job id *)
  let evil = Filename.concat dir "evil.bench" in
  Bench_format.write_file evil (Generators.ripple_carry_adder ~bits:4 ());
  let ckpt = Filename.concat dir (Job.file_slug job ^ ".ckpt") in
  (match Checkpoint.load ckpt with
  | Error e -> Alcotest.failf "load: %s" (Diag.to_string e)
  | Ok ck ->
    (match
       Checkpoint.validate ~file:ckpt ck
         ~circuit_hash:
           (Checkpoint.hash_netlist (Generators.ripple_carry_adder ~bits:4 ()))
         ~target:ck.Checkpoint.target ~solver:"simplex"
     with
    | Error (Diag.Checkpoint_invalid _) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
    | Ok () -> Alcotest.fail "foreign checkpoint validated"));
  rm_rf dir

(* ---------- differential verification ---------- *)

let test_differential_counterpart_is_independent () =
  List.iter
    (fun s ->
      check bool
        (Printf.sprintf "counterpart of %s differs" (Job.solver_name s))
        true
        (Differential.counterpart s <> s))
    [ `Auto; `Simplex; `Ssp; `Bellman_ford ]

let test_differential_catches_seeded_fault () =
  (* primary leg runs SSP cleanly; the simplex counterpart leg is poisoned
     through the fault plan, degrades to its TILOS seed, and the area gap
     must surface as the typed differential-mismatch diagnostic *)
  let job = { Job.circuit = "c17"; factor = 0.6; solver = `Ssp } in
  let make_fault _ =
    let f = Fault.create ~seed:7 () in
    Fault.arm f ~site:"dphase.simplex"
      (Fault.Fail (Diag.Fault_injected { site = "dphase.simplex" }));
    Some f
  in
  let cfg =
    { Batch.default_config with
      supervise = sup ~isolate:false ();
      differential = true;
      fault_seed = Some 7;
      make_fault }
  in
  match Batch.run ~config:cfg [ job ] with
  | Error e -> Alcotest.failf "batch: %s" (Diag.to_string e)
  | Ok s -> (
    check int "mismatches" 1 s.Batch.mismatches;
    match s.Batch.reports with
    | [ { Batch.differential = Some (Error e); _ } ] -> (
      check string "stable code" "differential-mismatch" (Diag.error_code e);
      match e with
      | Diag.Differential_mismatch m ->
        check string "primary solver" "ssp" m.solver_a;
        check string "secondary solver" "simplex" m.solver_b;
        check bool "areas actually differ" true (m.value_a <> m.value_b)
      | _ -> Alcotest.fail "wrong constructor")
    | _ -> Alcotest.fail "expected one report with a differential verdict")

(* ---------- pre-flight lint gate ---------- *)

let cyclic_bench_file dir =
  let file = Filename.concat dir "looped.bench" in
  let oc = open_out file in
  output_string oc
    "INPUT(a)\nOUTPUT(y)\ng1 = AND(g2, a)\ng2 = AND(g1, a)\ny = NAND(g1, a)\n";
  close_out oc;
  file

let test_preflight_quarantines_lint_failure () =
  let dir = fresh_dir "preflight" in
  let file = cyclic_bench_file dir in
  (* two jobs on the same broken circuit plus one healthy one: the broken
     pair is gated before any fork (zero attempts), the healthy job runs *)
  let jobs =
    [ { Job.circuit = file; factor = 0.6; solver = `Simplex };
      { Job.circuit = file; factor = 0.8; solver = `Ssp };
      { Job.circuit = "c17"; factor = 0.6; solver = `Simplex } ]
  in
  let cfg =
    { Batch.default_config with
      checkpoint_dir = Some dir;
      supervise = sup ~isolate:false () }
  in
  (match Batch.run ~config:cfg jobs with
  | Error e -> Alcotest.failf "batch: %s" (Diag.to_string e)
  | Ok s -> (
    check int "ok" 1 s.Batch.ok;
    check int "failed" 2 s.Batch.failed;
    match s.Batch.reports with
    | [ r1; r2; r3 ] ->
      List.iter
        (fun (r : Batch.job_report) ->
          check bool "quarantined" true r.Batch.quarantined;
          check int "zero attempts: never forked" 0 r.Batch.attempts;
          match r.Batch.outcome with
          | Some (Error (Diag.Lint_error { rule; line; _ })) ->
            check string "rule" "MF001" rule;
            check int "line of the first cycle member" 3 line
          | _ -> Alcotest.fail "expected a typed lint error")
        [ r1; r2 ];
      check bool "healthy job unaffected" true
        (match r3.Batch.outcome with Some (Ok _) -> true | _ -> false)
    | _ -> Alcotest.fail "expected three reports"));
  (* the gate is journaled as its own event, distinct from job-fail *)
  let journal = In_channel.with_open_text (Filename.concat dir "journal.jsonl")
      In_channel.input_all in
  check bool "journaled" true
    (let needle = "job-lint-quarantined" in
     let lh = String.length journal and ln = String.length needle in
     let rec go i = i + ln <= lh && (String.sub journal i ln = needle || go (i + 1)) in
     go 0);
  rm_rf dir

let test_preflight_can_be_disabled () =
  let dir = fresh_dir "preflight-off" in
  let file = cyclic_bench_file dir in
  let job = { Job.circuit = file; factor = 0.6; solver = `Simplex } in
  let cfg =
    { Batch.default_config with
      supervise = sup ~isolate:false ();
      preflight = false }
  in
  (match Batch.run ~config:cfg [ job ] with
  | Error e -> Alcotest.failf "batch: %s" (Diag.to_string e)
  | Ok s -> (
    match s.Batch.reports with
    | [ r ] -> (
      (* without the gate the job reaches the supervisor, which burns an
         attempt before quarantining the (structural) parse failure *)
      check bool "still quarantined" true r.Batch.quarantined;
      check bool "attempted at least once" true (r.Batch.attempts >= 1);
      match r.Batch.outcome with
      | Some (Error (Diag.Parse_error _)) -> ()
      | _ -> Alcotest.fail "expected the elaborator's parse error")
    | _ -> Alcotest.fail "expected one report"));
  rm_rf dir

let test_differential_clean_run_agrees () =
  let job = { Job.circuit = "c17"; factor = 0.6; solver = `Simplex } in
  let cfg =
    { Batch.default_config with
      supervise = sup ~isolate:false ();
      differential = true }
  in
  match Batch.run ~config:cfg [ job ] with
  | Error e -> Alcotest.failf "batch: %s" (Diag.to_string e)
  | Ok s -> (
    check int "mismatches" 0 s.Batch.mismatches;
    match s.Batch.reports with
    | [ { Batch.differential = Some (Ok ()); _ } ] -> ()
    | _ -> Alcotest.fail "expected an agreeing differential verdict")

let () =
  Alcotest.run "runner"
    [ ( "job",
        [ Alcotest.test_case "id and slug" `Quick test_job_id_and_slug;
          Alcotest.test_case "cross grid" `Quick test_job_cross;
          Alcotest.test_case "solver names round trip" `Quick
            test_job_solver_names ] );
      ( "checkpoint",
        [ Alcotest.test_case "bit-exact round trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "garbage and truncation rejected" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "validation" `Quick test_checkpoint_validate;
          Alcotest.test_case "circuit hash sensitivity" `Quick
            test_circuit_hash_sensitivity;
          Alcotest.test_case "nan/inf round-trip bit-exact" `Quick
            test_checkpoint_special_floats ] );
      ( "journal",
        [ Alcotest.test_case "completed scan survives truncation" `Quick
            test_journal_completed_scan;
          Alcotest.test_case "torn final line sealed on reopen" `Quick
            test_journal_torn_line_recovery;
          Alcotest.test_case "journal round-trips every value" `Quick
            test_journal_round_trip;
          Alcotest.test_case "advisory lock excludes a second process" `Quick
            test_journal_lock_excludes_second_process ] );
      ( "supervisor",
        [ Alcotest.test_case "isolated success" `Quick test_supervisor_ok_isolated;
          Alcotest.test_case "transient failure retries" `Quick
            test_supervisor_retries_transient;
          Alcotest.test_case "structural failure quarantines" `Quick
            test_supervisor_quarantines_structural;
          Alcotest.test_case "repeat offender quarantines" `Quick
            test_supervisor_quarantines_repeat_offender;
          Alcotest.test_case "timeout kills the child" `Quick
            test_supervisor_timeout_kills;
          Alcotest.test_case "crash is contained" `Quick
            test_supervisor_crash_is_contained;
          Alcotest.test_case "parallel keeps submission order" `Quick
            test_supervisor_parallel_order;
          Alcotest.test_case "in-process mode" `Quick
            test_supervisor_in_process_mode;
          Alcotest.test_case "watchdog requeues a wedged worker" `Quick
            test_supervisor_watchdog_requeues_wedged_worker;
          Alcotest.test_case "timeout then success" `Quick
            test_supervisor_timeout_then_success;
          Alcotest.test_case "quarantine when the error stabilizes" `Quick
            test_supervisor_quarantines_when_error_stabilizes;
          Alcotest.test_case "sigkill between checkpoints requeues" `Quick
            test_supervisor_sigkill_between_checkpoints_requeues;
          Alcotest.test_case "incremental pool submit and cancel" `Quick
            test_pool_incremental_submit_and_cancel ] );
      ( "resume",
        [ Alcotest.test_case "bit-identical (c432)" `Slow test_resume_iscas85;
          Alcotest.test_case "bit-identical (generated adder)" `Quick
            test_resume_generated_adder;
          Alcotest.test_case "supervised batch end to end" `Quick
            test_resume_supervised_batch;
          Alcotest.test_case "foreign checkpoint rejected" `Quick
            test_resume_rejects_foreign_checkpoint;
          Alcotest.test_case "sigterm seals the journal" `Quick
            test_batch_sigterm_seals_journal ] );
      ( "preflight",
        [ Alcotest.test_case "lint failure quarantined without a fork" `Quick
            test_preflight_quarantines_lint_failure;
          Alcotest.test_case "gate can be disabled" `Quick
            test_preflight_can_be_disabled ] );
      ( "differential",
        [ Alcotest.test_case "counterpart independence" `Quick
            test_differential_counterpart_is_independent;
          Alcotest.test_case "seeded fault is caught" `Quick
            test_differential_catches_seeded_fault;
          Alcotest.test_case "clean run agrees" `Quick
            test_differential_clean_run_agrees ] ) ]
