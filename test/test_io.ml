(* Storage fault injection: every io.* site is provably reachable
   (fired-count > 0) through the instrumented Io layer, and every durable
   writer — journal append, checkpoint, trace record, corpus repro, report
   file — degrades into a typed diagnostic under it: no exception escapes,
   and no half-record ever parses back as a complete one. Plus a miniature
   synthetic crash-point torture run over a journal + atomic-replace
   workload. *)

module Diag = Minflo_robust.Diag
module Fault = Minflo_robust.Fault
module Io = Minflo_robust.Io
module Torture = Minflo_robust.Torture
module Journal = Minflo_runner.Journal
module Checkpoint = Minflo_runner.Checkpoint
module Trace = Minflo_lint.Trace
module Rule = Minflo_lint.Rule
module Finding = Minflo_lint.Finding
module Corpus = Minflo_fuzz.Corpus
module Fingerprint = Minflo_fuzz.Fingerprint
module Oracle = Minflo_fuzz.Oracle
module Generators = Minflo_netlist.Generators
module Tilos = Minflo_sizing.Tilos
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Elmore = Minflo_tech.Elmore
module Tech = Minflo_tech.Tech
module Json = Minflo_util.Json

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

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
      (Printf.sprintf "minflo-io-%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Arm [sites] on the ambient Io layer, run [f], always disarm — and hand
   back the plan so callers can assert fired counts. *)
let with_fault ?count ?(after = 0) sites f =
  let plan = Fault.create ~seed:0 () in
  List.iter
    (fun site ->
      Fault.arm plan ~site ?count ~after
        (Fault.Fail (Diag.Fault_injected { site })))
    sites;
  Io.reset ();
  Io.set_fault (Some plan);
  let r =
    Fun.protect
      ~finally:(fun () ->
        Io.set_fault None;
        Io.reset ())
      f
  in
  (r, plan)

let fired plan site = Fault.fired plan ~site

(* ---------- the six io.* sites, each through a real writer ---------- *)

let test_enospc_report () =
  let dir = fresh_dir "enospc" in
  let path = Filename.concat dir "report.sarif" in
  let r, plan =
    with_fault [ "io.enospc" ] (fun () -> Io.write_file path "{\"runs\": []}")
  in
  (match r with
  | Error (Diag.Disk_full { file }) -> check bool "path" true (file = path)
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "write succeeded under enospc");
  check bool "io.enospc fired" true (fired plan "io.enospc" > 0);
  rm_rf dir

let test_short_write () =
  let dir = fresh_dir "short" in
  let path = Filename.concat dir "out.txt" in
  let r, plan =
    with_fault [ "io.short-write" ] (fun () ->
        Io.write_file path (String.make 64 'x'))
  in
  (match r with
  | Error (Diag.Io_error { msg; _ }) ->
    check bool "mentions short write" true
      (String.length msg >= 11 && String.sub msg 0 11 = "short write")
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "write succeeded under short-write");
  check bool "io.short-write fired" true (fired plan "io.short-write" > 0);
  (* the injected short write really is a prefix, not the whole payload *)
  check int "half landed" 32 (String.length (read_file path));
  rm_rf dir

let test_fsync_lost () =
  let dir = fresh_dir "fsync" in
  let path = Filename.concat dir "state.json" in
  let r, plan =
    with_fault [ "io.fsync-lost" ] (fun () -> Io.atomic_replace path "line")
  in
  (* the lie of a lost fsync: the replace claims success *)
  (match r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replace reported failure: %s" (Diag.to_string e));
  check bool "io.fsync-lost fired" true (fired plan "io.fsync-lost" > 0);
  rm_rf dir

let test_eio_read () =
  let dir = fresh_dir "eio" in
  let path = Filename.concat dir "in.txt" in
  (match Io.write_file path "content" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup write: %s" (Diag.to_string e));
  let r, plan = with_fault [ "io.eio-read" ] (fun () -> Io.read_file path) in
  (match r with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "read succeeded under eio");
  check bool "io.eio-read fired" true (fired plan "io.eio-read" > 0);
  rm_rf dir

let test_torn_rename_and_sweep () =
  let dir = fresh_dir "torn" in
  let path = Filename.concat dir "state.ckpt" in
  (match Io.atomic_replace path "old" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Diag.to_string e));
  let r, plan =
    with_fault [ "io.torn-rename" ] (fun () -> Io.atomic_replace path "new")
  in
  (match r with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "replace succeeded under torn-rename");
  check bool "io.torn-rename fired" true (fired plan "io.torn-rename" > 0);
  (* the replace never happened: the destination still holds the old
     content, and the orphaned temp file is left for the GC *)
  check bool "original intact" true (read_file path = "old");
  check bool "tmp left behind" true (Sys.file_exists (path ^ ".tmp"));
  let swept = Io.sweep_tmp dir in
  check bool "sweep removed it" true (swept = [ path ^ ".tmp" ]);
  check bool "tmp gone" true (not (Sys.file_exists (path ^ ".tmp")));
  check bool "original still intact" true (read_file path = "old");
  rm_rf dir

let test_crash_freezes_layer () =
  let dir = fresh_dir "crash" in
  let path = Filename.concat dir "a.txt" in
  let r, plan =
    with_fault ~count:1 [ "io.crash-after-write" ] (fun () ->
        (match Io.write_file path "first" with
        | exception Io.Simulated_crash _ -> ()
        | _ -> Alcotest.fail "crash did not fire");
        check bool "layer frozen" true (Io.crashed ());
        (* even if some catch-all swallowed the crash, every further
           instrumented op re-raises: the disk state is pinned *)
        match Io.write_file (Filename.concat dir "b.txt") "second" with
        | exception Io.Simulated_crash _ -> ()
        | _ -> Alcotest.fail "frozen layer accepted a write")
  in
  r;
  check bool "io.crash-after-write fired" true
    (fired plan "io.crash-after-write" > 0);
  (* clean crash mode: the write itself completed before the death *)
  check bool "write landed before crash" true (read_file path = "first");
  check bool "reset unfreezes" true (not (Io.crashed ()));
  rm_rf dir

(* ---------- journal under storage faults ---------- *)

let test_journal_enospc () =
  let dir = fresh_dir "journal-enospc" in
  let path = Filename.concat dir "journal.jsonl" in
  let jr =
    match Journal.open_append path with
    | Ok jr -> jr
    | Error e -> Alcotest.failf "open: %s" (Diag.to_string e)
  in
  Journal.event jr ~job:"a" "job-start";
  let (), plan =
    with_fault [ "io.enospc" ] (fun () ->
        (match Journal.event_checked jr ~job:"a" "job-ok" with
        | Error (Diag.Disk_full _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
        | Ok () -> Alcotest.fail "append succeeded under enospc");
        (* the unchecked variant must swallow the failure but remember it *)
        Journal.event jr ~job:"a" "job-retry";
        match Journal.last_error jr with
        | Some (Diag.Disk_full _) -> ()
        | _ -> Alcotest.fail "last_error not sticky")
  in
  check bool "io.enospc fired" true (fired plan "io.enospc" > 0);
  Journal.event jr ~job:"a" "job-done";
  Journal.close jr;
  (* only the writes that landed are visible; nothing half-written *)
  let events = List.map fst (Journal.scan path) in
  check bool "events" true (events = [ "job-start"; "job-done" ]);
  rm_rf dir

let test_journal_drops_torn_lines () =
  let dir = fresh_dir "journal-torn" in
  let path = Filename.concat dir "journal.jsonl" in
  let jr =
    match Journal.open_append path with
    | Ok jr -> jr
    | Error e -> Alcotest.failf "open: %s" (Diag.to_string e)
  in
  Journal.event jr ~job:"a" "job-ok";
  Journal.close jr;
  (* a crash mid-write tears the line anywhere — including right after an
     embedded object's closing brace, where a naive trailing-'}' test
     would accept the prefix as a complete record *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"event\": \"job-ok\", \"error\": {\"code\": \"numeric\"}";
  close_out oc;
  check int "torn line dropped" 1 (List.length (Journal.scan path));
  (* reopening seals the torn line; it must stay dropped, not become a
     parseable half-record *)
  (match Journal.open_append path with
  | Ok jr -> Journal.close jr
  | Error e -> Alcotest.failf "reopen: %s" (Diag.to_string e));
  check int "still dropped after seal" 1 (List.length (Journal.scan path));
  (* and a fresh append after the seal is intact *)
  (match Journal.open_append path with
  | Ok jr ->
    Journal.event jr ~job:"b" "job-start";
    Journal.close jr
  | Error e -> Alcotest.failf "reopen: %s" (Diag.to_string e));
  let events = List.map fst (Journal.scan path) in
  check bool "sealed journal appends cleanly" true
    (events = [ "job-ok"; "job-start" ]);
  rm_rf dir

let test_journal_sweeps_stale_tmp () =
  let dir = fresh_dir "journal-sweep" in
  let sub = Filename.concat dir "jobs" in
  Unix.mkdir sub 0o755;
  let stale = Filename.concat sub "c17.ckpt.tmp" in
  (match Io.write_file stale "orphan" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Diag.to_string e));
  let path = Filename.concat dir "journal.jsonl" in
  (match Journal.open_append path with
  | Ok jr -> Journal.close jr
  | Error e -> Alcotest.failf "open: %s" (Diag.to_string e));
  check bool "stale tmp swept on open" true (not (Sys.file_exists stale));
  (* the sweep is journaled, naming what it removed *)
  (match Journal.scan path with
  | [ ("tmp-swept", j) ] ->
    check bool "names the orphan" true (Json.int_field "count" j = Some 1)
  | other -> Alcotest.failf "expected one tmp-swept event, got %d" (List.length other));
  rm_rf dir

(* ---------- checkpoint under storage faults ---------- *)

let sample_checkpoint () =
  { Checkpoint.circuit = "c17";
    circuit_hash = Checkpoint.hash_netlist (Generators.c17 ());
    target = 0.1 +. 0.2;
    solver = "simplex";
    fault_seed = None;
    snapshot =
      { Minflotransit.snap_iter = 3;
        snap_sizes = [| 1.0; 2.0; 3.0 |];
        snap_area = 6.0;
        snap_eta = 0.125;
        snap_osc_area = 1.0;
        snap_osc_repeats = 0;
        snap_solver = Some "simplex" };
    tilos =
      { Tilos.sizes = [| 1.0; 1.0; 1.0 |];
        met = true;
        bumps = 2;
        final_cp = 0.5;
        area = 3.0 };
    budget_iterations = 3;
    budget_pivots = 100;
    budget_elapsed = 0.25 }

let test_checkpoint_typed_failures () =
  let dir = fresh_dir "ckpt" in
  let file = Filename.concat dir "c17.ckpt" in
  let ck = sample_checkpoint () in
  (match Checkpoint.save file ck with
  | Ok () -> ()
  | Error e -> Alcotest.failf "baseline save: %s" (Diag.to_string e));
  (* disk full: typed, and the previous checkpoint survives untouched *)
  let r, plan =
    with_fault [ "io.enospc" ] (fun () ->
        Checkpoint.save file { ck with budget_iterations = 99 })
  in
  (match r with
  | Error (Diag.Disk_full _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "save succeeded under enospc");
  check bool "io.enospc fired" true (fired plan "io.enospc" > 0);
  check bool "no tmp litter" true (not (Sys.file_exists (file ^ ".tmp")));
  (match Checkpoint.load file with
  | Ok ck' -> check int "old checkpoint intact" 3 ck'.Checkpoint.budget_iterations
  | Error e -> Alcotest.failf "reload: %s" (Diag.to_string e));
  (* torn rename: same story, plus the orphan is left for the sweeper *)
  let r, _ =
    with_fault [ "io.torn-rename" ] (fun () ->
        Checkpoint.save file { ck with budget_iterations = 77 })
  in
  (match r with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "save succeeded under torn-rename");
  check bool "orphan tmp present" true (Sys.file_exists (file ^ ".tmp"));
  (match Checkpoint.load file with
  | Ok ck' -> check int "old checkpoint still intact" 3 ck'.Checkpoint.budget_iterations
  | Error e -> Alcotest.failf "reload: %s" (Diag.to_string e));
  (* an unreadable disk is a typed read failure *)
  let r, _ = with_fault [ "io.eio-read" ] (fun () -> Checkpoint.load file) in
  (match r with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "load succeeded under eio");
  rm_rf dir

(* ---------- trace writer under storage faults ---------- *)

let test_trace_fails_flag_not_run () =
  let nl = Generators.c17 () in
  let model = Elmore.of_netlist Tech.default_130nm nl in
  let target = 0.6 *. Sweep.dmin model in
  let result = Minflotransit.optimize model ~target in
  let dir = fresh_dir "trace" in
  let path = Filename.concat dir "trace.jsonl" in
  (* the header lands; then the disk starts tearing writes *)
  let r, plan =
    with_fault ~after:1 [ "io.short-write" ] (fun () ->
        Trace.write_run path model ~circuit:"c17" ~target ~steps:[] result)
  in
  check bool "io.short-write fired" true (fired plan "io.short-write" > 0);
  (match r with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "writer did not report the failure");
  (* the surviving prefix audits as truncation damage (MF210) — the torn
     half-line never parses into a bogus record or claim *)
  (match Trace.audit_file model ~target path with
  | Error e -> Alcotest.failf "audit_file: %s" (Diag.to_string e)
  | Ok [] -> Alcotest.fail "truncated trace audited clean"
  | Ok fs ->
    List.iter
      (fun (f : Finding.t) ->
        check bool "only MF210" true (f.rule.Rule.id = "MF210"))
      fs);
  rm_rf dir

(* ---------- corpus under storage faults ---------- *)

let test_corpus_enospc () =
  let dir = fresh_dir "corpus" in
  let repro =
    { Corpus.fingerprint =
        Fingerprint.make ~phase:"engine" ~code:"numeric" ~detail:"wphase" ();
      seed = 42;
      config = Oracle.default_config;
      netlist = Generators.c17 () }
  in
  let r, plan =
    with_fault [ "io.enospc" ] (fun () -> Corpus.save ~dir repro)
  in
  (match r with
  | Error (Diag.Disk_full _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok p -> Alcotest.failf "save succeeded under enospc: %s" p);
  check bool "io.enospc fired" true (fired plan "io.enospc" > 0);
  check bool "no repro litter" true (Corpus.list dir = []);
  (* fault cleared: the same save lands *)
  (match Corpus.save ~dir repro with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean save: %s" (Diag.to_string e));
  (* a corpus directory under a regular file cannot be created: typed *)
  let file = Filename.concat dir "plain-file" in
  close_out (open_out file);
  (match Corpus.save ~dir:(Filename.concat file "corpus") repro with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok p -> Alcotest.failf "save under a regular file succeeded: %s" p);
  rm_rf dir

(* ---------- EINTR-retrying primitives ---------- *)

let test_retry_helpers_roundtrip () =
  let r, w = Unix.pipe () in
  Io.really_write_substring w "hello";
  Unix.close w;
  let buf = Bytes.create 16 in
  let n = Io.read_retry r buf 0 16 in
  check int "read it back" 5 n;
  check bool "payload" true (Bytes.sub_string buf 0 n = "hello");
  check int "eof" 0 (Io.read_retry r buf 0 16);
  Unix.close r

(* ---------- miniature torture run ---------- *)

let test_mini_torture () =
  let dir = fresh_dir "torture" in
  let journal = Filename.concat dir "journal.jsonl" in
  let state = Filename.concat dir "state.txt" in
  let setup () =
    rm_rf dir;
    Unix.mkdir dir 0o755
  in
  let workload () =
    (match Journal.open_append journal with
    | Error e -> raise (Diag.Error_exn e)
    | Ok jr ->
      Journal.event jr ~job:"x" "job-start";
      (match Io.atomic_replace state "v1" with
      | Ok () -> ()
      | Error e -> raise (Diag.Error_exn e));
      Journal.event jr ~job:"x" "job-checkpoint";
      (match Io.atomic_replace state "v2" with
      | Ok () -> ()
      | Error e -> raise (Diag.Error_exn e));
      Journal.event jr ~job:"x" "job-ok";
      Journal.close jr)
  in
  let verify ~boundary:_ ~mode:_ =
    let violations = ref [] in
    let add fmt =
      Printf.ksprintf (fun s -> violations := s :: !violations) fmt
    in
    (* every newline-terminated journal line parses (only the crash's own
       write may be torn, and it never got its newline); surviving state
       is a version the workload actually wrote (atomic replace never
       shows a mix) *)
    if Sys.file_exists journal then begin
      let lines = String.split_on_char '\n' (read_file journal) in
      let complete = List.length lines - 1 in
      List.iteri
        (fun i line ->
          if i < complete then
            match Json.parse line with
            | Ok _ -> ()
            | Error m -> add "unparseable journal line (%s): %s" m line)
        lines
    end;
    if Sys.file_exists state then begin
      let c = read_file state in
      if c <> "v1" && c <> "v2" then add "state file torn: %S" c
    end;
    (* reopen sweeps any orphaned tmp *)
    (match Journal.open_append journal with
    | Ok jr -> Journal.close jr
    | Error e -> add "reopen: %s" (Diag.to_string e));
    if Sys.file_exists (state ^ ".tmp") then add "stale tmp survived reopen";
    List.rev !violations
  in
  (match Torture.run ~setup ~workload ~verify () with
  | Error e -> Alcotest.failf "torture: %s" (Diag.to_string e)
  | Ok report ->
    check bool "counted boundaries" true (report.Torture.total_boundaries > 4);
    check bool "every sim crashed" true
      (Torture.crash_points report = List.length report.Torture.sims);
    (match Torture.violations report with
    | [] -> ()
    | (s, v) :: _ ->
      Alcotest.failf "violation at boundary %d (%s): %s" s.Torture.sim_boundary
        (Torture.mode_to_string s.Torture.sim_mode)
        v));
  rm_rf dir

let () =
  Alcotest.run "io"
    [ ( "sites",
        [ Alcotest.test_case "enospc -> typed disk-full" `Quick
            test_enospc_report;
          Alcotest.test_case "short write -> typed io-error" `Quick
            test_short_write;
          Alcotest.test_case "fsync-lost claims success" `Quick test_fsync_lost;
          Alcotest.test_case "eio on read -> typed io-error" `Quick
            test_eio_read;
          Alcotest.test_case "torn rename leaves tmp, sweep collects" `Quick
            test_torn_rename_and_sweep;
          Alcotest.test_case "crash freezes the layer" `Quick
            test_crash_freezes_layer ] );
      ( "writers",
        [ Alcotest.test_case "journal append under enospc" `Quick
            test_journal_enospc;
          Alcotest.test_case "journal drops torn lines" `Quick
            test_journal_drops_torn_lines;
          Alcotest.test_case "journal sweeps stale tmp on open" `Quick
            test_journal_sweeps_stale_tmp;
          Alcotest.test_case "checkpoint failures are typed" `Quick
            test_checkpoint_typed_failures;
          Alcotest.test_case "trace failure hits the flag, not the run" `Quick
            test_trace_fails_flag_not_run;
          Alcotest.test_case "corpus save under enospc" `Quick
            test_corpus_enospc ] );
      ( "primitives",
        [ Alcotest.test_case "EINTR-retrying read/write round trip" `Quick
            test_retry_helpers_roundtrip ] );
      ( "torture",
        [ Alcotest.test_case "mini journal+checkpoint torture run" `Quick
            test_mini_torture ] ) ]
