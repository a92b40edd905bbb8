(* minflo — command-line front end for the MINFLOTRANSIT sizing library.

   Circuits are named either by an ISCAS85/adder suite entry (c432, c6288,
   adder32, ...) or by a path to a .bench / .v file.

   Failures exit with a stable code (see README "Failure modes & exit
   codes"): 0 success, 1 target/timing not met, 2 bad input (unknown
   circuit, parse error, I/O error), 3 internal error or failed invariant.
   The flags shared between commands live in {!Cli}; each command (or
   family of commands) has its own module. *)

open Cmdliner
open Minflo

let main_cmd =
  let doc = "MINFLOTRANSIT: min-cost-flow based transistor sizing" in
  Cmd.group (Cmd.info "minflo" ~version:"1.0.0" ~doc)
    [ Netlist_cmd.gen; Netlist_cmd.stats; Size_cmd.sta; Size_cmd.size;
      Size_cmd.sweep; Batch_cmd.cmd; Bench_cmd.cmd; Netlist_cmd.verify;
      Netlist_cmd.convert; Size_cmd.power; Audit_cmd.lint;
      Audit_cmd.audit_cert; Audit_cmd.audit_run; Fuzz_cmd.fuzz;
      Fuzz_cmd.replay; Serve_cmd.serve; Serve_cmd.client; Serve_cmd.loadgen;
      Serve_cmd.chaosproxy; Torture_cmd.cmd ]

let () =
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Diag.Error_exn e ->
    Fmt.epr "minflo: error [%s]: %s@." (Diag.error_code e) (Diag.to_string e);
    exit (Cli.exit_code_of_error e)
