(* The shared parts of the minflo command line: every flag that two
   commands accept is defined here once, with the helpers that turn its
   value into the library's types. A flag only one command accepts lives
   with that command. *)

open Cmdliner
open Minflo

let exit_code_of_error (e : Diag.error) =
  match e with
  | Diag.Parse_error _ | Diag.Lint_error _ | Diag.Unknown_circuit _
  | Diag.Io_error _ | Diag.Disk_full _ | Diag.Storage_corrupt _
  | Diag.Checkpoint_invalid _ | Diag.Journal_locked _ -> 2
  | Diag.Unmet_target _ | Diag.Infeasible_target _ | Diag.Unsafe_timing _
  | Diag.Infeasible_budget _
  | Diag.Budget_exhausted _ | Diag.Job_timeout _
  | Diag.Overloaded _ | Diag.Draining | Diag.Connect_refused _
  | Diag.Net_timeout _ -> 1
  | Diag.Solver_diverged _ | Diag.Numeric _ | Diag.Invariant _
  | Diag.Fault_injected _ | Diag.Differential_mismatch _ | Diag.Job_crashed _
  | Diag.Torn_response _ | Diag.Internal _ -> 3

(* [invariant what "fmt" args] fails the command with a typed invariant
   error (exit 3) whose detail is the formatted message. *)
let invariant what fmt =
  Printf.ksprintf (fun detail -> Diag.fail (Diag.Invariant { what; detail })) fmt

(* ---------- circuit, model and delay target ---------- *)

(* raising variant for command bodies; the typed error is rendered and
   mapped to an exit code at the top level. *)
let or_fail = function Ok v -> v | Error e -> Diag.fail e

let circuit spec = or_fail (Job.load_circuit spec)

let circuit_arg =
  let doc =
    "Circuit: a .bench/.v file path or a built-in suite name (c432 .. c7552, \
     adder32, adder256, plus c17)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let model_arg =
  let doc = "Sizing granularity: gate (default) or transistor." in
  Arg.(value & opt (enum [ ("gate", `Gate); ("transistor", `Transistor) ]) `Gate
       & info [ "granularity"; "g" ] ~doc)

let factor_arg =
  let doc = "Delay target as a fraction of the minimum-size circuit delay." in
  Arg.(value & opt float 0.5 & info [ "factor"; "f" ] ~doc)

type target = {
  nl : Netlist.t;
  model : Delay_model.t;
  factor : float;
  dmin : float;  (** minimum-size critical path *)
  target : float;  (** [factor *. dmin] *)
}

let build_model granularity nl =
  let tech = Tech.default_130nm in
  match granularity with
  | `Gate -> Model_cache.model ~tech nl
  | `Transistor -> Transistor.of_netlist tech (Transform.to_nand_inv nl)

let target_of ?(granularity = `Gate) nl ~factor =
  let model = build_model granularity nl in
  let dmin = Sweep.dmin model in
  { nl; model; factor; dmin; target = factor *. dmin }

(* CIRCUIT, --granularity and --factor, elaborated. The circuit is loaded
   while the term is evaluated, and cmdliner evaluates a command's terms
   left to right, so a command applies this one last: every other flag is
   converted, and a bad one rejected, before any work starts. *)
let target_term =
  Term.(const (fun granularity factor spec ->
            target_of ~granularity (circuit spec) ~factor)
        $ model_arg $ factor_arg $ circuit_arg)

let factors_arg default =
  Arg.(value & opt (list float) default
       & info [ "factors" ] ~doc:"Comma-separated delay factors.")

(* ---------- engine options ---------- *)

(* the spellings of the serve protocol and of batch job ids *)
let solver_conv =
  let parse s =
    match Dphase.solver_of_string s with
    | Some solver -> Ok solver
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown solver %S; expected auto, simplex, ssp or \
               bf (bellman-ford)"
              s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Dphase.solver_name s))

let solver_arg =
  let doc =
    "D-phase LP solver: $(b,auto) (fallback chain simplex, then SSP, then \
     Bellman-Ford feasibility repair), $(b,simplex), $(b,ssp) or $(b,bf)."
  in
  Arg.(value & opt solver_conv `Auto & info [ "solver" ] ~doc)

let solvers_arg ~doc default =
  Arg.(value & opt (list solver_conv) default & info [ "solvers" ] ~doc)

(* --max-seconds, --max-iterations and --max-pivots, unconverted *)
let budget_term =
  let max_seconds =
    Arg.(value & opt (some float) None
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Wall-clock budget for the whole run; on exhaustion the \
                   best feasible sizing found so far is returned, flagged.")
  in
  let max_iterations =
    Arg.(value & opt (some int) None
         & info [ "max-iterations" ] ~docv:"N"
             ~doc:"Budget on outer iterations (TILOS bumps + D/W rounds).")
  in
  let max_pivots =
    Arg.(value & opt (some int) None
         & info [ "max-pivots" ] ~docv:"N"
             ~doc:"Budget on cumulative flow-solver pivots.")
  in
  Term.(const (fun s i p -> (s, i, p)) $ max_seconds $ max_iterations
        $ max_pivots)

let limits_term =
  Term.(const (fun (wall_seconds, max_iterations, max_pivots) ->
            Budget.limits ?wall_seconds ?max_iterations ?max_pivots ())
        $ budget_term)

(* ---------- fault injection ---------- *)

(* every --inject-fault argument, on every subcommand, is validated against
   the catalog of instrumented sites at parse time *)
let fault_site_conv =
  let parse s =
    if Fault.is_known_point s then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown fault site %S; known sites: %s" s
              (String.concat ", " Fault.all_points)))
  in
  Arg.conv (parse, Fmt.string)

let fault_count_arg =
  Arg.(value & opt (some int) None
       & info [ "fault-count" ] ~docv:"N"
           ~doc:"Fire each injected site at most $(docv) times (default: \
                 every hit).")

let fault_seed_arg =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for the --inject-fault plan (recorded in checkpoints \
                 and reproducers).")

type faults = { sites : string list; count : int option; after : int }

let faults_term =
  let sites =
    Arg.(value & opt_all fault_site_conv []
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Inject a deterministic failure at an instrumented site \
                   (dphase.simplex, dphase.ssp, dphase.bellman-ford, wphase, \
                   io.enospc, io.torn-rename, ...); repeatable. Engine sites \
                   exercise the fallback chain and budget paths; io.* sites \
                   exercise the storage layer every durable writer goes \
                   through. See $(b,minflo fuzz --list-faults) for the full \
                   catalog.")
  in
  let after =
    Arg.(value & opt int 0
         & info [ "fault-after" ] ~docv:"K"
             ~doc:"Skip the first $(docv) hits of each injected site before \
                   firing; with io.crash-after-write and --fault-count 1 this \
                   selects the exact write boundary the simulated crash lands \
                   on.")
  in
  Term.(const (fun sites count after -> { sites; count; after }) $ sites
        $ fault_count_arg $ after)

(* Engine sites travel inside the per-run [Fault.t] this returns; "io.*"
   sites arm the ambient storage layer instead, so every durable writer —
   journal, checkpoint, trace, corpus — sees them without threading a
   plan. *)
let arm ?(seed = 0) { sites; count; after } =
  let armed sites =
    let f = Fault.create ~seed () in
    List.iter
      (fun site ->
        Fault.arm f ~site ?count ~after
          (Fault.Fail (Diag.Fault_injected { site })))
      sites;
    f
  in
  let io_sites, engine_sites =
    List.partition (String.starts_with ~prefix:"io.") sites
  in
  (match io_sites with
  | [] -> ()
  | _ ->
    Io.reset ();
    Io.set_fault (Some (armed io_sites)));
  match engine_sites with [] -> None | _ -> Some (armed engine_sites)

(* supervised jobs of batch and serve *)
let job_retries_arg =
  Arg.(value & opt int 2
       & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts for transiently failing jobs (timeouts, \
                 worker crashes, retryable solver errors), with exponential \
                 backoff; deterministic failures are quarantined instead.")

(* ---------- output ---------- *)

let output_info ~doc = Arg.info [ "o"; "output" ] ~docv:"FILE" ~doc
let output_arg ~doc = Arg.(value & opt (some string) None & output_info ~doc)

(* Print [text], or write it to the -o file through the instrumented I/O
   layer, so a bad path or a full disk is a typed error (exit 2) rather
   than a Sys_error backtrace. [wrote] is appended to a "wrote FILE"
   confirmation; without it a write is silent. *)
let emit ?wrote out text =
  match out with
  | None -> print_string text
  | Some path ->
    or_fail (Io.write_file path text);
    Option.iter (Fmt.pr "wrote %s%s@." path) wrote

type report = { format : [ `Text | `Sarif ]; out : string option }

(* --format text|sarif and -o of a findings report *)
let report_term =
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Report format: human-readable $(b,text) (default) or \
                   $(b,sarif) (SARIF 2.1.0 JSON, the schema GitHub code \
                   scanning ingests).")
  in
  Term.(const (fun format out -> { format; out }) $ format
        $ output_arg ~doc:"Write the report to $(docv) instead of stdout.")

(* emit the report, then exit 2 if a finding reaches [fail_on] *)
let emit_report { format; out } ~fail_on findings =
  emit out
    (match format with
    | `Text -> Lint_report.render findings
    | `Sarif -> Sarif.render findings);
  let code = Lint_report.exit_code ~fail_on findings in
  if code <> 0 then exit code

(* ---------- serve clients ---------- *)

let socket_arg =
  Arg.(value & opt string "minflo.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket the daemon listens on.")

let endpoint_conv =
  let parse s =
    match Serve_transport.parse s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf e -> Fmt.string ppf (Serve_transport.to_string e))

(* where and how persistently a client dials: --tcp HOST:PORT wins over
   --socket. The retry policy has no timeout; each command sets its own. *)
let connection_term =
  let tcp =
    Arg.(value & opt (some endpoint_conv) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Connect over TCP instead of the unix socket.")
  in
  let retries =
    Arg.(value & opt int 3
         & info [ "retries" ] ~docv:"N"
             ~doc:"Total connection/request attempts before giving up with a \
                   typed error; transport failures (connect-refused, \
                   net-timeout, torn-response) are retried with exponential \
                   backoff and jitter, daemon responses never are.")
  in
  let backoff =
    Arg.(value & opt float 0.1
         & info [ "backoff" ] ~docv:"S"
             ~doc:"First retry delay in seconds; doubles per retry, \
                   jittered.")
  in
  let retry_seed =
    Arg.(value & opt int 0
         & info [ "retry-seed" ] ~docv:"N"
             ~doc:"Seed for the retry jitter stream (reproducible runs).")
  in
  Term.(const (fun socket tcp retries backoff_base seed ->
            ( Option.value tcp ~default:(Serve_transport.Unix_sock socket),
              { Serve_client.attempts = max 1 retries;
                backoff_base;
                timeout = None;
                seed } ))
        $ socket_arg $ tcp $ retries $ backoff $ retry_seed)
