(* minflo serve / client / loadgen / chaosproxy: the sizing daemon, its
   clients and the fault-injecting proxy between them. *)

open Cmdliner
open Minflo

let serve =
  let run_dir =
    Arg.(value & opt string "minflo-serve"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Run directory: the crash-safe journal \
                   ($(docv)/journal.jsonl, advisory-locked so a second \
                   daemon on the same directory fails fast) and per-job \
                   checkpoints. Restarting on the same directory recovers \
                   accepted-but-unfinished jobs and the result cache from \
                   the journal.")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  in
  let queue =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; submissions beyond it are \
                   rejected with a typed $(b,overloaded) response instead \
                   of queueing unboundedly.")
  in
  let timeout =
    Arg.(value & opt (some float) (Some 300.0)
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Hard per-attempt wall-clock limit for one job; a worker \
                   past it is SIGKILLed and the job retried as a transient \
                   failure.")
  in
  let no_preflight =
    Arg.(value & flag
         & info [ "no-preflight" ]
             ~doc:"Skip the admission-time lint gate.")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Also listen on this TCP endpoint (port 0 lets the \
                   kernel pick; the actual address is journaled in the \
                   $(b,serve-start) event's $(b,tcp) field). The unix \
                   socket stays active either way.")
  in
  let io_timeout =
    Arg.(value & opt float 30.0
         & info [ "io-timeout" ] ~docv:"S"
             ~doc:"Per-connection read/write deadline: a peer stalled \
                   mid-request, or not reading its response, this long is \
                   disconnected. Parked $(b,result --wait) connections are \
                   exempt.")
  in
  let watchdog =
    Arg.(value & opt float 60.0
         & info [ "watchdog" ] ~docv:"S"
             ~doc:"Worker liveness deadline: a worker whose event pipe \
                   stays silent (no events, no heartbeats) this long is \
                   SIGKILLed and its job requeued as a transient failure. \
                   0 disables.")
  in
  let cache_bytes =
    Arg.(value & opt int (64 * 1024 * 1024)
         & info [ "cache-bytes" ] ~docv:"BYTES"
             ~doc:"Byte budget for the in-memory result cache; past it the \
                   least recently used results are evicted (still served \
                   from the journal, counted by the $(b,evictions) perf \
                   counter).")
  in
  let run socket tcp dir jobs queue timeout watchdog io_timeout cache_bytes
      retries no_preflight faults =
    (* io.* sites arm the ambient storage layer under the daemon's journal
       writers — how the disk-smoke drives the degraded read-only mode *)
    ignore (Cli.arm faults);
    Cli.or_fail
      (Serve.run
        ~config:
          { Serve.socket_path = socket;
            tcp;
            run_dir = dir;
            parallel = jobs;
            queue_capacity = queue;
            timeout_seconds = timeout;
            watchdog_seconds = (if watchdog > 0.0 then Some watchdog else None);
            io_timeout_seconds = io_timeout;
            cache_bytes;
            retries;
            backoff_base = 0.5;
            preflight = not no_preflight }
        ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sizing daemon: accept jobs over a unix socket (and \
             optionally TCP), schedule them across supervised worker \
             processes with admission control, per-request budgets, a \
             worker liveness watchdog, per-connection I/O deadlines, \
             idempotent result caching under a byte budget, \
             journal-backed crash recovery and graceful drain on SIGTERM \
             (or the $(b,drain) op).")
    Term.(const run $ Cli.socket_arg $ tcp $ run_dir $ jobs $ queue $ timeout
          $ watchdog $ io_timeout $ cache_bytes $ Cli.job_retries_arg
          $ no_preflight
          $ Cli.faults_term)

(* map a daemon response to the CLI's stable exit codes *)
let client_exit_code response =
  if Json.bool_field "ok" response = Some true then 0
  else
    match Json.str_field "code" response with
    | Some ("bad-request" | "unknown-job") -> 2
    | Some ("internal" | "storage-error") -> 3
    | _ -> 1

let client =
  let action =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("submit", `Submit); ("status", `Status);
                     ("result", `Result); ("cancel", `Cancel);
                     ("stats", `Stats); ("health", `Health);
                     ("drain", `Drain) ]))
             None
         & info [] ~docv:"ACTION"
             ~doc:"One of $(b,submit) CIRCUIT, $(b,status) JOB, \
                   $(b,result) JOB, $(b,cancel) JOB, $(b,stats), \
                   $(b,health), $(b,drain).")
  in
  let operand =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"CIRCUIT|JOB"
             ~doc:"The circuit to submit, or the job id to query.")
  in
  let wait =
    Arg.(value & flag
         & info [ "wait" ]
             ~doc:"With $(b,result): block until the job is terminal.")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"S"
             ~doc:"With $(b,submit): artificial pre-solve latency (load \
                   testing).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-attempt network deadline. A daemon that dies \
                   mid-$(b,--wait), or stalls, yields a typed \
                   $(b,net-timeout) error and exit code 1 instead of \
                   hanging forever. Default: 30s, except $(b,result \
                   --wait) which waits indefinitely unless this is set.")
  in
  let run (endpoint, retry) action operand factor solver
      (max_seconds, max_iterations, max_pivots) wait sleep timeout =
    let need what =
      match operand with
      | Some v -> v
      | None ->
        Fmt.epr "minflo client: this action requires a %s operand@." what;
        exit 2
    in
    let req =
      match action with
      | `Submit ->
        Serve_protocol.Submit
          { Serve_protocol.circuit = need "circuit";
            factor;
            solver;
            max_seconds;
            max_iterations;
            max_pivots;
            sleep_seconds = sleep }
      | `Status -> Serve_protocol.Status (need "job id")
      | `Result -> Serve_protocol.Result { id = need "job id"; wait }
      | `Cancel -> Serve_protocol.Cancel (need "job id")
      | `Stats -> Serve_protocol.Stats
      | `Health -> Serve_protocol.Health
      | `Drain -> Serve_protocol.Drain
    in
    let waiting = match req with Serve_protocol.Result r -> r.wait | _ -> false in
    let retry =
      { retry with
        Serve_client.attempts =
          (* an explicit deadline on a blocking wait bounds the TOTAL
             wait, so it must not be multiplied by retries *)
          (if waiting && timeout <> None then 1 else retry.Serve_client.attempts);
        timeout =
          (match timeout with
          | Some t -> Some t
          | None -> if waiting then None else Some 30.0) }
    in
    let response =
      Cli.or_fail
        (Serve_client.one_shot ~retry ~endpoint
           (Serve_protocol.request_to_json req))
    in
    print_endline (Json.to_string response);
    let code = client_exit_code response in
    if code > 0 then exit code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,minflo serve) daemon over its unix \
             socket or TCP: submit jobs, query status and results \
             (optionally blocking), cancel, and probe \
             stats/health/drain. Transport failures are retried with \
             backoff, then reported typed: $(b,connect-refused) and \
             $(b,net-timeout) exit 1, $(b,torn-response) exits 3. Prints \
             the daemon's JSON response; exit code follows the response \
             ($(b,overloaded), $(b,draining) and pending map to 1, bad \
             input to 2, $(b,storage-error) — the daemon degraded \
             read-only after a failed journal write — to 3).")
    Term.(const run $ Cli.connection_term $ action $ operand $ Cli.factor_arg
          $ Cli.solver_arg $ Cli.budget_term $ wait $ sleep $ timeout)

let loadgen =
  let circuits =
    Arg.(value & pos_all string [ "c17" ]
         & info [] ~docv:"CIRCUIT" ~doc:"Circuits to cycle through.")
  in
  let count =
    Arg.(value & opt int 4
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Well-formed jobs to submit.")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"S"
             ~doc:"Artificial per-job latency, to make overload and drain \
                   windows reproducible.")
  in
  let lint_bad =
    Arg.(value & opt int 0
         & info [ "lint-bad" ] ~docv:"N"
             ~doc:"Additional jobs the admission lint gate must reject.")
  in
  let tiny_budget =
    Arg.(value & opt int 0
         & info [ "tiny-budget" ] ~docv:"N"
             ~doc:"Additional jobs with a 1-iteration run budget \
                   (exercises best-feasible-on-exhaustion).")
  in
  let deadline =
    Arg.(value & opt float 300.0
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Give up polling after this many seconds.")
  in
  let timeout =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"S"
             ~doc:"Per-attempt network deadline for every request.")
  in
  let run (endpoint, retry) circuits factor solver count sleep lint_bad
      tiny_budget deadline timeout =
    print_endline
      (Json.to_string
         (Cli.or_fail
            (Loadgen.run
        { Loadgen.endpoint;
          retry = { retry with Serve_client.timeout = Some timeout };
          circuits;
          factor;
          solver;
          count;
          sleep_seconds = sleep;
          lint_bad;
          tiny_budget;
          poll_interval = 0.05;
          deadline_seconds = deadline })))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a deterministic job mix at a running daemon — \
             well-formed jobs, lint-rejected jobs, tiny-budget jobs — \
             poll everything to a terminal state and print a JSON summary \
             (accepted/overloaded/rejected counts, terminal states, \
             p50/p99 submit-to-terminal latency percentiles, and \
             the daemon's own stats). All traffic rides the retrying \
             client, so a run pointed through $(b,minflo chaosproxy) \
             measures end-to-end resilience. The CI serve-smoke and \
             chaos-smoke jobs assert on this output.")
    Term.(const run $ Cli.connection_term $ circuits $ Cli.factor_arg
          $ Cli.solver_arg $ count $ sleep $ lint_bad $ tiny_budget $ deadline
          $ timeout)

let chaosproxy =
  let listen =
    Arg.(value & opt Cli.endpoint_conv (Serve_transport.Tcp ("127.0.0.1", 0))
         & info [ "listen" ] ~docv:"ENDPOINT"
             ~doc:"Where to accept clients: $(b,HOST:PORT) (port 0 lets \
                   the kernel pick) or $(b,unix:PATH). The actual \
                   endpoint is printed on stdout.")
  in
  let upstream =
    Arg.(value & opt Cli.endpoint_conv (Serve_transport.Unix_sock "minflo.sock")
         & info [ "upstream" ] ~docv:"ENDPOINT"
             ~doc:"The real daemon to forward to.")
  in
  let faults =
    Arg.(value & opt_all Cli.fault_site_conv []
         & info [ "inject-fault" ] ~docv:"SITE"
             ~doc:"Arm a network fault site ($(b,net.accept-drop), \
                   $(b,net.read-stall), $(b,net.torn-write), \
                   $(b,net.delayed-response)); repeatable. Validated \
                   against the same catalog as every other \
                   $(b,--inject-fault).")
  in
  let fault_prob =
    Arg.(value & opt (some float) None
         & info [ "fault-prob" ] ~docv:"P"
             ~doc:"Each visit fires with probability P, drawn from the \
                   seeded stream (default 1.0).")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed for probabilistic firing; a chaos run replays \
                   exactly from its seed.")
  in
  let delay =
    Arg.(value & opt float 0.2
         & info [ "delay" ] ~docv:"S"
             ~doc:"Stall/delay duration injected by $(b,net.read-stall) \
                   and $(b,net.delayed-response).")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"On exit, write a JSON object of per-site fired counts \
                   here — CI asserts the schedule actually fired.")
  in
  let run listen upstream faults fault_count fault_prob seed delay report =
    List.iter
      (fun site ->
        if not (String.starts_with ~prefix:"net." site) then begin
          Fmt.epr
            "minflo chaosproxy: %s is not a network fault site (want net.*)@."
            site;
          exit 2
        end)
      faults;
    Cli.or_fail
      (Chaosproxy.run
        ~config:
          { Chaosproxy.listen;
            upstream;
            faults =
              List.map
                (fun site ->
                  { Chaosproxy.site; count = fault_count; prob = fault_prob })
                faults;
            seed;
            delay_seconds = delay;
            connect_timeout = 5.0;
            report_path = report }
        ())
  in
  Cmd.v
    (Cmd.info "chaosproxy"
       ~doc:"Interpose deterministic network faults between real clients \
             and a real $(b,minflo serve) daemon: dropped accepts, \
             stalled requests, torn response lines, delayed responses — \
             each a seeded, replayable schedule. Runs until SIGTERM, \
             then writes the fired-count report. The end-to-end chaos \
             tests drive $(b,minflo loadgen) through this proxy and \
             assert every accepted job still resolves bit-identically to \
             a fault-free run.")
    Term.(const run $ listen $ upstream $ faults $ Cli.fault_count_arg
          $ fault_prob $ seed $ delay $ report)
