module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json
module Io = Minflo_robust.Io
module Perf = Minflo_robust.Perf
module Mono = Minflo_robust.Mono
module Budget = Minflo_robust.Budget
module Job = Minflo_runner.Job
module Batch = Minflo_runner.Batch
module Admission = Minflo_runner.Admission
module Journal = Minflo_runner.Journal
module Supervisor = Minflo_runner.Supervisor
module Minflotransit = Minflo_sizing.Minflotransit

type config = {
  socket_path : string;
  tcp : string option;
  run_dir : string;
  parallel : int;
  queue_capacity : int;
  timeout_seconds : float option;
  watchdog_seconds : float option;
  io_timeout_seconds : float;
  cache_bytes : int;
  retries : int;
  backoff_base : float;
  preflight : bool;
}

let default_config =
  { socket_path = "minflo.sock";
    tcp = None;
    run_dir = "minflo-serve";
    parallel = 2;
    queue_capacity = 16;
    timeout_seconds = Some 300.0;
    watchdog_seconds = Some 60.0;
    io_timeout_seconds = 30.0;
    cache_bytes = 64 * 1024 * 1024;
    retries = 2;
    backoff_base = 0.5;
    preflight = true }

(* ---------- job table ---------- *)

type failure = {
  f_code : string;
  f_message : string;
  f_raw : Json.t;  (* the error object, as [Diag.to_json] renders it *)
  f_quarantined : bool;
}

(* [Done] carries no payload: the rendered result fields live in the
   byte-budgeted {!Result_cache}, with the journal as the durable copy a
   query falls back to after an eviction *)
type state =
  | Queued
  | Running
  | Done
  | Failed of failure
  | Cancelled

type entry = {
  key : string;
  spec : Protocol.submit;
  mutable state : state;
  mutable cancelling : bool;
}

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let slug key =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    key

(* per-key checkpoint directory: jobs that share a circuit but differ in
   budget must never resume from each other's state *)
let checkpoint_dir cfg key =
  Filename.concat (Filename.concat cfg.run_dir "checkpoints") (slug key)

(* a done job's [result] response *)
let result_fields key (o : Job.outcome) =
  ("id", Json.Str key) :: ("state", Json.Str "done")
  :: (Job.fields o.job @ Job.outcome_fields o)

(* "accepted means recoverable": the acceptance line must be durable
   before the client hears [accepted], so this write is checked and a
   failure refuses the admission (and flips to degraded mode) *)
let journal_accepted jr key (s : Protocol.submit) =
  Journal.event_checked jr ~job:key ~fields:(Protocol.submit_fields s)
    "serve-accepted"

let journal_result jr key (o : Job.outcome) =
  Journal.event_checked jr ~job:key ~fields:(Job.outcome_fields o)
    "job-result"

let failure ~quarantined e =
  { f_code = Diag.error_code e;
    f_message = Diag.to_string e;
    f_raw = Diag.to_json e;
    f_quarantined = quarantined }

(* the result fields of a [job-result] line, for the entry it finishes *)
let recover_result entry j =
  Option.map (result_fields entry.key)
    (Job.outcome_of_json (Protocol.job_of entry.spec) j)

(* ---------- recovery: rebuild the job table from a previous life ---------- *)

(* replay the journal of a previous daemon life: accepted jobs reappear in
   the table, terminal ones with their exact recorded result (numbers
   round-trip bit-identically through the journal), unfinished ones as
   [Queued] for requeueing. Recovered result fields come back separately
   so the caller can restock its cache up to the byte budget. *)
let recover_table journal_path =
  let table : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  let results : (string, (string * Json.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (event, j) ->
      match Json.str_field "job" j with
      | None -> ()
      | Some key -> (
        match event with
        | "serve-accepted" -> (
          match Protocol.submit_of_json j with
          | Error _ -> ()
          | Ok spec -> (
            match Hashtbl.find_opt table key with
            | Some e ->
              (* resubmission after cancel: back to the queue *)
              if e.state = Cancelled then e.state <- Queued
            | None ->
              Hashtbl.replace table key
                { key; spec; state = Queued; cancelling = false };
              order := key :: !order))
        | "job-result" -> (
          match Hashtbl.find_opt table key with
          | Some e -> (
            match recover_result e j with
            | Some fields ->
              e.state <- Done;
              Hashtbl.replace results key fields
            | None -> ())
          | None -> ())
        | "job-failed" | "job-quarantined" | "job-lint-quarantined"
        | "job-infeasible-quarantined" -> (
          match Hashtbl.find_opt table key with
          | Some e ->
            let code =
              Option.value (Json.str_field "code" j) ~default:"internal"
            in
            e.state <-
              Failed
                { f_code = code;
                  f_message =
                    Option.value (Json.str_field "message" j) ~default:code;
                  f_raw =
                    Option.value (Json.member "error" j) ~default:(Json.Obj []);
                  f_quarantined = event <> "job-failed" }
          | None -> ())
        | "job-cancelled" -> (
          match Hashtbl.find_opt table key with
          | Some e -> e.state <- Cancelled
          | None -> ())
        | _ -> ()))
    (Journal.scan journal_path);
  (table, List.rev !order, results)

(* what a restarted daemon would reconstruct from this journal, as
   [(job key, state name)] in acceptance order — the torture harness
   diffs it across simulated crash points *)
let recovery_snapshot journal_path =
  let table, order, _ = recover_table journal_path in
  List.filter_map
    (fun key ->
      Option.map (fun e -> (key, state_name e.state)) (Hashtbl.find_opt table key))
    order

(* ---------- the worker thunk ---------- *)

let worker_thunk cfg (spec : Protocol.submit) (emit : Supervisor.emit) =
  if spec.sleep_seconds > 0.0 then Unix.sleepf spec.sleep_seconds;
  let ckpt_dir = checkpoint_dir cfg (Protocol.job_key spec) in
  let limits =
    Budget.limits ?wall_seconds:spec.max_seconds
      ?max_iterations:spec.max_iterations ?max_pivots:spec.max_pivots ()
  in
  let bcfg =
    { Batch.default_config with
      Batch.checkpoint_dir = Some ckpt_dir;
      resume = true;
      preflight = false (* gated at admission, in the parent *);
      engine = { Minflotransit.default_options with Minflotransit.limits } }
  in
  Batch.run_job ~emit ~exhausted_ok:true bcfg (Protocol.job_of spec)

(* ---------- client bookkeeping ---------- *)

(* Connections are nonblocking with a per-direction buffer, and anything
   left half-done — a partial request line in [rbuf], an unflushed
   response in [wbuf] — is subject to the I/O deadline. A parked
   [result --wait] connection has both buffers empty, so it can wait as
   long as it likes; a peer that stalls mid-request or stops reading its
   response gets reaped and can never wedge the accept loop. *)
type client = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wbuf : Buffer.t;
  mutable alive : bool;
  mutable last_activity : float;
}

let flush_client client =
  let s = Buffer.contents client.wbuf in
  let n = String.length s in
  if n > 0 then begin
    let rec go off =
      if off >= n then off
      else
        match Unix.write_substring client.fd s off (n - off) with
        | 0 -> off
        | written ->
          client.last_activity <- Mono.now ();
          go (off + written)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          off
        | exception Unix.Unix_error _ ->
          client.alive <- false;
          n
    in
    let off = go 0 in
    Buffer.clear client.wbuf;
    if client.alive && off < n then
      Buffer.add_substring client.wbuf s off (n - off)
  end

let send client json =
  if client.alive then begin
    Buffer.add_string client.wbuf (Json.to_string json ^ "\n");
    flush_client client
  end

(* ---------- the daemon ---------- *)

let unknown_job id =
  Json.Obj
    [ ("ok", Json.Bool false);
      ("code", Json.Str "unknown-job");
      ("id", Json.Str id) ]

let run ?(config = default_config) () : (unit, Diag.error) result =
  let cfg =
    { config with
      parallel = max 1 config.parallel;
      cache_bytes = max 0 config.cache_bytes }
  in
  match Io.mkdirs cfg.run_dir with
  | Error e -> Error e (* e.g. a path component is a regular file *)
  | Ok () ->
  let journal_path = Filename.concat cfg.run_dir "journal.jsonl" in
  (* replay the previous life's journal BEFORE taking the append lock:
     POSIX record locks die when the process closes *any* descriptor for
     the file, so a scan after [open_append] would silently release the
     single-instance lock *)
  let table, order, recovered = recover_table journal_path in
  match Journal.open_append journal_path with
  | Error e -> Error e (* Journal_locked: another live daemon owns this dir *)
  | Ok jr -> (
    (* stale socket from a SIGKILLed life: nobody is listening, remove it;
       a live listener means a config clash (same socket, different run
       dir — the journal lock would have caught the same run dir) *)
    let socket_check =
      if not (Sys.file_exists cfg.socket_path) then Ok ()
      else begin
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
        | () ->
          (try Unix.close probe with Unix.Unix_error _ -> ());
          Error
            (Diag.Io_error
               { file = cfg.socket_path;
                 msg = "socket already in use by a live daemon" })
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
          (try Unix.close probe with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close probe with Unix.Unix_error _ -> ());
          Error
            (Diag.Io_error
               { file = cfg.socket_path; msg = Unix.error_message e })
      end
    in
    match socket_check with
    | Error e ->
      Journal.close jr;
      Error e
    | Ok () -> (
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen listen_fd 64;
      let tcp_setup =
        match cfg.tcp with
        | None -> Ok None
        | Some spec -> (
          match Transport.parse spec with
          | Error msg -> Error (Diag.Io_error { file = spec; msg })
          | Ok (Transport.Unix_sock _) ->
            Error
              (Diag.Io_error { file = spec; msg = "--tcp expects HOST:PORT" })
          | Ok ep -> (
            match Transport.listen ep with
            | Error e -> Error e
            | Ok (fd, actual) -> Ok (Some (fd, actual))))
      in
      match tcp_setup with
      | Error e ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
        Journal.close jr;
        Error e
      | Ok tcp_listen ->
      let listen_fds =
        listen_fd :: (match tcp_listen with Some (fd, _) -> [ fd ] | None -> [])
      in
      let old_pipe =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ | Sys_error _ -> None
      in
      let t0 = Mono.now () in
      Journal.event jr
        ~fields:
          ([ ("socket", Json.Str cfg.socket_path);
             ("parallel", Json.Num (float_of_int cfg.parallel));
             ("queue_capacity", Json.Num (float_of_int cfg.queue_capacity));
             ("cache_bytes", Json.Num (float_of_int cfg.cache_bytes));
             ("pid", Json.Num (float_of_int (Unix.getpid ()))) ]
          @
          (* journal the *actual* TCP endpoint: with port 0 this is how
             anyone — tests included — learns which port the kernel gave *)
          match tcp_listen with
          | Some (_, actual) ->
            [ ("tcp", Json.Str (Transport.to_string actual)) ]
          | None -> [])
        "serve-start";
      let cache : (string * Json.t) list Result_cache.t =
        Result_cache.create ~budget_bytes:cfg.cache_bytes
      in
      let cache_put key fields =
        let rendered =
          Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))
        in
        Result_cache.put cache key fields ~bytes:(String.length rendered)
      in
      (* recovery: accepted-but-unfinished jobs from a previous life go
         back on the queue; finished ones restock the result cache, the
         budget deciding how many stay resident (oldest evict first) *)
      let admission : string Bounded_queue.t =
        Bounded_queue.create ~capacity:cfg.queue_capacity
      in
      let requeued = ref 0 and cached = ref 0 in
      List.iter
        (fun key ->
          match Hashtbl.find_opt table key with
          | Some e when e.state = Queued ->
            (* without its checkpoint directory the job still runs, only
               without resume points; journal why instead of refusing to
               start *)
            (match Io.mkdirs (checkpoint_dir cfg key) with
            | Ok () -> ()
            | Error err ->
              Journal.event jr ~job:key ~error:err "job-checkpoint-failed");
            Bounded_queue.push_force admission key;
            incr requeued
          | Some { state = Done; _ } ->
            (match Hashtbl.find_opt recovered key with
            | Some fields -> cache_put key fields
            | None -> ());
            incr cached
          | _ -> ())
        order;
      if order <> [] then
        Journal.event jr
          ~fields:
            [ ("jobs", Json.Num (float_of_int (List.length order)));
              ("requeued", Json.Num (float_of_int !requeued));
              ("cached", Json.Num (float_of_int !cached)) ]
          "serve-recovered";
      let pool : Job.outcome Supervisor.pool =
        Supervisor.pool_create
          ~config:
            { Supervisor.parallel = cfg.parallel;
              timeout_seconds = cfg.timeout_seconds;
              retries = cfg.retries;
              backoff_base = cfg.backoff_base;
              isolate = true;
              watchdog_seconds = cfg.watchdog_seconds }
          ~journal:jr ()
      in
      let clients : client list ref = ref [] in
      let waiters : (string, client list) Hashtbl.t = Hashtbl.create 8 in
      let worker_perf = ref (Perf.zero ()) in
      let draining = ref false in
      (* Read-only degraded mode: entered on the first storage failure in a
         load-bearing journal write (acceptance or result). A daemon that
         cannot journal can no longer promise "accepted means recoverable",
         so new admissions are refused with a typed [storage-error]
         rejection — but reads (status/result/stats/health, cache hits) and
         in-flight jobs keep being served instead of the daemon dying. *)
      let degraded : Diag.error option ref = ref None in
      let storage_error e =
        Json.Obj
          [ ("ok", Json.Bool false);
            ("code", Json.Str "storage-error");
            ("message", Json.Str (Diag.to_string e));
            ("error", Diag.to_json e) ]
      in
      let enter_degraded e =
        if !degraded = None then begin
          degraded := Some e;
          (* best-effort: the journal is likely the broken thing *)
          Journal.event jr ~error:e "serve-degraded"
        end
      in
      let drain_signal = ref false in
      let old_term =
        try
          Some
            (Sys.signal Sys.sigterm
               (Sys.Signal_handle (fun _ -> drain_signal := true)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      let old_int =
        try
          Some
            (Sys.signal Sys.sigint
               (Sys.Signal_handle (fun _ -> drain_signal := true)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      let start_drain reason =
        if not !draining then begin
          draining := true;
          Journal.event jr
            ~fields:[ ("reason", Json.Str reason) ]
            "serve-drain-start"
        end
      in
      (* a [Done] entry's fields come from the cache, or — after an
         eviction under memory pressure — from the journal, which holds
         every result ever produced; a journal hit re-warms the cache *)
      let done_fields entry =
        match Result_cache.find cache entry.key with
        | Some fields -> Some fields
        | None ->
          let found = ref None in
          List.iter
            (fun (event, j) ->
              if
                event = "job-result"
                && Json.str_field "job" j = Some entry.key
              then
                match recover_result entry j with
                | Some fields -> found := Some fields
                | None -> ())
            (Journal.scan journal_path);
          (match !found with
          | Some fields -> cache_put entry.key fields
          | None -> ());
          !found
      in
      let render_terminal entry =
        match entry.state with
        | Done -> (
          match done_fields entry with
          | Some fields -> Json.Obj (("ok", Json.Bool true) :: fields)
          | None ->
            (* [job-result] is journaled (and fsynced) before the state
               flips to [Done], so this means the store broke that
               promise: the line was lost, torn, or the journal was
               truncated behind our back *)
            Protocol.error_response ~fields:[ ("id", Json.Str entry.key) ]
              (Diag.Storage_corrupt
                 { file = journal_path;
                   detail =
                     "job is recorded as done but its result is in neither \
                      cache nor journal" }))
        | Failed f ->
          Json.Obj
            [ ("ok", Json.Bool false);
              ("id", Json.Str entry.key);
              ("state", Json.Str "failed");
              ("code", Json.Str f.f_code);
              ("message", Json.Str f.f_message);
              ("error", f.f_raw);
              ("quarantined", Json.Bool f.f_quarantined) ]
        | Cancelled ->
          Json.Obj
            [ ("ok", Json.Bool false);
              ("id", Json.Str entry.key);
              ("state", Json.Str "cancelled");
              ("code", Json.Str "cancelled") ]
        | Queued | Running ->
          Json.Obj
            [ ("ok", Json.Bool false);
              ("id", Json.Str entry.key);
              ("state", Json.Str (state_name entry.state));
              ("code", Json.Str "pending") ]
      in
      let notify_waiters entry =
        match Hashtbl.find_opt waiters entry.key with
        | None -> ()
        | Some parked ->
          Hashtbl.remove waiters entry.key;
          let response = render_terminal entry in
          List.iter (fun c -> if c.alive then send c response) parked
      in
      let handle_finished (key, (o : Job.outcome Supervisor.outcome)) =
        match Hashtbl.find_opt table key with
        | None -> ()
        | Some entry ->
          (match o.Supervisor.verdict with
          | Ok oc ->
            worker_perf := Perf.add !worker_perf oc.Job.perf;
            (match journal_result jr key oc with
            | Ok () -> ()
            | Error e ->
              (* the result is served from cache for this life, but a
                 restart would lose it: stop admitting work we cannot
                 promise to recover *)
              enter_degraded e);
            cache_put key (result_fields key oc);
            entry.state <- Done
          | Error _ when entry.cancelling ->
            Journal.event jr ~job:key "job-cancelled";
            entry.state <- Cancelled
          | Error e ->
            (* the pool already journaled job-failed / job-quarantined *)
            entry.state <- Failed (failure ~quarantined:o.Supervisor.quarantined e));
          notify_waiters entry
      in
      (* a forked worker inherits the listening socket and every client
         connection; if the daemon is later SIGKILLed, those inherited
         descriptors would keep the dead daemon's socket answering
         connects and wedge the restart's stale-socket probe — drop them
         first thing in the child *)
      let close_inherited_fds () =
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          listen_fds;
        List.iter
          (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
          !clients
      in
      let rec promote () =
        if Supervisor.pool_load pool < cfg.parallel then
          match Bounded_queue.pop admission with
          | None -> ()
          | Some key ->
            (match Hashtbl.find_opt table key with
            | Some entry when entry.state = Queued ->
              entry.state <- Running;
              Supervisor.pool_submit pool ~id:key (fun emit ->
                  close_inherited_fds ();
                  worker_thunk cfg entry.spec emit)
            | _ -> () (* cancelled while queued: skip *));
            promote ()
      in
      let gate = Admission.create () in
      let handle_submit (s : Protocol.submit) =
        let key = Protocol.job_key s in
        let existing = Hashtbl.find_opt table key in
        match existing with
        | Some ({ state = Done; _ } as entry) ->
          (* the result cache: same work, zero solves (an evicted entry
             is answered from the journal and re-warmed) *)
          Perf.tick_cache_hit ();
          Json.Obj
            (match render_terminal entry with
            | Json.Obj fields -> fields @ [ ("resubmitted", Json.Bool true) ]
            | _ -> assert false)
        | Some ({ state = Queued | Running | Failed _; _ } as entry) ->
          Protocol.ok
            [ ("id", Json.Str key);
              ("state", Json.Str (state_name entry.state));
              ("resubmitted", Json.Bool true) ]
        | (None | Some { state = Cancelled; _ }) when !degraded <> None ->
          Perf.tick_rejection ();
          (match !degraded with
          | Some e -> storage_error e
          | None -> assert false)
        | (None | Some { state = Cancelled; _ }) when !draining ->
          Perf.tick_rejection ();
          Protocol.error_response Diag.Draining
        | (None | Some { state = Cancelled; _ })
          when Bounded_queue.length admission >= Bounded_queue.capacity admission
          ->
          Perf.tick_rejection ();
          Protocol.error_response
            (Diag.Overloaded
               { depth = Bounded_queue.length admission;
                 limit = Bounded_queue.capacity admission })
        | None | Some { state = Cancelled; _ } -> (
          match
            if cfg.preflight then Admission.check gate (Protocol.job_of s)
            else None
          with
          | Some (which, e) ->
            (* structural reject, but still an accepted-and-recorded job:
               status/result queries answer from the table, and a restart
               reconstructs the same terminal state *)
            Perf.tick_rejection ();
            (match journal_accepted jr key s with
            | Error se ->
              enter_degraded se;
              storage_error se
            | Ok () ->
              Journal.event jr ~job:key ~error:e
                (match which with
                | `Lint -> "job-lint-quarantined"
                | `Bounds -> "job-infeasible-quarantined");
              Hashtbl.replace table key
                { key;
                  spec = s;
                  state = Failed (failure ~quarantined:true e);
                  cancelling = false };
              Protocol.error_response ~fields:[ ("id", Json.Str key) ] e)
          | None -> (
            (* build (or reuse) the delay model in the parent: workers
               inherit it copy-on-write, and repeats hit the memo *)
            match Admission.recipe gate s.circuit with
            | Error e ->
              Perf.tick_rejection ();
              Protocol.error_response e
            | Ok _ -> (
              match
                Result.bind (Io.mkdirs (checkpoint_dir cfg key)) (fun () ->
                    journal_accepted jr key s)
              with
              | Error se ->
                (* no checkpoint directory, or no durable acceptance line:
                   nothing is queued, a restart could not reconstruct this
                   job, and the client was never told [accepted] *)
                Perf.tick_rejection ();
                enter_degraded se;
                storage_error se
              | Ok () ->
                (match existing with
                | Some entry ->
                  entry.state <- Queued;
                  entry.cancelling <- false
                | None ->
                  Hashtbl.replace table key
                    { key; spec = s; state = Queued; cancelling = false });
                (match Bounded_queue.push admission key with
                | Ok () -> ()
                | Error (`Full _) ->
                  (* capacity was checked above; unreachable single-threaded *)
                  Bounded_queue.push_force admission key);
                Protocol.ok
                  [ ("id", Json.Str key);
                    ("state", Json.Str "queued");
                    ("position", Json.Num (float_of_int (Bounded_queue.length admission))) ])))
      in
      let handle_cancel id =
        match Hashtbl.find_opt table id with
        | None -> unknown_job id
        | Some entry -> (
          match entry.state with
          | Queued ->
            entry.state <- Cancelled;
            Journal.event jr ~job:id "job-cancelled";
            notify_waiters entry;
            Protocol.ok
              [ ("id", Json.Str id); ("cancelled", Json.Str "pending") ]
          | Running -> (
            entry.cancelling <- true;
            match Supervisor.pool_cancel pool id with
            | `Cancelled_pending ->
              entry.state <- Cancelled;
              Journal.event jr ~job:id "job-cancelled";
              notify_waiters entry;
              Protocol.ok
                [ ("id", Json.Str id); ("cancelled", Json.Str "pending") ]
            | `Killed_running ->
              (* terminal state lands via pool_step -> handle_finished *)
              Protocol.ok
                [ ("id", Json.Str id); ("cancelled", Json.Str "running") ]
            | `Not_found ->
              entry.state <- Cancelled;
              Journal.event jr ~job:id "job-cancelled";
              notify_waiters entry;
              Protocol.ok
                [ ("id", Json.Str id); ("cancelled", Json.Str "pending") ])
          | Done | Failed _ | Cancelled ->
            Json.Obj
              [ ("ok", Json.Bool false);
                ("code", Json.Str "already-terminal");
                ("id", Json.Str id);
                ("state", Json.Str (state_name entry.state)) ])
      in
      let job_counts () =
        let q = ref 0 and r = ref 0 and d = ref 0 and f = ref 0 and c = ref 0 in
        Hashtbl.iter
          (fun _ e ->
            match e.state with
            | Queued -> incr q
            | Running -> incr r
            | Done -> incr d
            | Failed _ -> incr f
            | Cancelled -> incr c)
          table;
        (!q, !r, !d, !f, !c)
      in
      let handle_stats () =
        let q, r, d, f, c = job_counts () in
        let counters = Perf.add (Perf.snapshot ()) !worker_perf in
        Protocol.ok
          [ ("pid", Json.Num (float_of_int (Unix.getpid ())));
            ("uptime_seconds", Json.Num (Mono.now () -. t0));
            ("draining", Json.Bool !draining);
            ("degraded", Json.Bool (!degraded <> None));
            ( "jobs",
              Json.Obj
                [ ("queued", Json.Num (float_of_int q));
                  ("running", Json.Num (float_of_int r));
                  ("done", Json.Num (float_of_int d));
                  ("failed", Json.Num (float_of_int f));
                  ("cancelled", Json.Num (float_of_int c)) ] );
            ( "queue",
              Json.Obj
                [ ( "depth",
                    Json.Num (float_of_int (Bounded_queue.length admission)) );
                  ( "capacity",
                    Json.Num (float_of_int (Bounded_queue.capacity admission))
                  );
                  ("peak", Json.Num (float_of_int (Bounded_queue.peak admission)))
                ] );
            ( "cache",
              Json.Obj
                [ ( "entries",
                    Json.Num (float_of_int (Result_cache.entries cache)) );
                  ("bytes", Json.Num (float_of_int (Result_cache.bytes cache)));
                  ( "budget",
                    Json.Num (float_of_int (Result_cache.budget cache)) );
                  ( "evictions",
                    Json.Num (float_of_int (Result_cache.evictions cache)) )
                ] );
            ( "counters",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Num (float_of_int v)))
                   (Perf.to_fields counters)) ) ]
      in
      let handle_health () =
        let _, r, _, _, _ = job_counts () in
        Protocol.ok
          [ ( "status",
              Json.Str
                (if !degraded <> None then "degraded"
                 else if !draining then "draining"
                 else "ok") );
            ("pid", Json.Num (float_of_int (Unix.getpid ())));
            ( "in_flight",
              Json.Num
                (float_of_int (r + Bounded_queue.length admission)) ) ]
      in
      (* returns [None] when the client was parked (result --wait) *)
      let handle_request client req : Json.t option =
        match req with
        | Protocol.Submit s -> Some (handle_submit s)
        | Protocol.Status id -> (
          match Hashtbl.find_opt table id with
          | None -> Some (unknown_job id)
          | Some entry ->
            Some
              (Protocol.ok
                 [ ("id", Json.Str id);
                   ("state", Json.Str (state_name entry.state)) ]))
        | Protocol.Result { id; wait } -> (
          match Hashtbl.find_opt table id with
          | None -> Some (unknown_job id)
          | Some entry -> (
            match entry.state with
            | Done | Failed _ | Cancelled -> Some (render_terminal entry)
            | Queued | Running ->
              if wait then begin
                Hashtbl.replace waiters id
                  (client
                  :: Option.value (Hashtbl.find_opt waiters id) ~default:[]);
                None
              end
              else Some (render_terminal entry)))
        | Protocol.Cancel id -> Some (handle_cancel id)
        | Protocol.Stats -> Some (handle_stats ())
        | Protocol.Health -> Some (handle_health ())
        | Protocol.Drain ->
          start_drain "request";
          Some (Protocol.ok [ ("draining", Json.Bool true) ])
      in
      let process_line client line =
        if String.trim line <> "" then
          let response =
            match Json.parse line with
            | Error msg -> Some (Protocol.bad_request msg)
            | Ok j -> (
              match Protocol.request_of_json j with
              | Error msg -> Some (Protocol.bad_request msg)
              | Ok req -> handle_request client req)
          in
          match response with Some r -> send client r | None -> ()
      in
      let read_client client =
        let bytes = Bytes.create 4096 in
        (* EINTR-retrying: a SIGCHLD from a finishing worker mid-read must
           not be mistaken for a dead client *)
        (match Io.read_retry client.fd bytes 0 4096 with
        | 0 -> client.alive <- false
        | n ->
          client.last_activity <- Mono.now ();
          Buffer.add_subbytes client.rbuf bytes 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          ()
        | exception Unix.Unix_error _ -> client.alive <- false);
        if Buffer.length client.rbuf > 1_000_000 then begin
          send client (Protocol.bad_request "request line too long");
          client.alive <- false
        end;
        let s = Buffer.contents client.rbuf in
        match String.rindex_opt s '\n' with
        | None -> ()
        | Some last ->
          Buffer.clear client.rbuf;
          Buffer.add_substring client.rbuf s (last + 1)
            (String.length s - last - 1);
          List.iter
            (fun line -> if client.alive then process_line client line)
            (String.split_on_char '\n' (String.sub s 0 last))
      in
      let accept_clients lfd =
        match Unix.accept lfd with
        | fd, _ ->
          Unix.set_nonblock fd;
          Transport.set_nodelay fd;
          clients :=
            { fd;
              rbuf = Buffer.create 256;
              wbuf = Buffer.create 256;
              alive = true;
              last_activity = Mono.now () }
            :: !clients
        | exception Unix.Unix_error _ -> ()
      in
      let reap_clients () =
        let dead, live = List.partition (fun c -> not c.alive) !clients in
        clients := live;
        List.iter
          (fun c ->
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            (* forget any parked waits from this connection *)
            Hashtbl.iter
              (fun key parked ->
                if List.memq c parked then
                  Hashtbl.replace waiters key
                    (List.filter (fun w -> not (w == c)) parked))
              (Hashtbl.copy waiters))
          dead
      in
      let rec loop () =
        let fds = listen_fds @ List.map (fun c -> c.fd) !clients in
        let wfds =
          List.filter_map
            (fun c ->
              if c.alive && Buffer.length c.wbuf > 0 then Some c.fd else None)
            !clients
        in
        let readable, writable =
          match Unix.select fds wfds [] 0.05 with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun lfd -> if List.mem lfd readable then accept_clients lfd)
          listen_fds;
        List.iter
          (fun c -> if List.mem c.fd readable then read_client c)
          !clients;
        List.iter
          (fun c -> if List.mem c.fd writable then flush_client c)
          !clients;
        (* the I/O deadline: any connection with half-done work — a
           partial request line buffered, or a response the peer is not
           reading — is reaped once it stalls past the deadline. A parked
           [result --wait] has both buffers empty and is exempt. *)
        let now = Mono.now () in
        List.iter
          (fun c ->
            if
              c.alive
              && (Buffer.length c.rbuf > 0 || Buffer.length c.wbuf > 0)
              && now -. c.last_activity > cfg.io_timeout_seconds
            then c.alive <- false)
          !clients;
        List.iter handle_finished (Supervisor.pool_step pool);
        promote ();
        reap_clients ();
        if !drain_signal then start_drain "signal";
        if
          !draining
          && Bounded_queue.is_empty admission
          && Supervisor.pool_idle pool
        then ()
        else loop ()
      in
      loop ();
      let _, _, d, f, c = job_counts () in
      Journal.event jr
        ~fields:
          [ ("done", Json.Num (float_of_int d));
            ("failed", Json.Num (float_of_int f));
            ("cancelled", Json.Num (float_of_int c)) ]
        "serve-drain-complete";
      Journal.close jr;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !clients;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listen_fds;
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      (match old_pipe with
      | Some b -> (
        try Sys.set_signal Sys.sigpipe b
        with Invalid_argument _ | Sys_error _ -> ())
      | None -> ());
      (match old_term with
      | Some b -> (
        try Sys.set_signal Sys.sigterm b
        with Invalid_argument _ | Sys_error _ -> ())
      | None -> ());
      (match old_int with
      | Some b -> (
        try Sys.set_signal Sys.sigint b
        with Invalid_argument _ | Sys_error _ -> ())
      | None -> ());
      Ok ()))
