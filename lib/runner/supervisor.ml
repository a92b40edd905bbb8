module Diag = Minflo_robust.Diag
module Fallback = Minflo_robust.Fallback
module Io = Minflo_robust.Io
module Mono = Minflo_robust.Mono
module Json = Minflo_util.Json

type config = {
  parallel : int;
  timeout_seconds : float option;
  retries : int;
  backoff_base : float;
  isolate : bool;
  watchdog_seconds : float option;
}

let default_config =
  { parallel = 1;
    timeout_seconds = None;
    retries = 2;
    backoff_base = 0.5;
    isolate = true;
    watchdog_seconds = None }

type 'a outcome = {
  verdict : ('a, Diag.error) result;
  attempts : int;
  quarantined : bool;
}

(* transient = worth retrying on a clean process: environmental failures
   (timeout, crash) and the solver failures a re-run could dodge. *)
let transient = function
  | Diag.Job_timeout _ | Diag.Job_crashed _ -> true
  | e -> Fallback.retryable e

(* an identical typed solver error on consecutive attempts is deterministic
   in practice — quarantine instead of burning the remaining retries.
   Timeouts and crashes are environmental and keep their full budget. *)
let repeats_deterministically prev e =
  match (prev, e) with
  | Some p, e -> (
    match e with
    | Diag.Job_timeout _ | Diag.Job_crashed _ -> false
    | _ -> Diag.error_code p = Diag.error_code e)
  | None, _ -> false

(* ---------- one attempt in a forked child ---------- *)

let write_result file (r : ('a, Diag.error) result) =
  let oc = open_out_bin file in
  Marshal.to_channel oc r [];
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc

let read_result file : ('a, Diag.error) result option =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
    let r = try Some (Marshal.from_channel ic) with _ -> None in
    close_in_noerr ic;
    r

type emit = ?fields:(string * Json.t) list -> string -> unit

type running = {
  id : string;
  pid : int;
  result_file : string;
  deadline : float option;
  mutable killed : bool;
  mutable cancelled : bool;
  mutable watchdogged : bool;
  (* liveness: bumped whenever the worker's pipe yields bytes — heartbeats
     count exactly like real events, so the watchdog only fires on true
     silence (a wedged runtime, a SIGSTOP, a livelock with signals lost) *)
  mutable last_activity : float;
  (* worker -> parent journal-event pipe: the child writes one JSON record
     per event, the parent is the only process that ever touches
     journal.jsonl (single-writer crash safety) *)
  pipe_r : Unix.file_descr;
  pipe_buf : Buffer.t;
}

(* Pipe protocol: one newline-terminated JSON object per event,
   [{"event": name, …fields}]. JSON escaping keeps newlines out of the
   encoded record, so the newline alone frames it. *)
let emit_record ?(fields = []) name =
  Json.to_string (Json.Obj (("event", Json.Str name) :: fields)) ^ "\n"

(* liveness-only pipe record; the parent bumps [last_activity] and drops
   it instead of journaling *)
let heartbeat_record = emit_record "job-heartbeat"

let spawn ~timeout ~watchdog id thunk =
  let result_file = Filename.temp_file "minflo-job-" ".result" in
  let pr, pw = Unix.pipe () in
  (* avoid duplicated buffered output in the child *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* the parent may have drain/seal handlers on SIGTERM/SIGINT that touch
       the journal; a worker inheriting them would become a second journal
       writer the moment someone signals the process group. Reset to the
       default disposition before any user code runs. *)
    (try Sys.set_signal Sys.sigterm Sys.Signal_default
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint Sys.Signal_default
     with Invalid_argument _ | Sys_error _ -> ());
    Unix.close pr;
    (* heartbeat: a SIGALRM interval timer writes one liveness record per
       tick, independent of job structure — a worker deep in a long solver
       phase (or asleep in artificial latency) still proves it is alive.
       [Unix.sleepf] resumes after EINTR, so the timer never shortens a
       sleep; pipe writes below PIPE_BUF are atomic, so heartbeat records
       never interleave with event records. *)
    (match watchdog with
    | Some w ->
      let interval = Float.max 0.02 (w /. 4.0) in
      (try
         Sys.set_signal Sys.sigalrm
           (Sys.Signal_handle
              (fun _ ->
                try
                  ignore
                    (Io.write_substring_retry pw heartbeat_record 0
                       (String.length heartbeat_record))
                with Unix.Unix_error _ -> ()));
         ignore
           (Unix.setitimer Unix.ITIMER_REAL
              { Unix.it_interval = interval; it_value = interval })
       with Invalid_argument _ | Sys_error _ | Unix.Unix_error _ -> ())
    | None -> ());
    let emit ?fields name =
      (* EINTR-retrying: the SIGALRM heartbeat must not tear an event
         record mid-write *)
      try Io.really_write_substring pw (emit_record ?fields name)
      with Unix.Unix_error _ -> ()
    in
    let r =
      try thunk emit with
      | Diag.Error_exn e -> Error e
      | exn -> Error (Diag.Internal (Printexc.to_string exn))
    in
    (try write_result result_file r with _ -> ());
    (* _exit: never run the parent's at_exit handlers in the child *)
    Unix._exit 0
  | pid ->
    (* the parent closes the write end immediately, so once this child
       exits the pipe reaches EOF — no other process can hold it open
       (children only ever inherit read ends of earlier pipes) *)
    Unix.close pw;
    Unix.set_nonblock pr;
    { id;
      pid;
      result_file;
      deadline = Option.map (fun s -> Mono.now () +. s) timeout;
      killed = false;
      cancelled = false;
      watchdogged = false;
      last_activity = Mono.now ();
      pipe_r = pr;
      pipe_buf = Buffer.create 256 }

let reap_verdict cfg (r : running) status : ('a, Diag.error) result =
  let cleanup v =
    (try Sys.remove r.result_file with Sys_error _ -> ());
    v
  in
  if r.cancelled then
    cleanup (Error (Diag.Job_crashed { job = r.id; detail = "cancelled" }))
  else if r.watchdogged then
    (* transient by construction: a clean re-run gets a fresh heartbeat *)
    cleanup
      (Error
         (Diag.Job_crashed
            { job = r.id;
              detail =
                Printf.sprintf "watchdog: no heartbeat for %g seconds"
                  (Option.value cfg.watchdog_seconds ~default:0.0) }))
  else if r.killed then
    cleanup
      (Error
         (Diag.Job_timeout
            { job = r.id;
              seconds = Option.value cfg.timeout_seconds ~default:0.0 }))
  else
    match status with
    | Unix.WEXITED 0 -> (
      match read_result r.result_file with
      | Some v -> cleanup v
      | None ->
        cleanup
          (Error
             (Diag.Job_crashed
                { job = r.id; detail = "result file missing or unreadable" })))
    | Unix.WEXITED code ->
      cleanup
        (Error
           (Diag.Job_crashed
              { job = r.id; detail = Printf.sprintf "exit code %d" code }))
    | Unix.WSIGNALED sg | Unix.WSTOPPED sg ->
      cleanup
        (Error
           (Diag.Job_crashed
              { job = r.id; detail = Printf.sprintf "killed by signal %d" sg }))

(* ---------- the incremental pool ---------- *)

type 'a task = {
  t_id : string;
  thunk : emit -> ('a, Diag.error) result;
  mutable attempts : int;
  mutable ready_at : float;  (* backoff gate; monotonic seconds *)
  mutable last_error : Diag.error option;
}

type 'a pool = {
  cfg : config;
  journal : Journal.t option;
  on_done : (string -> 'a outcome -> unit) option;
  pending : 'a task Queue.t;
  mutable delayed : 'a task list;
  mutable running : (running * 'a task) list;
  mutable finished : (string * 'a outcome) list;  (* reversed; drained by step *)
}

let journal_event journal ?job ?error ?fields name =
  match journal with
  | Some j -> Journal.event j ?job ?error ?fields name
  | None -> ()

(* journal the complete records accumulated in [r]'s pipe buffer, keeping
   any trailing partial record for the next drain *)
let flush_pipe_lines journal r =
  let s = Buffer.contents r.pipe_buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    Buffer.clear r.pipe_buf;
    Buffer.add_substring r.pipe_buf s (last + 1) (String.length s - last - 1);
    List.iter
      (fun line ->
        match Json.parse line with
        | Ok (Json.Obj (("event", Json.Str "job-heartbeat") :: _)) ->
          () (* liveness only, never journaled *)
        | Ok (Json.Obj (("event", Json.Str name) :: fields)) ->
          journal_event journal ~job:r.id ~fields name
        | Ok _ | Error _ -> ())
      (String.split_on_char '\n' (String.sub s 0 last))

(* read whatever the worker has written so far (non-blocking); called on
   every poll so a chatty worker can never fill the pipe and stall *)
let drain_pipe journal r =
  let bytes = Bytes.create 4096 in
  let rec go () =
    match Io.read_retry r.pipe_r bytes 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes r.pipe_buf bytes 0 n;
      r.last_activity <- Mono.now ();
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  flush_pipe_lines journal r

(* final drain once the child has exited: the write end is closed, so the
   read loop runs to EOF — every event the worker emitted lands in the
   journal BEFORE the verdict event, making within-job order deterministic
   regardless of the parallelism level *)
let close_pipe journal r =
  drain_pipe journal r;
  (try Unix.close r.pipe_r with Unix.Unix_error _ -> ())

let pool_create ?(config = default_config) ?journal ?on_done () =
  { cfg = { config with parallel = max 1 config.parallel };
    journal;
    on_done;
    pending = Queue.create ();
    delayed = [];
    running = [];
    finished = [] }

let pool_submit p ~id thunk =
  Queue.add
    { t_id = id; thunk; attempts = 0; ready_at = 0.0; last_error = None }
    p.pending

let finish p task (verdict : ('a, Diag.error) result) ~quarantined =
  let outcome = { verdict; attempts = task.attempts; quarantined } in
  p.finished <- (task.t_id, outcome) :: p.finished;
  match p.on_done with Some f -> f task.t_id outcome | None -> ()

(* route one attempt's failure: retry, quarantine, or final failure. A
   cancelled worker's verdict bypasses the retry logic entirely. *)
let handle_failure p task e =
  let deterministic =
    (not (transient e)) || repeats_deterministically task.last_error e
  in
  if deterministic then begin
    journal_event p.journal ~job:task.t_id ~error:e
      ~fields:[ ("attempts", Json.Num (float_of_int task.attempts)) ]
      "job-quarantined";
    finish p task (Error e) ~quarantined:true
  end
  else if task.attempts > p.cfg.retries then begin
    journal_event p.journal ~job:task.t_id ~error:e
      ~fields:[ ("attempts", Json.Num (float_of_int task.attempts)) ]
      "job-failed";
    finish p task (Error e) ~quarantined:false
  end
  else begin
    let delay =
      p.cfg.backoff_base *. (2.0 ** float_of_int (task.attempts - 1))
    in
    journal_event p.journal ~job:task.t_id ~error:e
      ~fields:
        [ ("attempt", Json.Num (float_of_int task.attempts));
          ("backoff_seconds", Json.of_float delay) ]
      "job-retry";
    task.last_error <- Some e;
    task.ready_at <- Mono.now () +. delay;
    p.delayed <- task :: p.delayed
  end

let handle_result p task ~cancelled (verdict : ('a, Diag.error) result) =
  match verdict with
  | Ok _ -> finish p task verdict ~quarantined:false
  | Error _ when cancelled -> finish p task verdict ~quarantined:false
  | Error e -> handle_failure p task e

let spawn_task p task =
  task.attempts <- task.attempts + 1;
  let r =
    spawn ~timeout:p.cfg.timeout_seconds ~watchdog:p.cfg.watchdog_seconds
      task.t_id task.thunk
  in
  (* pid in the journal lets an operator (or a chaos test) target the live
     worker; [Journal.canonical] strips it as volatile *)
  journal_event p.journal ~job:task.t_id
    ~fields:
      [ ("attempt", Json.Num (float_of_int task.attempts));
        ("pid", Json.Num (float_of_int r.pid)) ]
    "job-spawn";
  p.running <- (r, task) :: p.running

let next_ready p =
  let now = Mono.now () in
  match Queue.take_opt p.pending with
  | Some t -> Some t
  | None -> (
    match List.partition (fun t -> t.ready_at <= now) p.delayed with
    | ready :: rest_ready, rest ->
      p.delayed <- rest_ready @ rest;
      Some ready
    | [], _ -> None)

let poll_running p =
  let still = ref [] in
  List.iter
    (fun ((r, task) as entry) ->
      (* hard timeout: SIGKILL, reap on a later poll *)
      (match r.deadline with
      | Some d when (not r.killed) && (not r.cancelled) && Mono.now () > d ->
        journal_event p.journal ~job:r.id
          ~fields:
            [ ( "timeout_seconds",
                Json.of_float
                  (Option.value p.cfg.timeout_seconds ~default:0.0) ) ]
          "job-timeout";
        (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
        r.killed <- true
      | _ -> ());
      (* watchdog: a worker silent past its deadline — no events, no
         heartbeats — is wedged (SIGSTOP, livelock, lost in a non-OCaml
         call). Kill it; the verdict routes through the transient retry
         path, so the job is requeued on a clean process. *)
      (match p.cfg.watchdog_seconds with
      | Some w
        when (not r.killed)
             && (not r.cancelled)
             && (not r.watchdogged)
             && Mono.now () -. r.last_activity > w ->
        journal_event p.journal ~job:r.id
          ~fields:
            [ ( "silent_seconds",
                Json.of_float (Mono.now () -. r.last_activity) ) ]
          "job-watchdog-kill";
        (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
        r.watchdogged <- true
      | _ -> ());
      match Unix.waitpid [ Unix.WNOHANG ] r.pid with
      | 0, _ ->
        drain_pipe p.journal r;
        still := entry :: !still
      | _, status ->
        close_pipe p.journal r;
        handle_result p task ~cancelled:r.cancelled
          (reap_verdict p.cfg r status)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        close_pipe p.journal r;
        handle_result p task ~cancelled:r.cancelled
          (Error (Diag.Job_crashed { job = r.id; detail = "lost child" })))
    p.running;
  p.running <- !still

let pool_step p =
  let rec fill () =
    if List.length p.running < p.cfg.parallel then
      match next_ready p with
      | Some t ->
        spawn_task p t;
        fill ()
      | None -> ()
  in
  fill ();
  if p.running <> [] then poll_running p;
  let done_now = List.rev p.finished in
  p.finished <- [];
  done_now

let pool_cancel p id =
  (* pending: drop it from the queue *)
  let found = ref false in
  let keep = Queue.create () in
  Queue.iter
    (fun t ->
      if t.t_id = id && not !found then found := true else Queue.add t keep)
    p.pending;
  if !found then begin
    Queue.clear p.pending;
    Queue.transfer keep p.pending;
    `Cancelled_pending
  end
  else if
    (* delayed (awaiting a retry slot): drop it *)
    List.exists (fun t -> t.t_id = id) p.delayed
  then begin
    p.delayed <- List.filter (fun t -> t.t_id <> id) p.delayed;
    `Cancelled_pending
  end
  else
    match List.find_opt (fun (r, _) -> r.id = id) p.running with
    | Some (r, _) ->
      r.cancelled <- true;
      (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
      `Killed_running
    | None -> `Not_found

let pool_running_count p = List.length p.running

let pool_queued_count p = Queue.length p.pending + List.length p.delayed

let pool_load p = pool_running_count p + pool_queued_count p

let pool_idle p = pool_load p = 0

(* ---------- batch scheduling on top of the pool ---------- *)

let run_all_tasks ?(config = default_config) ?journal ?on_done tasks =
  let cfg = { config with parallel = max 1 config.parallel } in
  let order = List.map fst tasks in
  let results : (string, 'a outcome) Hashtbl.t =
    Hashtbl.create (List.length tasks)
  in
  let record id outcome =
    Hashtbl.replace results id outcome;
    match on_done with Some f -> f id outcome | None -> ()
  in
  if not cfg.isolate then begin
    (* in-process: sequential, with the same retry/quarantine routing as
       the pool, minus forking. Reuses the pool's failure router on a
       fork-free pool so the journal events and quarantine decisions are
       byte-identical to the isolated mode's. *)
    let p = pool_create ~config:cfg ?journal ?on_done:None () in
    List.iter
      (fun (t_id, thunk) ->
        Queue.add
          { t_id; thunk; attempts = 0; ready_at = 0.0; last_error = None }
          p.pending)
      tasks;
    let run_in_process task =
      task.attempts <- task.attempts + 1;
      journal_event journal ~job:task.t_id
        ~fields:[ ("attempt", Json.Num (float_of_int task.attempts)) ]
        "job-spawn";
      (* no pipe needed: the worker IS the journal owner's process *)
      let emit ?fields name =
        journal_event journal ~job:task.t_id ?fields name
      in
      let v =
        try task.thunk emit with
        | Diag.Error_exn e -> Error e
        | exn -> Error (Diag.Internal (Printexc.to_string exn))
      in
      handle_result p task ~cancelled:false v
    in
    let rec drain () =
      match next_ready p with
      | Some t ->
        run_in_process t;
        List.iter (fun (id, o) -> record id o) (List.rev p.finished);
        p.finished <- [];
        drain ()
      | None ->
        if p.delayed <> [] then begin
          Unix.sleepf 0.01;
          drain ()
        end
    in
    drain ()
  end
  else begin
    let p = pool_create ~config:cfg ?journal ?on_done:(Some record) () in
    List.iter (fun (id, thunk) -> pool_submit p ~id thunk) tasks;
    let rec loop () =
      ignore (pool_step p);
      if not (pool_idle p) then begin
        if p.running <> [] || p.delayed <> [] then Unix.sleepf 0.01;
        loop ()
      end
    in
    loop ()
  end;
  List.map
    (fun id ->
      match Hashtbl.find_opt results id with
      | Some o -> (id, o)
      | None ->
        ( id,
          { verdict =
              Error (Diag.Internal ("supervisor lost track of job " ^ id));
            attempts = 0;
            quarantined = false } ))
    order

let run_all ?config ?journal ?on_done tasks =
  run_all_tasks ?config ?journal ?on_done
    (List.map (fun (id, thunk) -> (id, fun (_ : emit) -> thunk ())) tasks)
