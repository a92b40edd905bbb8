module Vec = Minflo_util.Vec
module Json = Minflo_util.Json

type severity = Debug | Info | Warning | Error

let severity_rank = function Debug -> 0 | Info -> 1 | Warning -> 2 | Error -> 3

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type error =
  | Parse_error of { file : string option; line : int; col : int; msg : string }
  | Lint_error of { rule : string; file : string option; line : int; msg : string }
  | Unknown_circuit of { name : string; known : string list }
  | Io_error of { file : string; msg : string }
  | Disk_full of { file : string }
  | Storage_corrupt of { file : string; detail : string }
  | Infeasible_budget of {
      vertex : int;
      label : string;
      budget : float;
      intrinsic : float;
    }
  | Unsafe_timing of { cp : float; deadline : float }
  | Solver_diverged of { solver : string; iters : int }
  | Numeric of { what : string; value : float }
  | Budget_exhausted of { resource : string; spent : float; limit : float }
  | Oscillation of { area : float; repeats : int }
  | Unmet_target of { target : float; achieved : float }
  | Infeasible_target of {
      target : float;
      lower_bound : float;
      witness : string list;
    }
  | Invariant of { what : string; detail : string }
  | Fault_injected of { site : string }
  | Checkpoint_invalid of { file : string; reason : string }
  | Differential_mismatch of {
      job : string;
      solver_a : string;
      solver_b : string;
      value_a : float;
      value_b : float;
      tolerance : float;
    }
  | Job_timeout of { job : string; seconds : float }
  | Job_crashed of { job : string; detail : string }
  | Overloaded of { depth : int; limit : int }
  | Draining
  | Journal_locked of { file : string }
  | Connect_refused of { endpoint : string; attempts : int }
  | Net_timeout of { endpoint : string; op : string; seconds : float }
  | Torn_response of { endpoint : string; bytes : int }
  | Internal of string

exception Error_exn of error

let fail e = raise (Error_exn e)

let error_code = function
  | Parse_error _ -> "parse-error"
  | Lint_error _ -> "lint-error"
  | Unknown_circuit _ -> "unknown-circuit"
  | Io_error _ -> "io-error"
  | Disk_full _ -> "disk-full"
  | Storage_corrupt _ -> "storage-corrupt"
  | Infeasible_budget _ -> "infeasible-budget"
  | Unsafe_timing _ -> "unsafe-timing"
  | Solver_diverged _ -> "solver-diverged"
  | Numeric _ -> "numeric"
  | Budget_exhausted _ -> "budget-exhausted"
  | Oscillation _ -> "oscillation"
  | Unmet_target _ -> "unmet-target"
  | Infeasible_target _ -> "infeasible-target"
  | Invariant _ -> "invariant"
  | Fault_injected _ -> "fault-injected"
  | Checkpoint_invalid _ -> "checkpoint-invalid"
  | Differential_mismatch _ -> "differential-mismatch"
  | Job_timeout _ -> "job-timeout"
  | Job_crashed _ -> "job-crashed"
  | Overloaded _ -> "overloaded"
  | Draining -> "draining"
  | Journal_locked _ -> "journal-locked"
  | Connect_refused _ -> "connect-refused"
  | Net_timeout _ -> "net-timeout"
  | Torn_response _ -> "torn-response"
  | Internal _ -> "internal"

let location ?(file = None) ~line ~col () =
  match (file, col) with
  | Some f, c when c > 0 -> Printf.sprintf "%s:%d:%d" f line c
  | Some f, _ -> Printf.sprintf "%s:%d" f line
  | None, c when c > 0 -> Printf.sprintf "line %d, column %d" line c
  | None, _ -> Printf.sprintf "line %d" line

let to_string = function
  | Parse_error { file; line; col; msg } ->
    Printf.sprintf "parse error at %s: %s" (location ~file ~line ~col ()) msg
  | Lint_error { rule; file; line; msg } ->
    Printf.sprintf "lint rule %s at %s: %s" rule
      (location ~file ~line ~col:0 ())
      msg
  | Unknown_circuit { name; known } ->
    Printf.sprintf "unknown circuit %S: not a file, and not one of {%s}" name
      (String.concat ", " known)
  | Io_error { file; msg } -> Printf.sprintf "cannot read %s: %s" file msg
  | Disk_full { file } ->
    Printf.sprintf "disk full: cannot write %s (ENOSPC)" file
  | Storage_corrupt { file; detail } ->
    Printf.sprintf "storage corrupt: %s: %s" file detail
  | Infeasible_budget { vertex; label; budget; intrinsic } ->
    Printf.sprintf
      "infeasible budget %g at vertex %d (%s): at or below the intrinsic delay %g"
      budget vertex label intrinsic
  | Unsafe_timing { cp; deadline } ->
    Printf.sprintf "circuit unsafe: critical path %.4g exceeds deadline %.4g" cp
      deadline
  | Solver_diverged { solver; iters } ->
    Printf.sprintf "solver %s diverged after %d iterations" solver iters
  | Numeric { what; value } -> Printf.sprintf "numeric failure: %s = %g" what value
  | Budget_exhausted { resource; spent; limit } ->
    Printf.sprintf "run budget exhausted: %s %g of %g" resource spent limit
  | Oscillation { area; repeats } ->
    Printf.sprintf "oscillation: area %.6g revisited %d consecutive times" area
      repeats
  | Unmet_target { target; achieved } ->
    Printf.sprintf "delay target %.4g not met: best achievable %.4g" target
      achieved
  | Infeasible_target { target; lower_bound; witness } ->
    Printf.sprintf
      "delay target %.4g is statically infeasible: below the interval-bound \
       lower bound %.4g (witness path: %s)"
      target lower_bound
      (if witness = [] then "-" else String.concat " -> " witness)
  | Invariant { what; detail } ->
    Printf.sprintf "invariant %S violated: %s" what detail
  | Fault_injected { site } -> Printf.sprintf "injected fault at %s" site
  | Checkpoint_invalid { file; reason } ->
    Printf.sprintf "checkpoint %s is unusable: %s" file reason
  | Differential_mismatch { job; solver_a; solver_b; value_a; value_b; tolerance }
    ->
    Printf.sprintf
      "differential mismatch on %s: %s gives %.6g, %s gives %.6g (tolerance %g)"
      job solver_a value_a solver_b value_b tolerance
  | Job_timeout { job; seconds } ->
    Printf.sprintf "job %s timed out after %.3g seconds" job seconds
  | Job_crashed { job; detail } -> Printf.sprintf "job %s crashed: %s" job detail
  | Overloaded { depth; limit } ->
    Printf.sprintf
      "server overloaded: admission queue at %d of %d; retry later" depth limit
  | Draining -> "server draining: no new work is admitted"
  | Journal_locked { file } ->
    Printf.sprintf
      "journal %s is locked by another live minflo instance; refusing to \
       interleave writes"
      file
  | Connect_refused { endpoint; attempts } ->
    Printf.sprintf "cannot connect to %s (%d attempt%s); is the daemon up?"
      endpoint attempts
      (if attempts = 1 then "" else "s")
  | Net_timeout { endpoint; op; seconds } ->
    Printf.sprintf "network timeout: no %s from %s within %g seconds" op
      endpoint seconds
  | Torn_response { endpoint; bytes } ->
    Printf.sprintf
      "torn response from %s: connection closed mid-line (%d bytes of an \
       incomplete JSON line)"
      endpoint bytes
  | Internal msg -> Printf.sprintf "internal error: %s" msg

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* ---------- JSON ---------- *)

let to_json e =
  let str s = Json.Str s and int i = Json.Num (float_of_int i) in
  let num = Json.of_float and strs l = Json.List (List.map str l) in
  let opt_str = function Some s -> Json.Str s | None -> Json.Null in
  let obj fields = Json.Obj (("code", str (error_code e)) :: fields) in
  match e with
  | Parse_error { file; line; col; msg } ->
    obj
      [ ("file", opt_str file); ("line", int line); ("col", int col);
        ("msg", str msg) ]
  | Lint_error { rule; file; line; msg } ->
    obj
      [ ("rule", str rule); ("file", opt_str file); ("line", int line);
        ("msg", str msg) ]
  | Unknown_circuit { name; known } ->
    obj [ ("name", str name); ("known", strs known) ]
  | Io_error { file; msg } -> obj [ ("file", str file); ("msg", str msg) ]
  | Disk_full { file } -> obj [ ("file", str file) ]
  | Storage_corrupt { file; detail } ->
    obj [ ("file", str file); ("detail", str detail) ]
  | Infeasible_budget { vertex; label; budget; intrinsic } ->
    obj
      [ ("vertex", int vertex); ("label", str label); ("budget", num budget);
        ("intrinsic", num intrinsic) ]
  | Unsafe_timing { cp; deadline } ->
    obj [ ("cp", num cp); ("deadline", num deadline) ]
  | Solver_diverged { solver; iters } ->
    obj [ ("solver", str solver); ("iters", int iters) ]
  | Numeric { what; value } -> obj [ ("what", str what); ("value", num value) ]
  | Budget_exhausted { resource; spent; limit } ->
    obj
      [ ("resource", str resource); ("spent", num spent); ("limit", num limit) ]
  | Oscillation { area; repeats } ->
    obj [ ("area", num area); ("repeats", int repeats) ]
  | Unmet_target { target; achieved } ->
    obj [ ("target", num target); ("achieved", num achieved) ]
  | Infeasible_target { target; lower_bound; witness } ->
    obj
      [ ("target", num target); ("lower_bound", num lower_bound);
        ("witness", strs witness) ]
  | Invariant { what; detail } ->
    obj [ ("what", str what); ("detail", str detail) ]
  | Fault_injected { site } -> obj [ ("site", str site) ]
  | Checkpoint_invalid { file; reason } ->
    obj [ ("file", str file); ("reason", str reason) ]
  | Differential_mismatch { job; solver_a; solver_b; value_a; value_b; tolerance }
    ->
    obj
      [ ("job", str job); ("solver_a", str solver_a);
        ("solver_b", str solver_b); ("value_a", num value_a);
        ("value_b", num value_b); ("tolerance", num tolerance) ]
  | Job_timeout { job; seconds } ->
    obj [ ("job", str job); ("seconds", num seconds) ]
  | Job_crashed { job; detail } ->
    obj [ ("job", str job); ("detail", str detail) ]
  | Overloaded { depth; limit } ->
    obj [ ("depth", int depth); ("limit", int limit) ]
  | Draining -> obj []
  | Journal_locked { file } -> obj [ ("file", str file) ]
  | Connect_refused { endpoint; attempts } ->
    obj [ ("endpoint", str endpoint); ("attempts", int attempts) ]
  | Net_timeout { endpoint; op; seconds } ->
    obj [ ("endpoint", str endpoint); ("op", str op); ("seconds", num seconds) ]
  | Torn_response { endpoint; bytes } ->
    obj [ ("endpoint", str endpoint); ("bytes", int bytes) ]
  | Internal msg -> obj [ ("msg", str msg) ]

(* ---------- event log ---------- *)

type event = { severity : severity; source : string; message : string }

type log = { events : event Vec.t }

let dummy_event = { severity = Debug; source = ""; message = "" }

let create_log () = { events = Vec.create ~dummy:dummy_event () }

let log t severity ~source message =
  ignore (Vec.push t.events { severity; source; message })

let logf t severity ~source fmt =
  Printf.ksprintf (fun message -> log t severity ~source message) fmt

let events t = Vec.to_list t.events

let events_above t sev =
  List.filter (fun e -> severity_rank e.severity >= severity_rank sev) (events t)

let max_severity t =
  if Vec.length t.events = 0 then None
  else
    Some
      (Vec.fold
         (fun acc e -> if severity_rank e.severity > severity_rank acc then e.severity else acc)
         Debug t.events)

let event_to_string e =
  Printf.sprintf "[%s] %s: %s" (severity_to_string e.severity) e.source e.message
