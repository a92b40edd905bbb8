module Diag = Minflo_robust.Diag
module Io = Minflo_robust.Io
module Mono = Minflo_robust.Mono
module Json = Minflo_util.Json

type t = {
  path : string;
  fd : Unix.file_descr;
  t0 : float;
  mutable seq : int;
  mutable last_error : Diag.error option;
}

let path t = t.path

let last_error t = t.last_error

let event_checked t ?job ?error ?(fields = []) name =
  t.seq <- t.seq + 1;
  let dt = Mono.now () -. t.t0 in
  let parts =
    [ ("event", Json.Str name);
      ("seq", Json.Num (float_of_int t.seq));
      ("t", Json.Num (Float.round (dt *. 1000.0) /. 1000.0)) ]
    @ (match job with Some j -> [ ("job", Json.Str j) ] | None -> [])
    @ fields
    @ (match error with
      | Some e ->
        [ ("code", Json.Str (Diag.error_code e)); ("error", Diag.to_json e) ]
      | None -> [])
  in
  let line = Json.to_string (Json.Obj parts) in
  let r =
    match Io.write_all t.fd ~path:t.path (line ^ "\n") with
    | Ok () -> Io.fsync t.fd ~path:t.path
    | Error _ as e -> e
  in
  (match r with Error e -> t.last_error <- Some e | Ok () -> ());
  r

(* a journaling failure must never kill the run it documents; the typed
   error is remembered in [last_error] for callers that check afterwards *)
let event t ?job ?error ?fields name =
  ignore (event_checked t ?job ?error ?fields name)

let open_append path =
  try
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    (* Advisory whole-file lock: the journal's crash-safety story assumes a
       single writer, so a second live minflo instance pointed at the same
       run directory must fail fast with a typed diagnostic instead of
       interleaving (and thereby corrupting) event lines. The lock is a
       POSIX record lock: it dies with the process, so a SIGKILLed daemon
       never wedges its run directory, and a restarted one takes over
       cleanly. *)
    let locked =
      try
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        Unix.lockf fd Unix.F_TLOCK 0;
        true
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES | Unix.EWOULDBLOCK), _, _)
        ->
        false
      | Unix.Unix_error _ ->
        (* a filesystem without lock support (some network mounts) must not
           make journaling unusable; fall back to lockless appends there *)
        true
    in
    if not locked then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Diag.Error_exn (Diag.Journal_locked { file = path }))
    end;
    (* A crash mid-write can leave the file without a final newline. If we
       appended straight after such a torn line, the next event would glue
       onto it and the reader would drop both. Terminate the torn line
       first; the reader already drops a line that does not parse. *)
    (try
       let len = Unix.lseek fd 0 Unix.SEEK_END in
       if len > 0 then begin
         ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
         let b = Bytes.create 1 in
         if Io.read_retry fd b 0 1 = 1 && Bytes.get b 0 <> '\n' then
           ignore (Io.write_substring_retry fd "\n" 0 1)
       end
     with Unix.Unix_error _ -> ());
    (* GC the orphans a crash mid-[Io.atomic_replace] leaves behind
       (checkpoint/result [.tmp] files anywhere under the run directory).
       Done after taking the single-writer lock, so a live instance's
       in-flight temp file is never swept from under it. *)
    let swept = Io.sweep_tmp ~recurse:true (Filename.dirname path) in
    let t = { path; fd; t0 = Mono.now (); seq = 0; last_error = None } in
    if swept <> [] then
      event t
        ~fields:
          [ ("count", Json.Num (float_of_int (List.length swept)));
            ("files", Json.List (List.map (fun f -> Json.Str f) swept)) ]
        "tmp-swept";
    Ok t
  with
  | Unix.Unix_error (e, _, _) ->
    Error (Diag.Io_error { file = path; msg = Unix.error_message e })
  | Diag.Error_exn e -> Error e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ---------- reading ---------- *)

(* the members of every line that parses as a JSON object, in journal
   order. A line torn by a crash mid-write is a strict prefix of an
   object, which never parses, so it is dropped. *)
let read path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match In_channel.input_line ic with
      | None -> List.rev acc
      | Some line -> (
        match Json.parse line with
        | Ok (Json.Obj fields) -> go (fields :: acc)
        | Ok _ | Error _ -> go acc)
    in
    Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> go [])

let scan path =
  List.filter_map
    (fun fields ->
      match List.assoc_opt "event" fields with
      | Some (Json.Str ev) -> Some (ev, Json.Obj fields)
      | _ -> None)
    (read path)

let volatile_keys = [ "seq"; "t"; "backoff_seconds"; "pid" ]

let canonical path =
  let keyed =
    List.map
      (fun fields ->
        ( Option.value ~default:"" (Json.str_field "job" (Json.Obj fields)),
          Json.to_string
            (Json.Obj
               (List.filter
                  (fun (k, _) -> not (List.mem k volatile_keys))
                  fields)) ))
      (read path)
  in
  (* stable sort on the job id: within one job the order events were
     journaled in is preserved (and is deterministic — see Supervisor's
     pipe drain); lines without a job field sort first in original order *)
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed)

let completed path =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (event, j) ->
      if event = "job-ok" then
        match (Json.str_field "job" j, Json.float_field "area" j) with
        | Some job, Some area -> Hashtbl.replace table job area
        | _ -> ())
    (scan path);
  table
