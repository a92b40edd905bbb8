exception Simulated_crash of { site : string; boundary : int }

(* The crash must unwind through every best-effort [try … with Sys_error _
   | Unix.Unix_error _ -> ()] guard in the writers, so it is its own
   exception; and because some supervisor paths catch [exn] wholesale, the
   [frozen] flag below keeps the disk state honest even when the exception
   itself is swallowed: once crashed, every instrumented call re-raises. *)

let plan : Fault.t option ref = ref None
let boundary = ref 0
let frozen = ref false

let set_fault p = plan := p
let boundaries () = !boundary
let crashed () = !frozen

let reset () =
  boundary := 0;
  frozen := false

let fire site = match !plan with None -> None | Some f -> Fault.fire f ~site

let crash_check () =
  if !frozen then raise (Simulated_crash { site = "io.crash-after-write"; boundary = !boundary })

(* ---------- EINTR-retrying primitives ---------- *)

let rec read_retry fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

let rec write_substring_retry fd s off len =
  try Unix.write_substring fd s off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_substring_retry fd s off len

let really_write_substring fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + write_substring_retry fd s !off (len - !off)
  done

(* ---------- instrumented operations ---------- *)

let io_error path exn_or_msg =
  Diag.Io_error { file = path; msg = exn_or_msg }

let of_unix_error path op = function
  | Unix.ENOSPC -> Diag.Disk_full { file = path }
  | e -> io_error path (Printf.sprintf "%s: %s" op (Unix.error_message e))

(* Write [sub]-many bytes of [s] (EINTR/short-write looping), typed. *)
let write_prefix fd ~path s sub =
  let off = ref 0 in
  let err = ref None in
  while !err = None && !off < sub do
    match write_substring_retry fd s !off (sub - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (e, _, _) -> err := Some (of_unix_error path "write" e)
  done;
  match !err with None -> Ok () | Some e -> Error e

let write_all fd ~path s =
  crash_check ();
  incr boundary;
  let len = String.length s in
  match fire "io.crash-after-write" with
  | Some action ->
    let wrote =
      match action with
      | Fault.Fail _ -> len
      | Fault.Perturb frac ->
        let frac = Float.max 0.0 (Float.min 1.0 frac) in
        int_of_float (frac *. float_of_int len)
    in
    ignore (write_prefix fd ~path s wrote);
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    frozen := true;
    raise (Simulated_crash { site = "io.crash-after-write"; boundary = !boundary })
  | None -> (
    match fire "io.enospc" with
    | Some _ -> Error (Diag.Disk_full { file = path })
    | None -> (
      match fire "io.short-write" with
      | Some _ ->
        let wrote = len / 2 in
        (match write_prefix fd ~path s wrote with
        | Ok () ->
          Error
            (io_error path
               (Printf.sprintf "short write (injected): wrote %d of %d bytes"
                  wrote len))
        | Error e -> Error e)
      | None -> write_prefix fd ~path s len))

let fsync fd ~path =
  crash_check ();
  match fire "io.fsync-lost" with
  | Some _ -> Ok () (* claims durability it did not deliver *)
  | None -> (
    try Ok (Unix.fsync fd)
    with Unix.Unix_error (e, _, _) -> Error (of_unix_error path "fsync" e))

let read_file path =
  crash_check ();
  match fire "io.eio-read" with
  | Some _ -> Error (io_error path "read: injected I/O error (EIO)")
  | None -> (
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (of_unix_error path "open" e)
    | fd ->
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        match read_retry fd chunk 0 (Bytes.length chunk) with
        | 0 -> Ok (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        | exception Unix.Unix_error (e, _, _) ->
          Error (of_unix_error path "read" e)
      in
      let r = loop () in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r)

let open_for_write ?(append = false) path =
  let flags =
    [ Unix.O_WRONLY; Unix.O_CREAT; (if append then Unix.O_APPEND else Unix.O_TRUNC) ]
  in
  try Ok (Unix.openfile path flags 0o644)
  with Unix.Unix_error (e, _, _) -> Error (of_unix_error path "open" e)

let write_file path content =
  crash_check ();
  match open_for_write path with
  | Error e -> Error e
  | Ok fd ->
    let r = write_all fd ~path content in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    r

let rec mkdirs dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (io_error dir "exists and is not a directory")
  else
    match mkdirs (Filename.dirname dir) with
    | Error _ as e -> e
    | Ok () -> (
      try
        Unix.mkdir dir 0o755;
        Ok ()
      with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | Unix.Unix_error (e, _, _) ->
        Error (io_error dir (Unix.error_message e)))

let fsync_dir_best_effort dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let atomic_replace path content =
  crash_check ();
  let tmp = path ^ ".tmp" in
  let cleanup_tmp () = try Unix.unlink tmp with Unix.Unix_error _ -> () in
  match open_for_write tmp with
  | Error e -> Error e
  | Ok fd -> (
    let written =
      match write_all fd ~path:tmp content with
      | Ok () -> fsync fd ~path:tmp
      | Error _ as e -> e
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match written with
    | Error e ->
      cleanup_tmp ();
      Error e
    | Ok () -> (
      match fire "io.torn-rename" with
      | Some _ ->
        (* the graceful twin of "crashed between write and rename": the
           temp file stays behind for the stale-tmp GC to find. *)
        Error
          (io_error path
             (Printf.sprintf "rename torn (injected): temp file left at %s" tmp))
      | None -> (
        (* the rename is its own crash boundary: Perturb-mode crashes
           before it (tmp orphaned), Fail-mode after it (replace landed,
           directory entry possibly unsynced). *)
        crash_check ();
        incr boundary;
        let renamed_before_crash =
          match fire "io.crash-after-write" with
          | Some (Fault.Fail _) ->
            (try Unix.rename tmp path with Unix.Unix_error _ -> ());
            frozen := true;
            true
          | Some (Fault.Perturb _) ->
            frozen := true;
            true
          | None -> false
        in
        if renamed_before_crash then
          raise
            (Simulated_crash { site = "io.crash-after-write"; boundary = !boundary });
        match Unix.rename tmp path with
        | () ->
          fsync_dir_best_effort (Filename.dirname path);
          Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          cleanup_tmp ();
          Error (of_unix_error path "rename" e))))

let sweep_tmp ?(recurse = false) dir =
  let removed = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun name ->
          let p = Filename.concat dir name in
          let is_dir = try Sys.is_directory p with Sys_error _ -> false in
          if Filename.check_suffix name ".tmp" && not is_dir then (
            match Unix.unlink p with
            | () -> removed := p :: !removed
            | exception Unix.Unix_error _ -> ())
          else if recurse && is_dir then walk p)
        entries
  in
  (try walk dir with Sys_error _ -> ());
  List.sort compare !removed

(* ---------- line sinks ---------- *)

type sink = { s_path : string; s_fd : Unix.file_descr; mutable s_closed : bool }

let create_sink ?(append = false) path =
  crash_check ();
  match open_for_write ~append path with
  | Error e -> Error e
  | Ok fd -> Ok { s_path = path; s_fd = fd; s_closed = false }

let sink_write_line s line =
  if s.s_closed then Error (io_error s.s_path "write: sink is closed")
  else write_all s.s_fd ~path:s.s_path (line ^ "\n")

let sink_close s =
  if not s.s_closed then begin
    s.s_closed <- true;
    try Unix.close s.s_fd with Unix.Unix_error _ -> ()
  end
