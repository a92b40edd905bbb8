module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json
module Rng = Minflo_util.Rng

(* ---------- one connection ---------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  endpoint : Transport.endpoint;
  timeout : float option;
}

let connect ?timeout endpoint : (conn, Diag.error) result =
  match Transport.connect ?timeout endpoint with
  | Error _ as e -> e
  | Ok fd ->
    (match timeout with
    | Some s -> Transport.set_io_timeout fd s
    | None -> ());
    Ok { fd; buf = Buffer.create 256; endpoint; timeout }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let name conn = Transport.to_string conn.endpoint

let timed_out conn op =
  Diag.Net_timeout
    { endpoint = name conn;
      op;
      seconds = Option.value conn.timeout ~default:0.0 }

(* A response must be one complete JSON line. EOF mid-line — the peer (or
   a fault between us) closed after writing part of a line — is the typed
   torn-response, never a parse crash; so is a complete line that does
   not parse, since a line we cannot decode and a line we never fully
   received are the same event to the caller: the answer is unusable and
   the request is safe to resend (every op is idempotent). *)
let read_line conn : (string, Diag.error) result =
  let rec take () =
    let s = Buffer.contents conn.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
      Ok (String.sub s 0 i)
    | None -> (
      let bytes = Bytes.create 4096 in
      match Unix.read conn.fd bytes 0 4096 with
      | 0 ->
        if Buffer.length conn.buf > 0 then
          Error
            (Diag.Torn_response
               { endpoint = name conn; bytes = Buffer.length conn.buf })
        else
          Error
            (Diag.Io_error
               { file = name conn; msg = "connection closed by daemon" })
      | n ->
        Buffer.add_subbytes conn.buf bytes 0 n;
        take ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* SO_RCVTIMEO expired: the peer is up but silent *)
        Error (timed_out conn "response")
      | exception Unix.Unix_error (e, _, _) ->
        Error (Diag.Io_error { file = name conn; msg = Unix.error_message e }))
  in
  take ()

let request conn (j : Json.t) : (Json.t, Diag.error) result =
  let line = Json.to_string j ^ "\n" in
  let n = String.length line in
  let rec write_all off =
    if off >= n then Ok ()
    else
      match Unix.write_substring conn.fd line off (n - off) with
      | written -> write_all (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (timed_out conn "write")
      | exception Unix.Unix_error (e, _, _) ->
        Error (Diag.Io_error { file = name conn; msg = Unix.error_message e })
  in
  match write_all 0 with
  | Error _ as e -> e
  | Ok () -> (
    match read_line conn with
    | Error _ as e -> e
    | Ok line -> (
      match Json.parse line with
      | Ok j -> Ok j
      | Error _ ->
        Error
          (Diag.Torn_response
             { endpoint = name conn; bytes = String.length line })))

(* ---------- retrying sessions ---------- *)

type retry = {
  attempts : int;
  backoff_base : float;
  timeout : float option;
  seed : int;
}

let default_retry =
  { attempts = 3; backoff_base = 0.1; timeout = Some 30.0; seed = 0 }

type session = {
  s_endpoint : Transport.endpoint;
  s_retry : retry;
  rng : Rng.t;
  mutable conn : conn option;
}

let session ?(retry = default_retry) endpoint =
  { s_endpoint = endpoint;
    s_retry = { retry with attempts = max 1 retry.attempts };
    rng = Rng.create retry.seed;
    conn = None }

let close_session s =
  match s.conn with
  | Some c ->
    close c;
    s.conn <- None
  | None -> ()

(* Every protocol op is idempotent (submit dedupes on the job key;
   status/result/stats are reads; cancel of a cancelled job is terminal
   either way), so any transport-level failure is safe to resend. What is
   NOT retryable is a response the daemon actually produced — including a
   typed rejection like [overloaded]: that is an answer, not a failure. *)
let retryable = function
  | Diag.Connect_refused _ | Diag.Net_timeout _ | Diag.Torn_response _
  | Diag.Io_error _ ->
    true
  | _ -> false

(* exponential backoff with multiplicative jitter in [0.5, 1.5): retries
   from many clients hitting one recovering daemon decorrelate, and the
   sequence still replays exactly from the session's seed *)
let backoff s k =
  let base = s.s_retry.backoff_base *. (2.0 ** float_of_int (k - 1)) in
  base *. (0.5 +. Rng.float s.rng 1.0)

let finalize ~attempts = function
  | Diag.Connect_refused { endpoint; _ } ->
    Diag.Connect_refused { endpoint; attempts }
  | e -> e

let rpc s (j : Json.t) : (Json.t, Diag.error) result =
  let rec attempt k =
    let outcome =
      match s.conn with
      | Some c -> request c j
      | None -> (
        match connect ?timeout:s.s_retry.timeout s.s_endpoint with
        | Error e -> Error e
        | Ok c ->
          s.conn <- Some c;
          request c j)
    in
    match outcome with
    | Ok r -> Ok r
    | Error e ->
      (* the connection is in an unknown state after any failure: half a
         response may be buffered, or the fd may be dead — drop it and
         let the retry dial fresh *)
      close_session s;
      if retryable e && k < s.s_retry.attempts then begin
        Unix.sleepf (backoff s k);
        attempt (k + 1)
      end
      else Error (finalize ~attempts:k e)
  in
  attempt 1

let one_shot ?retry ~endpoint (j : Json.t) : (Json.t, Diag.error) result =
  let s = session ?retry endpoint in
  let r = rpc s j in
  close_session s;
  r
