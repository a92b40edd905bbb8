(** Client side of the serve protocol, with the resilience layer every
    caller ([minflo client], [minflo loadgen], the tests) goes through:
    bounded retries with exponential backoff and seeded jitter, per-op
    deadlines, and typed network failures — a dead daemon, a stalled
    peer, or a torn response line can never hang a caller forever or
    surface as a parse crash.

    Retrying is safe because every protocol op is idempotent: [submit]
    dedupes on the job key (a resend of an accepted job answers
    [resubmitted]), the query ops are reads, and [cancel] is stable once
    terminal. A {e response the daemon produced} — even a typed rejection
    like [overloaded] — is never retried: it is an answer. Only transport
    failures are: [connect-refused], [net-timeout], [torn-response], and
    untyped I/O errors. *)

(** {1 Retrying sessions} *)

type retry = {
  attempts : int;          (** total tries, [>= 1]. *)
  backoff_base : float;    (** first retry delay, seconds; doubles. *)
  timeout : float option;  (** per-attempt connect + I/O deadline. *)
  seed : int;              (** jitter stream — replays exactly. *)
}

val default_retry : retry
(** [attempts = 3; backoff_base = 0.1; timeout = Some 30.0; seed = 0]. *)

type session

val session : ?retry:retry -> Transport.endpoint -> session
(** A lazily-connected session. Connections are dialed on first use and
    redialed after any failure (the old connection's state is unknowable
    — half a response may be in flight — so it is always dropped). *)

val rpc :
  session -> Minflo_util.Json.t -> (Minflo_util.Json.t, Minflo_robust.Diag.error) result
(** Send one request and await its one-line response, with the session's
    retry policy. An attempt fails with [Net_timeout] past the deadline
    (the session's [timeout] bounds the connect and every read and write),
    [Torn_response] when the connection closes mid-line or the line does
    not parse, and [Io_error] otherwise. With [{"op":"result",
    "wait":true}] it blocks (up to the deadline) while the daemon parks
    the connection. Delay before retry [k]
    is [backoff_base * 2^(k-1)], jittered multiplicatively in
    [\[0.5, 1.5)] from the seeded stream. The final error reports how
    many attempts were made where the type carries it. *)

val close_session : session -> unit

val one_shot :
  ?retry:retry ->
  endpoint:Transport.endpoint ->
  Minflo_util.Json.t ->
  (Minflo_util.Json.t, Minflo_robust.Diag.error) result
(** [session], one {!rpc}, [close_session]. *)
