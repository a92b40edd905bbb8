(** A deterministic network-fault proxy for end-to-end chaos tests.

    Sits between real clients and a real daemon, forwarding the protocol
    line by line, and injects the transport failures of
    {!Minflo_robust.Fault}'s [net.*] catalog on a seeded plan — so a
    chaos run replays exactly from its seed:

    - [net.accept-drop] — accept the client, close immediately (the
      classic refused/reset connect);
    - [net.read-stall] — hold a request line for [delay_seconds] before
      forwarding (exercises server-side connection deadlines and
      client-side response timeouts);
    - [net.torn-write] — forward half of a response line, no newline,
      then hard-close (the client must produce the typed
      [torn-response], never a parse crash);
    - [net.delayed-response] — hold a response line for
      [delay_seconds].

    The proxy itself holds no protocol state beyond line buffers, so
    whatever it does, correctness remains the daemon's (journal) and the
    client's (retry/idempotency) problem — which is the point: a loadgen
    run through the proxy must still end with every accepted job
    resolved, bit-identical to a fault-free run.

    Prints its actual listening endpoint (port [0] resolved) on stdout,
    runs until SIGTERM/SIGINT, then writes a JSON report of per-site
    fired counts to [report_path]. *)

type fault_arm = {
  site : string;        (** a [net.*] member of {!Minflo_robust.Fault.all_points}. *)
  count : int option;   (** fire at most this many times (default: every visit). *)
  prob : float option;  (** per-visit firing probability (default 1.0). *)
}

type config = {
  listen : Transport.endpoint;
  upstream : Transport.endpoint;
  faults : fault_arm list;
  seed : int;              (** drives probabilistic firing; replays exactly. *)
  delay_seconds : float;   (** stall/delay duration per injected hold. *)
  connect_timeout : float; (** upstream dial deadline per connection. *)
  report_path : string option;
}

val default_config : config
(** Listens on [127.0.0.1:0], upstream [minflo.sock], no faults armed,
    [seed = 0; delay_seconds = 0.2; connect_timeout = 5.0]. *)

val run : ?config:config -> unit -> (unit, Minflo_robust.Diag.error) result
(** Blocks until signalled. [Error] if the listen endpoint cannot be
    bound, or if the report cannot be written to [report_path] (the typed
    {!Minflo_robust.Io.write_file} error; the proxy has already stopped). *)
