(** Deterministic load generator for the serve daemon.

    Drives a configurable mix through one connection: well-formed sizing
    jobs (with optional artificial [sleep_seconds] latency, to make
    overload and drain windows reproducible), jobs the lint gate must
    reject, and jobs with a deliberately tiny run budget (exercising the
    best-feasible-on-exhaustion path). Then polls every accepted job to a
    terminal state and returns a JSON summary — counts of accepted /
    overloaded / draining / lint-rejected submissions and of terminal
    states, p50/p99 submit-to-terminal latency percentiles (observed at
    [poll_interval] granularity), plus the daemon's own [stats] response.
    The CI serve-smoke job asserts on this summary.

    All traffic goes through a retrying {!Client.session}, so a run
    pointed through the chaos proxy rides out injected connection drops,
    stalls and torn lines — the summary then measures {e end-to-end}
    resilience, not one lucky connection. An id accepted twice (a retried
    submit whose first send did land) is counted once. *)

type config = {
  endpoint : Transport.endpoint;
  retry : Client.retry;
  circuits : string list;
  factor : float;
  solver : Minflo_sizing.Dphase.solver;
  count : int;
  sleep_seconds : float;
  lint_bad : int;
  tiny_budget : int;
  poll_interval : float;
  deadline_seconds : float;
}

val run : config -> (Minflo_util.Json.t, Minflo_robust.Diag.error) result
(** [Error] only on transport failure that survived the retry budget, or
    on the polling deadline; rejections by the daemon are data, counted
    in the summary. *)
