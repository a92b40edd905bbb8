(** Solver fallback chains.

    A rung is a named attempt at producing a value; {!run} tries the rungs in
    order and returns the first success together with which rung produced it
    and the typed failures of every rung tried before it. Only failures that
    a *different* solver could plausibly avoid are retried (divergence,
    numeric trouble, injected faults); structural failures — an infeasible
    budget, an exhausted run budget, a bug — abort the chain immediately so
    they are never masked by a weaker solver. *)

type 'a rung = { name : string; attempt : unit -> ('a, Diag.error) result }

type 'a success = {
  value : 'a;
  rung : string;  (** name of the rung that succeeded. *)
  failures : (string * Diag.error) list;
      (** rungs tried and failed before it, in order. *)
}

val retryable : Diag.error -> bool
(** [Solver_diverged], [Numeric] and [Fault_injected] are retryable;
    everything else aborts the chain. *)

val run :
  ?log:Diag.log ->
  'a rung list ->
  ('a success, Diag.error) result
(** [Error] carries the last failure when every rung fails (or the first
    non-retryable one). Each failed rung is logged at [Warning] severity when
    a [log] is supplied. @raise Invalid_argument on an empty chain. *)
