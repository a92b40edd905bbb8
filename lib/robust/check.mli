(** Post-phase invariant checking.

    The optimizer's phases come with mathematical guarantees (flow
    conservation and reduced-cost optimality of the MCF solution, FSDU
    non-negativity, the W-phase fixpoint meeting its budgets, sizes finite
    and within bounds). A {!t} accumulates the outcome of asserting each of
    them after the phase that establishes it, without aborting the run:
    failures become data — typed {!Diag.Invariant} errors a caller or the
    [--check] CLI flag can act on. *)

type finding = { name : string; ok : bool; detail : string }

type t

val create : unit -> t

val record : t -> string -> (unit, string) result -> unit
(** [record t name verdict] records a finding named [name]; [Error detail]
    marks it failed. *)

val failures : t -> finding list

val first_failure : t -> Diag.error option
(** The first failed finding as an [Invariant] error. *)

val to_string : t -> string
(** One line per finding, [ok]/[FAIL] tagged. *)
