(** Human-readable rendering of findings and exit-code policy. *)

val render : Finding.t list -> string
(** One finding per line, followed by a [N error(s), M warning(s)] summary
    line. Empty input renders as ["no findings\n"]. *)

val exit_code : ?fail_on:Rule.severity -> Finding.t list -> int
(** Map findings to the CLI exit-code convention: [0] when nothing reaches
    the [fail_on] threshold (default [Error]), [2] — the "bad input" code —
    otherwise. *)
