(** Binary min-heap keyed by integer priorities, with support for
    decrease-key via lazy deletion.

    Used by the successive-shortest-path solver's Dijkstra, where the order
    ties pop in picks the augmenting paths.
    Elements are integers (node/gate ids); priorities are [int] keys. *)

type t

val create : ?capacity:int -> unit -> t

val push : t -> key:int -> int -> unit
(** [push h ~key x] inserts [x] with priority [key]. If [x] is already
    present, the new entry supersedes the old one (lazy deletion): only the
    most recent key for [x] will ever be popped. *)

val pop_min : t -> (int * int) option
(** [pop_min h] removes and returns [(key, x)] with minimal [key], or [None]
    if the heap is empty. Stale superseded entries are skipped. *)
