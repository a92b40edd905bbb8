(** Growable arrays.

    A thin dynamic-array layer over [Array], used throughout the flow and
    timing engines where node/arc counts are discovered incrementally. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector. [dummy] fills unused slots and is
    never observable through the API. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument if out of range. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** [push v x] appends [x] and returns its index. *)

val pop : 'a t -> 'a
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
