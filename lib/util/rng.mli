(** Deterministic pseudo-random numbers (splitmix64).

    All stochastic pieces of the repository (random circuit generation,
    property-test case generation seeds, workload shuffling) draw from this
    generator so that every experiment is reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
