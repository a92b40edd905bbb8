(** Small descriptive-statistics helpers for the benchmark harness. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. @raise Invalid_argument on an empty array. *)

val median : float array -> float

val sum : float array -> float
