(** Static timing analysis over a {!Minflo_tech.Delay_model} DAG — the
    arrival/required/slack attributes of Eq. (8).

    Conventions follow the paper: [AT(i)] is the arrival at the *input* of
    vertex [i] ([max] over fanins of their arrival plus their delay; 0 at
    sources); the circuit delay is [max (AT(i) + delay(i))]; required times
    are computed against an explicit [deadline] (pass the critical path to
    recover the paper's [CP(G)]-anchored slacks, or the timing target [T]
    for optimization); [sl(i) = RT(i) - AT(i)];
    [esl(i->j) = RT(j) - AT(i) - delay(i)]. *)

type t = {
  arrival : float array;
  required : float array;
  slack : float array;
  critical_path : float;  (** delay of the longest path, independent of the
                              deadline *)
  deadline : float;
}

val analyze :
  Minflo_tech.Delay_model.t -> delays:float array -> deadline:float -> t

val arrivals : Minflo_tech.Delay_model.t -> delays:float array -> float array
(** Arrival times only (one forward sweep). *)

val critical_path_only : Minflo_tech.Delay_model.t -> delays:float array -> float
(** Just [CP(G)] — cheaper when required times are not needed. *)

val edge_slack : t -> delays:float array -> Minflo_tech.Delay_model.t ->
  int -> float
(** Slack of the edge with the given id. *)

val critical_vertices : ?eps:float -> t -> int list
(** Vertices with slack within [eps] of the minimum slack. *)

val worst_path : Minflo_tech.Delay_model.t -> delays:float array -> int list
(** One maximal-delay path, source to sink, by greedy backtrace. *)
