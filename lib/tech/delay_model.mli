(** The sizing problem in the paper's canonical coefficient form.

    Every vertex [i] of the timing DAG carries a size variable [x_i] and a
    delay that admits the simple monotonic decomposition of Definition 1/2:

    {v delay_i(x) * x_i = a_ii * x_i + sum_{j<>i} a_ij * x_j + b_i v}

    equivalently [delay_i = a_self_i + (sum a_ij x_j + b_i) / x_i], with all
    coefficients non-negative and every [j] with [a_ij <> 0] strictly
    downstream of [i] — the (block) upper-triangular structure of (D - A)
    from Section 2.3. Both the gate-sizing instance ({!Elmore}) and the
    transistor-sizing instance ({!Transistor}) produce this type; STA, the
    D-phase, the W-phase and TILOS all consume it, so the whole optimizer is
    agnostic to which sizing granularity is in effect.

    The model is stored once, flat: int-indexed CSR arrays (offsets +
    targets) for the fanout/fanin adjacency, the coefficient rows and their
    reverse (loader) index, plus the topological order and the elimination
    blocks, all computed by {!make}. The timing hot loops (batch STA, the
    incremental engine, TILOS, the D- and W-phases) read these arrays
    directly.

    Iteration orders are load-bearing: float sums and strict-[>] tie-breaks
    over these rows decide engine trajectories, proof-carrying traces and
    the bench baselines, so each field documents its order and
    [test/test_arena.ml] pins the whole layout by digest. *)

type t = private {
  n : int;  (** vertex count. *)
  m : int;  (** edge count. *)
  edge_src : int array;  (** per edge id, in insertion order. *)
  edge_dst : int array;
  fanout_off : int array;  (** [n+1] offsets into [fanout]. *)
  fanout : int array;
      (** successors of [i] at [fanout_off.(i) .. fanout_off.(i+1)-1], in
          ascending edge id (insertion) order. *)
  fanin_off : int array;
  fanin : int array;  (** predecessors, in ascending edge id order. *)
  coeff_off : int array;
  coeff_j : int array;
      (** per vertex [i], the [j] with [a_ij <> 0] ([j <> i]), in the
          [Hashtbl.to_seq] order of the accumulator handed to {!make}. *)
  coeff_a : float array;  (** the matching [a_ij]. *)
  loader_off : int array;
  loader_k : int array;
      (** reverse coefficient index: the vertices [k] with [a_kj <> 0] for
          each [j], [k] descending and right-to-left within a row — the
          order of the historical cons-built index, which the sensitivity
          fixpoint's float sums depend on. *)
  loader_a : float array;
  topo : int array;
      (** FIFO Kahn order: sources ascending, fanout rows walked in
          order. *)
  pos : int array;  (** [pos.(topo.(k)) = k]. *)
  sinks : int array;
      (** the vertices with [is_sink] set, ascending — the order an
          [Array.iteri] scan of [is_sink] visits them. *)
  blocks : int array array;
      (** The blocks (vertex groups, members ascending) in topological
          order of the block quotient of the union of the timing graph and
          the coefficient dependencies — the order in which backward
          substitution on [(D - A) X = B] proceeds (Section 2.3). *)
  a_self : float array;      (** [a_ii]: size-independent intrinsic delay. *)
  b : float array;           (** fixed load term per vertex. *)
  area_weight : float array; (** objective weight of [x_i] (device count). *)
  is_sink : bool array;      (** vertex constrained by the timing spec [T]. *)
  block : int array;
      (** block id per vertex ((D - A) is *block* upper triangular: gate
          sizing has one vertex per block; transistor sizing groups the
          transistors of a gate, whose parallel devices are mutually
          incomparable, into one block). *)
  labels : string array;
  min_size : float;
  max_size : float;
}

val make :
  n:int ->
  edges:(int * int) list ->
  a_self:float array ->
  coeffs:(int, float) Hashtbl.t array ->
  b:float array ->
  area_weight:float array ->
  is_sink:bool array ->
  block:int array ->
  labels:string array ->
  min_size:float ->
  max_size:float ->
  t
(** [make ~n ~edges ...] builds and validates the model over vertices
    [0 .. n-1]. [edges] are the timing edges in insertion order (edge id =
    list position; parallel edges allowed); [coeffs.(i)] maps [j] to
    [a_ij]. @raise Invalid_argument on a length mismatch, an out-of-range
    edge or coefficient, a cycle, bad size bounds, no sink, a negative or
    self coefficient, or a coefficient structure that is not block upper
    triangular. *)

val num_vertices : t -> int

val is_source : t -> int -> bool
(** No fanin. *)

val delay : t -> float array -> int -> float
(** [delay m x i]: Elmore delay of vertex [i] under sizes [x], summing the
    coefficient row in its stored order. *)

val delays : t -> float array -> float array

val delays_into : t -> float array -> float array -> unit
(** [delays_into m x out] fills [out] with every vertex delay under [x]. *)

val arrivals_into : t -> delays:float array -> float array -> unit
(** One forward max-propagation sweep in [topo] order into a caller-owned
    array (arrival at the input of each vertex, 0 at sources); does not
    tick the sweep counter (callers decide). *)

val area : t -> float array -> float
(** Weighted area [sum w_i * x_i]. *)

val uniform_sizes : t -> float -> float array

val check_sizes : t -> float array -> (unit, string) result
(** Bounds check for a candidate sizing vector. *)
