(** Gate-sizing Elmore coefficient extraction (the paper's evaluated mode).

    One timing vertex per gate. A gate [i] of drive resistance [R_i / x_i]
    charges its own parasitic ([a_ii = R C_par]), the input capacitance of
    each fanout gate [j] ([a_ij = R C_in(j)], one term per connected pin),
    wire capacitance per fanout branch and the fixed primary-output load
    ([b_i]) — exactly Eq. (4) of the paper. *)

val of_netlist : Tech.t -> Minflo_netlist.Netlist.t -> Delay_model.t
(** The returned model's vertex ids equal gate *ranks*: the k-th gate in
    netlist node order is vertex k (primary inputs carry no vertex). Use
    {!gate_vertex} to map. *)

val gate_vertex : Minflo_netlist.Netlist.t -> (int, int) Hashtbl.t
(** Netlist node id -> timing vertex id, for gate nodes. *)

val with_wires : Tech.t -> Minflo_netlist.Netlist.t -> Delay_model.t
(** Simultaneous gate and wire sizing (Section 2.1): every gate-output net
    gets its own sized vertex, inserted between the driver and its
    receivers. Widening a wire by [x] divides its resistance and multiplies
    its capacitance by [x] — the same simple-monotonic form as a gate, so
    the whole D/W machinery applies unchanged. Vertices [0 .. G-1] are the
    gates (as in {!of_netlist}); vertex [G + k] is the wire of the k-th
    gate. The wire of a primary-output net carries the pad load and becomes
    the timing sink. *)
