(** Technology parameters.

    The paper simulates with 0.13 um parameters from an SRC report we cannot
    redistribute; {!default_130nm} carries representative unit-transistor
    values instead. Only the products R*C enter the Elmore model, so the
    area/delay trade-off *shape* — everything Table 1 and Figure 7 compare —
    is invariant to the absolute calibration (see DESIGN.md).

    Conventions: transistor sizes are multiples of the minimum channel
    width; resistances are for a unit-width device and scale as [r / x];
    capacitances are per unit width and scale as [c * x]. *)

type t = {
  name : string;
  r_n : float;      (** unit NMOS on-resistance (ohm) *)
  r_p : float;      (** unit PMOS on-resistance (ohm) *)
  c_gate : float;   (** gate capacitance per unit width (fF) *)
  c_drain : float;  (** drain/source junction capacitance per unit width (fF) *)
  c_wire : float;   (** wire capacitance charged per fanout branch (fF) *)
  c_load : float;   (** fixed capacitive load on each primary output (fF) *)
  p_ratio : float;  (** PMOS/NMOS width ratio used inside gates *)
  r_wire : float;
      (** resistance of a minimum-width wire segment (one per driven pin);
          widening a wire by [x] divides this and multiplies [c_wire]. *)
  wire_area : float;
      (** area cost per unit of wire width per driven pin (for the
          simultaneous wire-sizing mode of Section 2.1). *)
  min_size : float;
  max_size : float;
  max_stack : int;
      (** widest series transistor stack the gate model will realize; a
          NAND/NOR/AND/OR whose arity exceeds it has no cell in this
          technology (linter rule MF008). *)
}

val default_130nm : t
