(** Structural netlist transformations. *)

val expand_xor : Netlist.t -> Netlist.t
(** Replace every XOR/XNOR gate by a 2-input NAND network (4 NANDs per
    2-input XOR stage, plus an inverter for XNOR). This is precisely the
    relationship between the real c499 and c1355 benchmarks; we use it the
    same way to derive the c1355 stand-in. N-ary XORs are expanded as
    left-to-right chains. *)

val to_nand_inv : Netlist.t -> Netlist.t
(** Map the whole netlist onto {NAND2, NOT}: AND/OR/NOR are rewritten with
    De Morgan identities, wide gates become balanced NAND/NOT trees, and
    XOR/XNOR use {!expand_xor}'s pattern. Functional equivalence is covered
    by the property tests. *)
