(** True transistor sizing: the per-transistor DAG of Figures 1-2.

    Every static CMOS gate is expanded into its pullup (PMOS) and pulldown
    (NMOS) networks with one timing vertex per transistor. Within a series
    stack, edges run from the supply-side transistor to the output-side
    transistor, so a root-to-leaf path accumulates exactly the Elmore delay
    of the worst charging/discharging path (Eq. 2-3); across a wire, edges
    run from the driver's NMOS (PMOS) leaves to the roots of the receiving
    gate's PMOS (NMOS) network that reach the connected transistor
    (Section 2.2). All transistors of a gate share one block, giving the
    block-upper-triangular (D - A) the paper proves for transistor sizing.

    Supported gate kinds: NOT, BUF, NAND, NOR. Run
    {!Minflo_netlist.Transform.to_nand_inv} first for anything else. *)

val of_netlist : Tech.t -> Minflo_netlist.Netlist.t -> Delay_model.t
(** Transistor-granularity sizing problem. Vertex labels are
    ["<gate>/<N|P><pin>"]. *)

