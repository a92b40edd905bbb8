type t = {
  name : string;
  r_n : float;
  r_p : float;
  c_gate : float;
  c_drain : float;
  c_wire : float;
  c_load : float;
  p_ratio : float;
  r_wire : float;
  wire_area : float;
  min_size : float;
  max_size : float;
  max_stack : int;
}

(* Representative 0.13 um-class values: a minimum NMOS around 8.5 kohm, PMOS
   roughly 2x weaker, ~1.5 fF/um of gate, junctions a bit under half the
   gate cap, short local wires, and output pads presenting a few gate-loads. *)
let default_130nm =
  { name = "generic-130nm";
    r_n = 8500.0;
    r_p = 17000.0;
    c_gate = 1.2;
    c_drain = 0.6;
    c_wire = 9.0;
    c_load = 40.0;
    p_ratio = 2.0;
    r_wire = 400.0;
    wire_area = 0.3;
    min_size = 1.0;
    max_size = 1024.0;
    max_stack = 32 }
