module Netlist = Minflo_netlist.Netlist

let gate_vertex nl =
  let map = Hashtbl.create (Netlist.node_count nl) in
  let next = ref 0 in
  Netlist.iter_gates nl (fun v ->
      Hashtbl.add map v !next;
      incr next);
  map

let gate_model tech nl v =
  match Netlist.kind nl v with
  | Netlist.Gate k -> Gate_model.of_gate tech k ~arity:(List.length (Netlist.fanins nl v))
  | Netlist.Input -> assert false

let of_netlist (tech : Tech.t) nl =
  Netlist.validate nl;
  let v_of = gate_vertex nl in
  let n = Netlist.gate_count nl in
  let edges = ref [] in
  let a_self = Array.make n 0.0 in
  let a_acc : (int, float) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 4) in
  let b = Array.make n 0.0 in
  let area_weight = Array.make n 1.0 in
  let is_sink = Array.make n false in
  let labels = Array.make n "" in
  let model = gate_model tech nl in
  Netlist.iter_gates nl (fun v ->
      let i = Hashtbl.find v_of v in
      let m = model v in
      labels.(i) <- Netlist.node_name nl v;
      area_weight.(i) <- float_of_int m.transistors;
      a_self.(i) <- m.r_drive *. m.c_parasitic;
      is_sink.(i) <- Netlist.is_output nl v;
      let fanouts = Netlist.fanouts nl v in
      (* wire capacitance scales with the number of pins driven *)
      b.(i) <- m.r_drive *. (tech.c_wire *. float_of_int (List.length fanouts));
      if Netlist.is_output nl v then b.(i) <- b.(i) +. (m.r_drive *. tech.c_load);
      List.iter
        (fun w ->
          (* one a_ij term per connected pin: a gate reading this net on two
             pins loads it twice (fanouts lists distinct gates here) *)
          let j = Hashtbl.find v_of w in
          let mw = model w in
          let pins =
            List.length (List.filter (fun f -> f = v) (Netlist.fanins nl w))
          in
          let add = m.r_drive *. mw.c_input *. float_of_int pins in
          Hashtbl.replace a_acc.(i) j
            (add +. Option.value ~default:0.0 (Hashtbl.find_opt a_acc.(i) j));
          edges := (i, j) :: !edges)
        (List.sort_uniq compare fanouts);
      (* gates also load the primary inputs driving them, but PIs carry no
         sizing variable: nothing to record on that side *)
      ignore (Netlist.fanins nl v));
  Delay_model.make ~n ~edges:(List.rev !edges) ~a_self ~coeffs:a_acc ~b
    ~area_weight ~is_sink ~block:(Array.init n Fun.id) ~labels
    ~min_size:tech.min_size ~max_size:tech.max_size

let with_wires (tech : Tech.t) nl =
  Netlist.validate nl;
  let v_of = gate_vertex nl in
  let ngates = Netlist.gate_count nl in
  let n = 2 * ngates in
  (* gate k's wire is vertex ngates + k *)
  let wire_of v = ngates + Hashtbl.find v_of v in
  let edges = ref [] in
  let a_self = Array.make n 0.0 in
  let a_acc : (int, float) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 4) in
  let b = Array.make n 0.0 in
  let area_weight = Array.make n 1.0 in
  let is_sink = Array.make n false in
  let labels = Array.make n "" in
  let add_a i j x =
    Hashtbl.replace a_acc.(i) j
      (x +. Option.value ~default:0.0 (Hashtbl.find_opt a_acc.(i) j))
  in
  let gmodel = gate_model tech nl in
  Netlist.iter_gates nl (fun v ->
      let i = Hashtbl.find v_of v in
      let w = wire_of v in
      let m = gmodel v in
      let fanouts = Netlist.fanouts nl v in
      let pins =
        List.length fanouts + if Netlist.is_output nl v then 1 else 0
      in
      let pins_f = float_of_int pins in
      labels.(i) <- Netlist.node_name nl v;
      labels.(w) <- Netlist.node_name nl v ^ ".wire";
      area_weight.(i) <- float_of_int m.transistors;
      area_weight.(w) <- tech.wire_area *. pins_f;
      (* driver gate: drives its parasitic, the wire's width-dependent
         capacitance, and the receiver pins through the wire *)
      a_self.(i) <- m.r_drive *. m.c_parasitic;
      add_a i w (m.r_drive *. tech.c_wire *. pins_f);
      edges := (i, w) :: !edges;
      if Netlist.is_output nl v then b.(w) <- tech.r_wire *. pins_f *. tech.c_load;
      (* wire vertex: distributed RC — its resistance sees half its own
         capacitance plus everything downstream *)
      a_self.(w) <- tech.r_wire *. pins_f *. (tech.c_wire *. pins_f /. 2.0);
      is_sink.(w) <- Netlist.is_output nl v;
      List.iter
        (fun recv ->
          let j = Hashtbl.find v_of recv in
          let mj = gmodel recv in
          let npins =
            List.length (List.filter (fun f -> f = v) (Netlist.fanins nl recv))
          in
          let pin_cap = mj.c_input *. float_of_int npins in
          add_a i j (m.r_drive *. pin_cap);
          add_a w j (tech.r_wire *. pins_f *. pin_cap);
          edges := (w, j) :: !edges)
        (List.sort_uniq compare fanouts);
      (* the driver's resistance also charges the pad load behind the wire *)
      if Netlist.is_output nl v then b.(i) <- b.(i) +. (m.r_drive *. tech.c_load));
  Delay_model.make ~n ~edges:(List.rev !edges) ~a_self ~coeffs:a_acc ~b
    ~area_weight ~is_sink ~block:(Array.init n Fun.id) ~labels
    ~min_size:tech.min_size ~max_size:tech.max_size
