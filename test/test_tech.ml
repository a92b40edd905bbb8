(* Tests for the technology layer: gate models, Elmore coefficient
   extraction, the Delay_model invariants, and the transistor-level DAG. *)

module Gate = Minflo_netlist.Gate
module Netlist = Minflo_netlist.Netlist
module Gen = Minflo_netlist.Generators
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module Gate_model = Minflo_tech.Gate_model
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let tech = Tech.default_130nm

(* ---------- gate model ---------- *)

let test_gate_model_stacks () =
  let inv = Gate_model.of_gate tech Gate.Not ~arity:1 in
  let nand2 = Gate_model.of_gate tech Gate.Nand ~arity:2 in
  let nand4 = Gate_model.of_gate tech Gate.Nand ~arity:4 in
  let nor4 = Gate_model.of_gate tech Gate.Nor ~arity:4 in
  check bool "nand4 drives worse than nand2" true (nand4.r_drive > nand2.r_drive);
  check bool "nand2 no weaker than inv" true (nand2.r_drive >= inv.r_drive);
  check bool "nor4 no better than nand4" true (nor4.r_drive >= nand4.r_drive);
  check int "inv transistors" 2 inv.transistors;
  check int "nand4 transistors" 8 nand4.transistors

let test_gate_model_xor_loading () =
  let x = Gate_model.of_gate tech Gate.Xor ~arity:2 in
  let n = Gate_model.of_gate tech Gate.Nand ~arity:2 in
  check bool "xor input cap heavier" true (x.c_input > n.c_input)

(* ---------- Elmore / Delay_model ---------- *)

let inv_chain k =
  let nl = Netlist.create ~name:"chain" () in
  let a = Netlist.add_input nl "a" in
  let prev = ref a in
  for i = 1 to k do
    prev := Netlist.add_gate nl (Printf.sprintf "i%d" i) Gate.Not [ !prev ]
  done;
  Netlist.mark_output nl !prev;
  Netlist.validate nl;
  nl

let test_elmore_chain_structure () =
  let model = Elmore.of_netlist tech (inv_chain 4) in
  check int "vertices" 4 (DM.num_vertices model);
  check int "edges" 3 model.m;
  (* only the last vertex is a sink *)
  check int "sinks" 1
    (Array.fold_left (fun a s -> if s then a + 1 else a) 0 model.is_sink)

let test_elmore_delay_monotonicity () =
  let model = Elmore.of_netlist tech (inv_chain 3) in
  let x1 = DM.uniform_sizes model 1.0 in
  let x2 = DM.uniform_sizes model 1.0 in
  x2.(0) <- 2.0;
  (* upsizing vertex 0 lowers its own delay... *)
  check bool "own delay drops" true (DM.delay model x2 0 < DM.delay model x1 0);
  (* ...and vertex 0 has no upstream vertex here, so nothing else changes
     except through loading: vertex 1's delay is unchanged by x0 *)
  check bool "downstream unchanged" true
    (abs_float (DM.delay model x2 1 -. DM.delay model x1 1) < 1e-9);
  (* upsizing vertex 1 raises vertex 0's delay (load) *)
  let x3 = DM.uniform_sizes model 1.0 in
  x3.(1) <- 2.0;
  check bool "load effect" true (DM.delay model x3 0 > DM.delay model x1 0)

let test_elmore_po_load () =
  (* a PO gate carries the fixed output load in its b term *)
  let nl = inv_chain 2 in
  let model = Elmore.of_netlist tech nl in
  check bool "po b includes load" true (model.b.(1) > model.b.(0))

let test_elmore_multi_pin_loading () =
  (* gate reading the same net on two pins loads it twice *)
  let nl = Netlist.create () in
  let a = Netlist.add_input nl "a" in
  let g1 = Netlist.add_gate nl "g1" Gate.Not [ a ] in
  let g2 = Netlist.add_gate nl "g2" Gate.Nand [ g1; g1 ] in
  Netlist.mark_output nl g2;
  Netlist.validate nl;
  let model = Elmore.of_netlist tech nl in
  let m2 = Gate_model.of_gate tech Gate.Nand ~arity:2 in
  let m1 = Gate_model.of_gate tech Gate.Not ~arity:1 in
  let expected = 2.0 *. m1.r_drive *. m2.c_input in
  let got =
    Array.fold_left ( +. ) 0.0
      (Array.sub model.coeff_a model.coeff_off.(0)
         (model.coeff_off.(1) - model.coeff_off.(0)))
  in
  check (Alcotest.float 1e-6) "double pin load" expected got

let test_delay_model_area () =
  let model = Elmore.of_netlist tech (inv_chain 3) in
  let x = DM.uniform_sizes model 2.0 in
  (* 3 inverters, 2 transistors each, size 2 *)
  check (Alcotest.float 1e-9) "area" 12.0 (DM.area model x)

let test_delay_model_check_sizes () =
  let model = Elmore.of_netlist tech (inv_chain 2) in
  check bool "ok" true (Result.is_ok (DM.check_sizes model [| 1.0; 2.0 |]));
  check bool "too small" true (Result.is_error (DM.check_sizes model [| 0.5; 2.0 |]));
  check bool "too big" true
    (Result.is_error (DM.check_sizes model [| 1.0; tech.max_size +. 1.0 |]));
  check bool "wrong length" true (Result.is_error (DM.check_sizes model [| 1.0 |]))

let test_elimination_blocks_triangular () =
  let model = Elmore.of_netlist tech (Gen.c17 ()) in
  let blocks = model.blocks in
  (* gate sizing: one vertex per block *)
  check int "block count" (DM.num_vertices model) (Array.length blocks);
  (* order: every coefficient target appears in a later block *)
  let pos = Array.make (DM.num_vertices model) 0 in
  Array.iteri (fun k b -> Array.iter (fun v -> pos.(v) <- k) b) blocks;
  for i = 0 to DM.num_vertices model - 1 do
    for c = model.coeff_off.(i) to model.coeff_off.(i + 1) - 1 do
      check bool "downstream" true (pos.(model.coeff_j.(c)) > pos.(i))
    done
  done

(* ---------- wire sizing (Section 2.1) ---------- *)

let test_with_wires_structure () =
  let nl = Gen.c17 () in
  let g = Elmore.of_netlist tech nl in
  let gw = Elmore.with_wires tech nl in
  check int "doubles vertices" (2 * DM.num_vertices g) (DM.num_vertices gw);
  (* sinks move from PO gates to PO wires *)
  let ngates = DM.num_vertices g in
  Array.iteri
    (fun i s -> if s then check bool "sink is a wire" true (i >= ngates))
    gw.is_sink;
  check bool "wire labels" true
    (Array.exists (fun l -> l = "22.wire") gw.labels)

let test_with_wires_monotone () =
  let nl = inv_chain 3 in
  let gw = Elmore.with_wires tech nl in
  let x = DM.uniform_sizes gw 1.0 in
  let ngates = 3 in
  (* widening a wire speeds the wire up (r/x falls) ... *)
  let x2 = Array.copy x in
  x2.(ngates) <- 4.0;
  check bool "wire speeds up" true (DM.delay gw x2 ngates < DM.delay gw x ngates);
  (* ... but loads its driver *)
  check bool "driver slows down" true (DM.delay gw x2 0 > DM.delay gw x 0)

let prop_with_wires_validates =
  QCheck.Test.make ~name:"wire-sizing models of random DAGs validate" ~count:30
    QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:30 ~inputs:5 ~outputs:3 ~seed:(seed + 400) () in
      ignore (Elmore.with_wires tech nl);
      true)

(* ---------- transistor level ---------- *)

(* the transistor model of one [kind] gate over [arity] primary inputs *)
let one_gate kind arity =
  let nl = Netlist.create () in
  let ins = List.init arity (fun i -> Netlist.add_input nl (Printf.sprintf "i%d" i)) in
  Netlist.mark_output nl (Netlist.add_gate nl "g" kind ins);
  Netlist.validate nl;
  Transistor.of_netlist tech nl

(* a series stack of k devices is a chain of k - 1 edges; parallel devices
   share no edge *)
let test_topology () =
  let nand = one_gate Gate.Nand 3 in
  check int "nand devices" 6 (DM.num_vertices nand);
  check int "nand pulldown chain" 2 nand.m;
  let nor = one_gate Gate.Nor 2 in
  check int "nor devices" 4 (DM.num_vertices nor);
  check int "nor pullup chain" 1 nor.m;
  let inv = one_gate Gate.Not 1 in
  check int "inverter devices" 2 (DM.num_vertices inv);
  check int "inverter edges" 0 inv.m;
  match one_gate Gate.Xor 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "xor should be rejected"

let test_transistor_c17 () =
  let nl = Gen.c17 () in
  let model = Transistor.of_netlist tech nl in
  (* 6 NAND2 gates -> 4 transistors each *)
  check int "vertices" 24 (DM.num_vertices model);
  (* every gate's 4 transistors share a block *)
  let by_block = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      Hashtbl.replace by_block b (1 + Option.value ~default:0 (Hashtbl.find_opt by_block b)))
    model.block;
  Hashtbl.iter (fun _ c -> check int "block size" 4 c) by_block

let test_transistor_matches_figure1 () =
  (* single 3-input NAND driving a PO: the ground-most NMOS's projection
     must include drain terms of the two NMOS above it and all three PMOS,
     per Eq. (3) *)
  let nl = Netlist.create () in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let c = Netlist.add_input nl "c" in
  let g = Netlist.add_gate nl "g" Gate.Nand [ a; b; c ] in
  Netlist.mark_output nl g;
  Netlist.validate nl;
  let model = Transistor.of_netlist tech nl in
  check int "6 transistors" 6 (DM.num_vertices model);
  (* find the NMOS vertex with the most coefficient terms: the ground-most *)
  let max_terms = ref 0 in
  for i = 0 to DM.num_vertices model - 1 do
    max_terms := max !max_terms (model.coeff_off.(i + 1) - model.coeff_off.(i))
  done;
  let max_terms = !max_terms in
  (* ground NMOS: 2 chain drains above (x2 terms each... combined) + 3 PMOS *)
  check bool "rich projection" true (max_terms >= 5);
  (* total delay along the pulldown chain equals the Elmore sum: positive
     and finite for unit sizes *)
  let x = DM.uniform_sizes model 1.0 in
  Array.iteri
    (fun i _ -> check bool "delay positive" true (DM.delay model x i > 0.0))
    model.a_self

let test_transistor_sinks_and_dag () =
  let nl = Gen.c17 () in
  let model = Transistor.of_netlist tech nl in
  check bool "has sinks" true (Array.exists Fun.id model.is_sink);
  check int "topological order covers every vertex" (DM.num_vertices model)
    (Array.length model.topo);
  (* cross edges exist: more edges than the 6 intra-gate chains provide *)
  check bool "cross edges" true (model.m > 6)

let test_transistor_needs_mapping () =
  let nl = Gen.parity_tree ~width:4 () in
  match Transistor.of_netlist tech nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of XOR netlist"

let test_transistor_after_mapping () =
  let nl = Transform.to_nand_inv (Gen.parity_tree ~width:4 ()) in
  let model = Transistor.of_netlist tech nl in
  check bool "nonempty" true (DM.num_vertices model > 0)

let prop_transistor_models_validate =
  QCheck.Test.make ~name:"transistor models of random NAND/INV DAGs validate"
    ~count:30 QCheck.small_nat (fun seed ->
      let nl =
        Transform.to_nand_inv
          (Gen.random_dag ~gates:30 ~inputs:5 ~outputs:3 ~seed:(seed + 17) ())
      in
      ignore (Transistor.of_netlist tech nl);
      true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tech"
    [ ( "gate_model",
        [ tc "stacks" `Quick test_gate_model_stacks;
          tc "xor loading" `Quick test_gate_model_xor_loading ] );
      ( "elmore",
        [ tc "chain structure" `Quick test_elmore_chain_structure;
          tc "monotonicity" `Quick test_elmore_delay_monotonicity;
          tc "po load" `Quick test_elmore_po_load;
          tc "multi-pin load" `Quick test_elmore_multi_pin_loading ] );
      ( "delay_model",
        [ tc "area" `Quick test_delay_model_area;
          tc "check sizes" `Quick test_delay_model_check_sizes;
          tc "elimination order" `Quick test_elimination_blocks_triangular ] );
      ( "wires",
        [ tc "structure" `Quick test_with_wires_structure;
          tc "monotonicity" `Quick test_with_wires_monotone;
          QCheck_alcotest.to_alcotest prop_with_wires_validates ] );
      ( "transistor",
        [ tc "topology" `Quick test_topology;
          tc "c17 expansion" `Quick test_transistor_c17;
          tc "figure 1 NAND3" `Quick test_transistor_matches_figure1;
          tc "sinks and dag" `Quick test_transistor_sinks_and_dag;
          tc "rejects macro gates" `Quick test_transistor_needs_mapping;
          tc "after mapping" `Quick test_transistor_after_mapping;
          QCheck_alcotest.to_alcotest prop_transistor_models_validate ] ) ]
