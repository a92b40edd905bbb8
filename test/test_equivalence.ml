(* Netlist-level properties of the formal equivalence checker (the SAT
   miter): the transforms preserve function, real differences are found
   with a valid counterexample, and interface mismatches are reported. *)

module Cnf = Minflo_sat.Cnf
module Netlist = Minflo_netlist.Netlist
module Gate = Minflo_netlist.Gate
module Gen = Minflo_netlist.Generators
module Transform = Minflo_netlist.Transform

let check = Alcotest.check
let bool = Alcotest.bool

let proved what a b = check bool what true (Cnf.equivalent a b = Cnf.Equivalent)

(* one [kind] gate over inputs a, b per entry of [kinds], each an output *)
let gates kinds =
  let nl = Netlist.create () in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  List.iteri
    (fun i kind ->
      Netlist.mark_output nl
        (Netlist.add_gate nl (Printf.sprintf "y%d" i) kind [ a; b ]))
    kinds;
  Netlist.validate nl;
  nl

let test_equiv_self () =
  (* the very same netlist on both sides of the miter *)
  List.iter
    (fun nl -> proved (Netlist.name nl) nl nl)
    [ Gen.c17 (); Gen.ripple_carry_adder ~bits:4 (); Gen.alu ~width:2 () ]

let test_equiv_transforms () =
  (* the transforms are FORMALLY equivalence-preserving *)
  List.iter
    (fun nl ->
      proved "expand_xor" nl (Transform.expand_xor nl);
      proved "to_nand_inv" nl (Transform.to_nand_inv nl))
    [ Gen.parity_tree ~width:6 ();
      Gen.ripple_carry_adder ~bits:4 ();
      Gen.alu ~width:3 ();
      Gen.comparator ~width:4 () ]

let test_equiv_detects_difference () =
  match Cnf.equivalent (gates [ Gate.Nand ]) (gates [ Gate.Nor ]) with
  | Cnf.Differ { output_index; counterexample } ->
    check Alcotest.int "output 0" 0 output_index;
    (* the counterexample must actually distinguish NAND from NOR *)
    let v name = List.assoc name counterexample in
    check bool "cex valid" true ((not (v "a" && v "b")) <> not (v "a" || v "b"))
  | _ -> Alcotest.fail "expected Differ"

let test_equiv_interface_mismatch () =
  List.iter
    (fun (a, b) ->
      check bool "mismatch" true (Cnf.equivalent a b = Cnf.Interface_mismatch))
    [ (Gen.parity_tree ~width:4 (), Gen.parity_tree ~width:5 ());
      (gates [ Gate.And ], gates [ Gate.And; Gate.Or ]) ]

let prop_random_dag_equiv_under_mapping =
  QCheck.Test.make
    ~name:"random netlists stay formally equivalent under NAND mapping"
    ~count:40 QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:25 ~inputs:6 ~outputs:4 ~seed:(seed + 900) () in
      Cnf.equivalent nl (Transform.to_nand_inv nl) = Cnf.Equivalent)

let prop_bench_roundtrip_equiv =
  QCheck.Test.make
    ~name:"bench write/parse round-trips preserve the function (formally)"
    ~count:30 QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:20 ~inputs:5 ~outputs:3 ~seed:(seed + 333) () in
      let nl2 =
        Minflo_netlist.Bench_format.parse_string_exn
          (Minflo_netlist.Bench_format.to_string nl)
      in
      Cnf.equivalent nl nl2 = Cnf.Equivalent)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "equivalence"
    [ ( "equivalence",
        [ tc "reflexive" `Quick test_equiv_self;
          tc "transforms preserve" `Quick test_equiv_transforms;
          tc "detects differences" `Quick test_equiv_detects_difference;
          tc "interface mismatch" `Quick test_equiv_interface_mismatch;
          QCheck_alcotest.to_alcotest prop_random_dag_equiv_under_mapping;
          QCheck_alcotest.to_alcotest prop_bench_roundtrip_equiv ] ) ]
