(* Tests for the SAT solver and the Tseitin/miter equivalence checker. *)

module Sat = Minflo_sat.Sat
module Cnf = Minflo_sat.Cnf
module Netlist = Minflo_netlist.Netlist
module Gate = Minflo_netlist.Gate
module Gen = Minflo_netlist.Generators
module Transform = Minflo_netlist.Transform
module Mutate = Minflo_netlist.Mutate
module Rng = Minflo_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool

(* ---------- core solver ---------- *)

let test_trivial_sat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  let b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a ];
  match Sat.solve s with
  | Sat.Sat m ->
    check bool "a false" false m.(a);
    check bool "b true" true m.(b)
  | Sat.Unsat -> Alcotest.fail "expected sat"

let test_trivial_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a ];
  check bool "unsat" true (Sat.solve s = Sat.Unsat)

let test_empty_clause () =
  let s = Sat.create () in
  ignore (Sat.new_var s);
  Sat.add_clause s [];
  check bool "unsat" true (Sat.solve s = Sat.Unsat)

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: classically UNSAT and needs real search *)
  let s = Sat.create () in
  let p = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for i = 0 to 3 do
    Sat.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        Sat.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  check bool "php(4,3) unsat" true (Sat.solve s = Sat.Unsat)

let test_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  let b = Sat.new_var s in
  Sat.add_clause s [ -a; b ];
  (match Sat.solve ~assumptions:[ a ] s with
  | Sat.Sat m -> check bool "b forced" true m.(b)
  | Sat.Unsat -> Alcotest.fail "sat expected");
  Sat.add_clause s [ -b ];
  check bool "unsat under a" true (Sat.solve ~assumptions:[ a ] s = Sat.Unsat);
  (* still satisfiable without the assumption *)
  match Sat.solve s with
  | Sat.Sat m -> check bool "a false" false m.(a)
  | Sat.Unsat -> Alcotest.fail "sat without assumptions expected"

(* random 3-SAT cross-checked against brute force *)
let prop_matches_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force on random 3-SAT"
    ~count:300 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 3) in
      let nvars = 3 + Rng.int rng 6 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses =
        List.init nclauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Rng.int rng nvars in
                if Rng.bool rng then v else -v))
      in
      let s = Sat.create () in
      for _ = 1 to nvars do ignore (Sat.new_var s) done;
      List.iter (Sat.add_clause s) clauses;
      let brute =
        let sat = ref false in
        for bits = 0 to (1 lsl nvars) - 1 do
          let value v = (bits lsr (v - 1)) land 1 = 1 in
          if List.for_all
               (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
               clauses
          then sat := true
        done;
        !sat
      in
      match Sat.solve s with
      | Sat.Sat m ->
        (* model must actually satisfy the clauses *)
        brute
        && List.for_all
             (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)))
             clauses
      | Sat.Unsat -> not brute)

(* ---------- miter equivalence ---------- *)

let proved what a b = check bool what true (Cnf.equivalent a b = Cnf.Equivalent)

let test_miter_self () = proved "c17 = c17" (Gen.c17 ()) (Gen.c17 ())

let test_miter_transforms () =
  List.iter
    (fun nl ->
      proved "nand mapping" nl (Transform.to_nand_inv nl);
      proved "xor expansion" nl (Transform.expand_xor nl))
    [ Gen.parity_tree ~width:5 ();
      Gen.comparator ~width:3 ();
      Gen.alu ~width:2 ();
      Mutate.mutate ~seed:1 ~rounds:6
        (Gen.random_dag ~gates:20 ~inputs:5 ~outputs:3 ~seed:1 ()) ]

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

let test_miter_counterexample () =
  match Cnf.equivalent (gates [ Gate.And ]) (gates [ Gate.Or ]) with
  | Cnf.Differ { output_index; counterexample } ->
    check Alcotest.int "output 0" 0 output_index;
    (* the counterexample must actually distinguish AND from OR *)
    let v n = List.assoc n counterexample in
    check bool "valid cex" true ((v "a" && v "b") <> (v "a" || v "b"))
  | _ -> Alcotest.fail "expected Differ"

let test_miter_names_output () =
  (* equal y0, different y1: the differing output is #1, not #0 *)
  match Cnf.equivalent (gates [ Gate.Nand; Gate.And ]) (gates [ Gate.Nand; Gate.Or ]) with
  | Cnf.Differ { output_index; counterexample } ->
    check Alcotest.int "output 1" 1 output_index;
    let v n = List.assoc n counterexample in
    check bool "valid cex" true (v "a" <> v "b")
  | _ -> Alcotest.fail "expected Differ"

let outputs_at nl bits =
  let values = Netlist.simulate nl bits in
  List.map (fun o -> values.(o)) (Netlist.outputs nl)

(* all 2^n output rows of [nl], by exhaustive simulation *)
let truth_table nl =
  let n = Netlist.input_count nl in
  List.init (1 lsl n) (fun v ->
      outputs_at nl (Array.init n (fun i -> (v lsr i) land 1 = 1)))

let prop_sat_agrees_with_simulation =
  QCheck.Test.make
    ~name:"SAT miter agrees with exhaustive simulation"
    ~count:60 QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:25 ~inputs:5 ~outputs:3 ~seed:(seed + 71) () in
      (* compare against a mutated copy half the time *)
      let other =
        if seed mod 2 = 0 then Transform.expand_xor nl
        else
          Gen.random_dag ~gates:25 ~inputs:5 ~outputs:3 ~seed:(seed + 72) ()
      in
      match Cnf.equivalent nl other with
      | Cnf.Equivalent -> truth_table nl = truth_table other
      | Cnf.Differ { output_index; counterexample } ->
        (* output_index is the first output the counterexample splits *)
        let bits = Array.of_list (List.map snd counterexample) in
        let diff = List.map2 ( <> ) (outputs_at nl bits) (outputs_at other bits) in
        List.find_index Fun.id diff = Some output_index
      | Cnf.Interface_mismatch ->
        Netlist.input_count nl <> Netlist.input_count other
        || List.length (Netlist.outputs nl) <> List.length (Netlist.outputs other))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sat"
    [ ( "solver",
        [ tc "trivial sat" `Quick test_trivial_sat;
          tc "trivial unsat" `Quick test_trivial_unsat;
          tc "empty clause" `Quick test_empty_clause;
          tc "pigeonhole" `Quick test_pigeonhole;
          tc "assumptions" `Quick test_assumptions;
          QCheck_alcotest.to_alcotest prop_matches_brute_force ] );
      ( "miter",
        [ tc "reflexive" `Quick test_miter_self;
          tc "transforms" `Quick test_miter_transforms;
          tc "counterexample" `Quick test_miter_counterexample;
          tc "names the differing output" `Quick test_miter_names_output;
          QCheck_alcotest.to_alcotest prop_sat_agrees_with_simulation ] ) ]
