(* Tests for the structural Verilog reader/writer. *)

module V = Minflo_netlist.Verilog_format
module Netlist = Minflo_netlist.Netlist
module Gen = Minflo_netlist.Generators
module Cnf = Minflo_sat.Cnf
module Rng = Minflo_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let c17_v =
  {|// ISCAS85 c17 in structural verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand NAND2_1 (N10, N1, N3);
  nand NAND2_2 (N11, N3, N6);
  nand NAND2_3 (N16, N2, N11);
  nand NAND2_4 (N19, N11, N7);
  nand NAND2_5 (N22, N10, N16);
  nand NAND2_6 (N23, N16, N19);
endmodule
|}

let test_parse_c17 () =
  let nl = V.parse_string_exn c17_v in
  check int "gates" 6 (Netlist.gate_count nl);
  check int "inputs" 5 (Netlist.input_count nl);
  check int "outputs" 2 (List.length (Netlist.outputs nl));
  (* and it is formally the same circuit as the built-in generator *)
  check bool "matches builtin c17" true
    (Cnf.equivalent nl (Gen.c17 ()) = Cnf.Equivalent)

let test_parse_without_instance_names () =
  let nl =
    V.parse_string_exn
      "module m (a, b, y);\n input a, b;\n output y;\n nand (y, a, b);\nendmodule\n"
  in
  check int "gates" 1 (Netlist.gate_count nl)

let test_parse_block_comments_and_forward_refs () =
  let nl =
    V.parse_string_exn
      "module m (a, y); /* ports */ input a; output y;\n\
       wire t;\n\
       not (y, t); // uses t before its driver appears\n\
       not (t, a);\n\
       endmodule"
  in
  check int "gates" 2 (Netlist.gate_count nl)

let expect_error text =
  match V.parse_string text with
  | Error (Minflo_robust.Diag.Parse_error { line; _ }) ->
    check bool "line number is positive" true (line >= 1)
  | Error e -> Alcotest.fail ("expected Parse_error, got " ^ Minflo_robust.Diag.to_string e)
  | Ok _ -> Alcotest.fail "expected parse error"

let test_parse_errors () =
  expect_error "module m (a, y); input a; output y; assign y = a;\nendmodule";
  expect_error "module m (a, y); input a; output y; frob (y, a);\nendmodule";
  expect_error "module m (a, y); input a; output y; not (y, z);\nendmodule";
  expect_error "not (y, a);";
  expect_error "module m (a, y); input a; output y; not (y, a)\n";
  (* cycle *)
  expect_error
    "module m (a, y); input a; output y; wire t;\n\
     nand (y, a, t); nand (t, a, y); endmodule";
  (* unterminated comment *)
  expect_error "module m (a, y); /* input a; output y;"

let test_roundtrip_generators () =
  List.iter
    (fun nl ->
      let nl2 = V.parse_string_exn (V.to_string nl) in
      check int "gates" (Netlist.gate_count nl) (Netlist.gate_count nl2);
      check bool "formally equivalent" true (Cnf.equivalent nl nl2 = Cnf.Equivalent))
    [ Gen.c17 ();
      Gen.ripple_carry_adder ~bits:4 ();
      Gen.parity_tree ~width:5 ();
      Gen.alu ~width:3 () ]

let test_print_stability () =
  (* the printed form is a fixpoint: parse -> print -> parse -> print
     yields the same text, so nothing drifts across write/read cycles *)
  List.iter
    (fun nl ->
      let first = V.to_string nl in
      let second = V.to_string (V.parse_string_exn first) in
      check Alcotest.string "second print equals first" first second;
      let third = V.to_string (V.parse_string_exn second) in
      check Alcotest.string "third print equals second" second third)
    [ Gen.c17 ();
      Gen.ripple_carry_adder ~bits:8 ();
      Gen.parity_tree ~width:5 ();
      Gen.alu ~width:4 () ]

let test_sanitization () =
  (* bench-style numeric names must be escaped into legal verilog *)
  let nl = Netlist.create ~name:"123bad name" () in
  let a = Netlist.add_input nl "1" in
  let g = Netlist.add_gate nl "22" Minflo_netlist.Gate.Not [ a ] in
  Netlist.mark_output nl g;
  Netlist.validate nl;
  let text = V.to_string nl in
  let nl2 = V.parse_string_exn text in
  check bool "roundtrips" true (Cnf.equivalent nl nl2 = Cnf.Equivalent)

let prop_verilog_roundtrip_random =
  QCheck.Test.make ~name:"verilog round-trips random netlists (formally)"
    ~count:30 QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:25 ~inputs:5 ~outputs:3 ~seed:(seed + 555) () in
      let nl2 = V.parse_string_exn (V.to_string nl) in
      Cnf.equivalent nl nl2 = Cnf.Equivalent)

let prop_lexer_never_crashes =
  (* random byte soup must become a typed Parse_error (or parse), never an
     exception *)
  QCheck.Test.make ~name:"parser turns garbage into Parse_error, not crashes"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun text ->
      match V.parse_string text with
      | Ok _ | Error (Minflo_robust.Diag.Parse_error _) -> true
      | Error _ -> false
      | exception _ -> false)

let prop_bench_parser_never_crashes =
  QCheck.Test.make ~name:"bench parser turns garbage into Parse_error too"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun text ->
      match Minflo_netlist.Bench_format.parse_string text with
      | Ok _ | Error (Minflo_robust.Diag.Parse_error _) -> true
      | Error _ -> false
      | exception _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "verilog"
    [ ( "parse",
        [ tc "c17" `Quick test_parse_c17;
          tc "anonymous instances" `Quick test_parse_without_instance_names;
          tc "comments/forward refs" `Quick test_parse_block_comments_and_forward_refs;
          tc "errors" `Quick test_parse_errors ] );
      ( "write",
        [ tc "roundtrip generators" `Quick test_roundtrip_generators;
          tc "print stability" `Quick test_print_stability;
          tc "sanitization" `Quick test_sanitization;
          QCheck_alcotest.to_alcotest prop_verilog_roundtrip_random ] );
      ( "robustness",
        [ QCheck_alcotest.to_alcotest prop_lexer_never_crashes;
          QCheck_alcotest.to_alcotest prop_bench_parser_never_crashes ] ) ]
