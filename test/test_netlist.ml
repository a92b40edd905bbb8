(* Tests for the netlist substrate: structure, parser round-trips, and
   functional correctness of every generator (simulation vs arithmetic). *)

module Gate = Minflo_netlist.Gate
module Netlist = Minflo_netlist.Netlist
module Bench = Minflo_netlist.Bench_format
module Gen = Minflo_netlist.Generators
module Compose = Minflo_netlist.Compose
module Transform = Minflo_netlist.Transform
module Iscas85 = Minflo_netlist.Iscas85
module Rng = Minflo_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- Gate ---------- *)

let test_gate_eval () =
  check bool "and" true (Gate.eval Gate.And [| true; true |]);
  check bool "and f" false (Gate.eval Gate.And [| true; false |]);
  check bool "nand" false (Gate.eval Gate.Nand [| true; true |]);
  check bool "or" true (Gate.eval Gate.Or [| false; true |]);
  check bool "nor" true (Gate.eval Gate.Nor [| false; false |]);
  check bool "not" true (Gate.eval Gate.Not [| false |]);
  check bool "buf" false (Gate.eval Gate.Buf [| false |]);
  check bool "xor3" true (Gate.eval Gate.Xor [| true; true; true |]);
  check bool "xnor" true (Gate.eval Gate.Xnor [| true; true |])

let test_gate_strings () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> check bool "roundtrip" true (k = k')
      | None -> Alcotest.fail "roundtrip failed")
    Gate.all;
  check bool "inv alias" true (Gate.of_string "INV" = Some Gate.Not);
  check bool "lowercase" true (Gate.of_string "nand" = Some Gate.Nand);
  check bool "unknown" true (Gate.of_string "FOO" = None)

let test_gate_arity () =
  Alcotest.check_raises "not arity"
    (Invalid_argument "Gate.eval: NOT takes <= 1 inputs, got 2") (fun () ->
      ignore (Gate.eval Gate.Not [| true; false |]));
  Alcotest.check_raises "and arity"
    (Invalid_argument "Gate.eval: AND needs >= 2 inputs, got 1") (fun () ->
      ignore (Gate.eval Gate.And [| true |]))

(* ---------- Netlist core ---------- *)

let test_netlist_build () =
  let nl = Netlist.create ~name:"t" () in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let g = Netlist.add_gate nl "g" Gate.Nand [ a; b ] in
  Netlist.mark_output nl g;
  Netlist.validate nl;
  check int "nodes" 3 (Netlist.node_count nl);
  check int "gates" 1 (Netlist.gate_count nl);
  check int "inputs" 2 (Netlist.input_count nl);
  check (Alcotest.list int) "fanins" [ a; b ] (Netlist.fanins nl g);
  check (Alcotest.list int) "fanouts a" [ g ] (Netlist.fanouts nl a);
  check bool "is_output" true (Netlist.is_output nl g);
  check bool "find" true (Netlist.find nl "g" = Some g)

let test_netlist_duplicate_name () =
  let nl = Netlist.create () in
  ignore (Netlist.add_input nl "a");
  Alcotest.check_raises "dup" (Invalid_argument "Netlist: duplicate node name \"a\"")
    (fun () -> ignore (Netlist.add_input nl "a"))

let test_netlist_bad_fanin () =
  let nl = Netlist.create () in
  let a = Netlist.add_input nl "a" in
  Alcotest.check_raises "unknown fanin"
    (Invalid_argument "Netlist: gate \"g\" has unknown fanin 7") (fun () ->
      ignore (Netlist.add_gate nl "g" Gate.Nand [ a; 7 ]))

let test_netlist_validate_dead_gate () =
  let nl = Netlist.create () in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let g = Netlist.add_gate nl "g" Gate.Nand [ a; b ] in
  let dead = Netlist.add_gate nl "dead" Gate.Nor [ a; b ] in
  ignore dead;
  Netlist.mark_output nl g;
  Alcotest.check_raises "dead gate"
    (Invalid_argument "Netlist.validate: gate \"dead\" drives no primary output")
    (fun () -> Netlist.validate nl)

let test_netlist_levels () =
  (* a gate sits one level above its deepest fanin: 22 = NAND(10, 16),
     16 = NAND(2, 11), 11 = NAND(3, 6) *)
  check int "circuit depth" 3 (Netlist.depth (Gen.c17 ()));
  let nl = Netlist.create ~name:"uneven" () in
  let a = Netlist.add_input nl "a" in
  let n1 = Netlist.add_gate nl "n1" Gate.Not [ a ] in
  let n2 = Netlist.add_gate nl "n2" Gate.Not [ n1 ] in
  Netlist.mark_output nl (Netlist.add_gate nl "y" Gate.Nand [ a; n2 ]);
  check int "deepest fanin decides" 3 (Netlist.depth nl);
  check int "inputs only" 0 (Netlist.depth (Netlist.create ~name:"empty" ()))

let test_netlist_stats () =
  let nl = Gen.c17 () in
  let s = Netlist.stats nl in
  check int "gates" 6 s.num_gates;
  check int "inputs" 5 s.num_inputs;
  check int "outputs" 2 s.num_outputs;
  check bool "all nand" true (s.gates_by_kind = [ (Gate.Nand, 6) ])

(* ---------- bench format ---------- *)

let c17_text =
  "# c17\n\
   INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
   OUTPUT(22)\nOUTPUT(23)\n\
   10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
   19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n"

let test_bench_parse () =
  let nl = Bench.parse_string_exn ~name:"c17" c17_text in
  check int "gates" 6 (Netlist.gate_count nl);
  check int "inputs" 5 (Netlist.input_count nl);
  check int "outputs" 2 (List.length (Netlist.outputs nl))

let test_bench_forward_refs () =
  (* gates may be declared before their fanins textually *)
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = NAND(a, a)\n" in
  let nl = Bench.parse_string_exn text in
  check int "gates" 2 (Netlist.gate_count nl)

let test_bench_roundtrip () =
  let nl = Gen.c17 () in
  let nl2 = Bench.parse_string_exn (Bench.to_string nl) in
  check int "gates" (Netlist.gate_count nl) (Netlist.gate_count nl2);
  check int "inputs" (Netlist.input_count nl) (Netlist.input_count nl2);
  (* simulation agreement on all 32 input patterns *)
  for pattern = 0 to 31 do
    let bits = Array.init 5 (fun i -> (pattern lsr i) land 1 = 1) in
    let v1 = Netlist.simulate nl bits and v2 = Netlist.simulate nl2 bits in
    List.iter2
      (fun o1 o2 -> check bool "same output" v1.(o1) v2.(o2))
      (Netlist.outputs nl) (Netlist.outputs nl2)
  done

let test_bench_errors () =
  let expect_error text =
    match Bench.parse_string text with
    | Error (Minflo_robust.Diag.Parse_error { line; _ }) ->
      check bool "line number is positive" true (line >= 1)
    | Error e ->
      Alcotest.fail ("expected Parse_error, got " ^ Minflo_robust.Diag.to_string e)
    | Ok _ -> Alcotest.fail "expected parse error"
  in
  expect_error "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NAND(a\n";
  expect_error "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\n";
  (* cyclic definition *)
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NAND(a, z)\nz = NAND(a, y)\n"

let deep_chain_bench n =
  let b = Buffer.create (n * 16) in
  Buffer.add_string b "INPUT(x0)\n";
  Buffer.add_string b (Printf.sprintf "OUTPUT(x%d)\n" n);
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "x%d = NOT(x%d)\n" i (i - 1))
  done;
  Buffer.contents b

let test_bench_deep_chain () =
  (* elaboration is iterative: a 20k-deep inverter chain must not blow
     the stack (the old recursive resolver overflowed near ~10k) *)
  List.iter
    (fun n ->
      match Bench.parse_string (deep_chain_bench n) with
      | Ok nl ->
        check int (Printf.sprintf "%d gates" n) n (Netlist.gate_count nl);
        check int (Printf.sprintf "depth %d" n) n (Netlist.depth nl)
      | Error e ->
        Alcotest.failf "depth %d rejected: %s" n
          (Minflo_robust.Diag.to_string e))
    [ 10_000; 20_000 ]

let test_bench_token_cap () =
  (* a pathological token (name longer than Raw.max_token_length) is a
     parse error with a line number, not memory exhaustion or a crash *)
  let cap = Minflo_netlist.Raw.max_token_length in
  let huge = String.make (cap + 1) 'a' in
  let expect_error text =
    match Bench.parse_string text with
    | Error (Minflo_robust.Diag.Parse_error { line; _ }) ->
      check bool "line number is positive" true (line >= 1)
    | Error e ->
      Alcotest.fail
        ("expected Parse_error, got " ^ Minflo_robust.Diag.to_string e)
    | Ok _ -> Alcotest.fail "oversized token accepted"
  in
  expect_error (Printf.sprintf "INPUT(%s)\nOUTPUT(y)\ny = NOT(%s)\n" huge huge);
  expect_error (Printf.sprintf "INPUT(a)\nOUTPUT(%s)\n%s = NOT(a)\n" huge huge);
  (* a name exactly at the cap is fine *)
  let edge = String.make cap 'a' in
  (match
     Bench.parse_string
       (Printf.sprintf "INPUT(%s)\nOUTPUT(y)\ny = NOT(%s)\n" edge edge)
   with
  | Ok nl -> check int "cap-length name accepted" 1 (Netlist.gate_count nl)
  | Error e ->
    Alcotest.failf "cap-length name rejected: %s"
      (Minflo_robust.Diag.to_string e))

let test_verilog_deep_and_token_cap () =
  let n = 10_000 in
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "module chain(x0, y);\n  input x0;\n  output y;\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "  wire x%d;\n" i)
  done;
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "  not g%d(x%d, x%d);\n" i i (i - 1))
  done;
  Buffer.add_string b (Printf.sprintf "  buf gy(y, x%d);\nendmodule\n" n);
  (match Minflo_netlist.Verilog_format.parse_string (Buffer.contents b) with
  | Ok nl ->
    check bool "10k-deep verilog chain parses" true
      (Netlist.gate_count nl >= n)
  | Error e ->
    Alcotest.failf "deep verilog rejected: %s" (Minflo_robust.Diag.to_string e));
  let huge = String.make (Minflo_netlist.Raw.max_token_length + 1) 'z' in
  match
    Minflo_netlist.Verilog_format.parse_string
      (Printf.sprintf
         "module m(a, y);\n  input a;\n  output y;\n  wire %s;\n  not g1(%s, a);\n  buf g2(y, %s);\nendmodule\n"
         huge huge huge)
  with
  | Error (Minflo_robust.Diag.Parse_error _) -> ()
  | Error e ->
    Alcotest.failf "expected Parse_error, got %s"
      (Minflo_robust.Diag.to_string e)
  | Ok _ -> Alcotest.fail "oversized verilog token accepted"

let test_bench_roundtrip_suite () =
  (* writer/parser agree structurally on a large generated circuit *)
  let nl = Gen.alu ~width:4 () in
  let nl2 = Bench.parse_string_exn (Bench.to_string nl) in
  check int "gates" (Netlist.gate_count nl) (Netlist.gate_count nl2);
  check int "depth" (Netlist.depth nl) (Netlist.depth nl2)

let test_bench_print_stability () =
  (* the printed form is a fixpoint: parse -> print -> parse -> print
     yields the same text — nothing (ordering, names, formatting) drifts
     across a write/read cycle, so checkpointed circuit hashes over the
     rendering are stable *)
  List.iter
    (fun nl ->
      let first = Bench.to_string nl in
      let second = Bench.to_string (Bench.parse_string_exn first) in
      check Alcotest.string "second print equals first" first second;
      let third = Bench.to_string (Bench.parse_string_exn second) in
      check Alcotest.string "third print equals second" second third)
    [ Gen.c17 ();
      Gen.ripple_carry_adder ~bits:8 ();
      Gen.alu ~width:4 ();
      Iscas85.circuit "c432" ]

(* ---------- generator functional correctness ---------- *)

let out_values nl values = List.map (fun o -> values.(o)) (Netlist.outputs nl)

(* interpret a list of bools as a little-endian integer *)
let to_int bits = List.fold_right (fun b acc -> (2 * acc) + if b then 1 else 0) bits 0

let adder_case style bits rng =
  let nl = Gen.ripple_carry_adder ~style ~bits () in
  let a = Rng.int rng (1 lsl bits) and b = Rng.int rng (1 lsl bits) in
  let cin = Rng.bool rng in
  (* inputs in order a0..a(n-1), b0.., cin *)
  let in_bits =
    Array.init ((2 * bits) + 1) (fun i ->
        if i < bits then (a lsr i) land 1 = 1
        else if i < 2 * bits then (b lsr (i - bits)) land 1 = 1
        else cin)
  in
  let values = Netlist.simulate nl in_bits in
  (* outputs: s0..s(n-1), cout *)
  let result = to_int (out_values nl values) in
  let expected = a + b + if cin then 1 else 0 in
  result = expected

let prop_adder_compact =
  QCheck.Test.make ~name:"ripple adder computes a+b+cin (compact)" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      adder_case `Compact (1 + Rng.int rng 12) rng)

let prop_adder_nand =
  QCheck.Test.make ~name:"ripple adder computes a+b+cin (nand)" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1000) in
      adder_case `Nand (1 + Rng.int rng 12) rng)

let ks_case style bits rng =
  let nl = Gen.kogge_stone_adder ~style ~bits () in
  let a = Rng.int rng (1 lsl bits) and b = Rng.int rng (1 lsl bits) in
  let cin = Rng.bool rng in
  let in_bits =
    Array.init ((2 * bits) + 1) (fun i ->
        if i < bits then (a lsr i) land 1 = 1
        else if i < 2 * bits then (b lsr (i - bits)) land 1 = 1
        else cin)
  in
  let values = Netlist.simulate nl in_bits in
  to_int (out_values nl values) = a + b + if cin then 1 else 0

let prop_kogge_stone =
  QCheck.Test.make ~name:"Kogge-Stone adder computes a+b+cin" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 77) in
      ks_case `Compact (1 + Rng.int rng 12) rng)

let prop_kogge_stone_log_depth =
  QCheck.Test.make ~name:"Kogge-Stone depth grows logarithmically" ~count:20
    QCheck.small_nat (fun seed ->
      let bits = 4 + (seed mod 28) in
      let ks = Gen.kogge_stone_adder ~bits () in
      let rc = Gen.ripple_carry_adder ~bits () in
      Netlist.depth ks
      <= 4 + (3 * int_of_float (ceil (log (float_of_int bits) /. log 2.0)))
      && (bits < 8 || Netlist.depth ks < Netlist.depth rc))

let mult_case style bits rng =
  let nl = Gen.array_multiplier ~style ~bits () in
  let a = Rng.int rng (1 lsl bits) and b = Rng.int rng (1 lsl bits) in
  let in_bits =
    Array.init (2 * bits) (fun i ->
        if i < bits then (a lsr i) land 1 = 1 else (b lsr (i - bits)) land 1 = 1)
  in
  let values = Netlist.simulate nl in_bits in
  to_int (out_values nl values) = a * b

let prop_multiplier_compact =
  QCheck.Test.make ~name:"array multiplier computes a*b (compact)" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 2) in
      mult_case `Compact (2 + Rng.int rng 7) rng)

let prop_multiplier_nand =
  QCheck.Test.make ~name:"array multiplier computes a*b (nand)" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 3) in
      mult_case `Nand (2 + Rng.int rng 7) rng)

let prop_parity =
  QCheck.Test.make ~name:"parity tree computes xor-reduce" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 4) in
      let width = 2 + Rng.int rng 20 in
      let nl = Gen.parity_tree ~width () in
      let bits = Array.init width (fun _ -> Rng.bool rng) in
      let expected = Array.fold_left (fun acc b -> acc <> b) false bits in
      let values = Netlist.simulate nl bits in
      match out_values nl values with
      | [ p; np ] -> p = expected && np = not expected
      | _ -> false)

let prop_sec_corrects_single_errors =
  QCheck.Test.make ~name:"SEC circuit corrects any single data-bit flip"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 5) in
      let d = 4 + Rng.int rng 28 in
      let nl = Gen.sec_circuit ~data_bits:d () in
      let nchecks = Netlist.input_count nl - d in
      let data = Array.init d (fun _ -> Rng.bool rng) in
      let flip = Rng.int rng d in
      let corrupted = Array.mapi (fun j v -> if j = flip then not v else v) data in
      (* check inputs carry the parity of their data group, using the same
         published code assignment as the generator *)
      let codes = Minflo_netlist.Sec_codes.weight2 ~checks:nchecks ~count:d in
      let chk =
        Array.init nchecks (fun k ->
            let parity = ref false in
            Array.iteri (fun j v -> if (codes.(j) lsr k) land 1 = 1 && v then parity := not !parity) data;
            !parity)
      in
      let input = Array.append corrupted chk in
      let values = Netlist.simulate nl input in
      let outs = Array.of_list (out_values nl values) in
      Array.length outs = d && Array.for_all2 (fun o v -> o = v) outs data)

let prop_comparator =
  QCheck.Test.make ~name:"comparator computes eq and lt" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 6) in
      let width = 1 + Rng.int rng 10 in
      let nl = Gen.comparator ~width () in
      let a = Rng.int rng (1 lsl width) and b = Rng.int rng (1 lsl width) in
      let bits =
        Array.init (2 * width) (fun i ->
            if i < width then (a lsr i) land 1 = 1 else (b lsr (i - width)) land 1 = 1)
      in
      let values = Netlist.simulate nl bits in
      match out_values nl values with
      | [ eq; lt ] -> eq = (a = b) && lt = (a < b)
      | _ -> false)

let prop_mux_tree =
  QCheck.Test.make ~name:"mux tree selects the addressed input" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 7) in
      let sel_bits = 1 + Rng.int rng 5 in
      let ways = 1 lsl sel_bits in
      let nl = Gen.mux_tree ~select_bits:sel_bits () in
      let data = Array.init ways (fun _ -> Rng.bool rng) in
      let sel = Rng.int rng ways in
      let bits =
        Array.init (ways + sel_bits) (fun i ->
            if i < ways then data.(i) else (sel lsr (i - ways)) land 1 = 1)
      in
      let values = Netlist.simulate nl bits in
      match out_values nl values with
      | [ out ] -> out = data.(sel)
      | _ -> false)

let prop_alu =
  QCheck.Test.make ~name:"ALU computes add/and/or/xor per opcode" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 8) in
      let width = 1 + Rng.int rng 8 in
      let nl = Gen.alu ~width () in
      let a = Rng.int rng (1 lsl width) and b = Rng.int rng (1 lsl width) in
      let cin = Rng.bool rng in
      let op = Rng.int rng 4 in
      (* inputs: a*, b*, cin, op0, op1 *)
      let bits =
        Array.init ((2 * width) + 3) (fun i ->
            if i < width then (a lsr i) land 1 = 1
            else if i < 2 * width then (b lsr (i - width)) land 1 = 1
            else if i = 2 * width then cin
            else if i = (2 * width) + 1 then op land 1 = 1
            else op land 2 = 2)
      in
      let values = Netlist.simulate nl bits in
      let outs = out_values nl values in
      (* outputs: result bits, carry-out, zero flag *)
      let result_bits = List.filteri (fun i _ -> i < width) outs in
      let result = to_int result_bits in
      let zero = List.nth outs (width + 1) in
      let mask = (1 lsl width) - 1 in
      let expected =
        match op with
        | 0 -> (a + b + if cin then 1 else 0) land mask
        | 1 -> a land b
        | 2 -> a lor b
        | _ -> a lxor b
      in
      result = expected && zero = (result = 0))

let prop_priority_logic =
  QCheck.Test.make ~name:"priority logic grants the highest active channel"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 10) in
      let channels = 2 + Rng.int rng 12 in
      let ngroups = (channels + 2) / 3 in
      let nl = Gen.priority_logic ~channels () in
      let req = Array.init channels (fun _ -> Rng.bool rng) in
      let en = Array.init ngroups (fun _ -> Rng.bool rng) in
      let values = Netlist.simulate nl (Array.append req en) in
      let outs = out_values nl values in
      (* reference semantics *)
      let active i = req.(i) && en.(i / 3) in
      let winner =
        let rec find i = if i < 0 then None else if active i then Some i else find (i - 1) in
        find (channels - 1)
      in
      let bits = int_of_float (ceil (log (float_of_int channels) /. log 2.0)) in
      (* outputs: encoded index bits (for bit positions with members), then
         valid, then one ack per group *)
      let enc_bits =
        List.filter
          (fun k -> List.exists (fun i -> (i lsr k) land 1 = 1) (List.init channels Fun.id))
          (List.init bits Fun.id)
      in
      let expected_enc =
        List.map
          (fun k -> match winner with Some w -> (w lsr k) land 1 = 1 | None -> false)
          enc_bits
      in
      let expected_valid = winner <> None in
      let expected_acks =
        List.init ngroups (fun g ->
            match winner with Some w -> w / 3 <> g | None -> true)
      in
      outs = expected_enc @ (expected_valid :: expected_acks))

let prop_transform_preserves_function =
  QCheck.Test.make ~name:"expand_xor and to_nand_inv preserve the function"
    ~count:60 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 9) in
      let nl = Gen.random_dag ~gates:40 ~inputs:6 ~outputs:4 ~seed:(seed + 100) () in
      let variants = [ Transform.expand_xor nl; Transform.to_nand_inv nl ] in
      let ok = ref true in
      for _ = 1 to 16 do
        let bits = Array.init (Netlist.input_count nl) (fun _ -> Rng.bool rng) in
        let base = Netlist.simulate nl bits in
        let base_outs = out_values nl base in
        List.iter
          (fun v ->
            let values = Netlist.simulate v bits in
            if out_values v values <> base_outs then ok := false)
          variants
      done;
      !ok)

(* exhaustive: every input vector, read as a little-endian bit array in
   {!Netlist.inputs} order, must produce [spec]'s outputs *)
let check_exhaustive nl ~spec =
  let n = Netlist.input_count nl in
  for v = 0 to (1 lsl n) - 1 do
    let bits = Array.init n (fun i -> (v lsr i) land 1 = 1) in
    check (Alcotest.list bool) (Printf.sprintf "vector %d" v) (spec bits)
      (out_values nl (Netlist.simulate nl bits))
  done

let test_adder_exhaustive () =
  (* 4 + 4 + 1 inputs: all 512 vectors, outputs s0..s3, cout *)
  let bits = 4 in
  let field input off = to_int (Array.to_list (Array.sub input off bits)) in
  let spec input =
    let sum = field input 0 + field input bits + if input.(2 * bits) then 1 else 0 in
    List.init (bits + 1) (fun i -> (sum lsr i) land 1 = 1)
  in
  List.iter
    (fun style -> check_exhaustive (Gen.ripple_carry_adder ~style ~bits ()) ~spec)
    [ `Compact; `Nand ]

let test_mux_exhaustive () =
  (* 4 data + 2 select inputs: all 64 vectors *)
  let spec input = [ input.(to_int [ input.(4); input.(5) ]) ] in
  check_exhaustive (Gen.mux_tree ~select_bits:2 ()) ~spec

let prop_random_dag_valid =
  QCheck.Test.make ~name:"random DAGs validate and are acyclic" ~count:60
    QCheck.small_nat (fun seed ->
      let nl = Gen.random_dag ~gates:60 ~inputs:8 ~outputs:6 ~seed () in
      Netlist.validate nl;
      (* every fanin precedes its gate: the ids are a topological order *)
      let ok = ref true in
      Netlist.iter_gates nl (fun v ->
          List.iter (fun u -> if u >= v then ok := false) (Netlist.fanins nl v));
      !ok)

(* ---------- compose / iscas85 ---------- *)

let test_merge () =
  let a = Gen.c17 () in
  let b = Gen.parity_tree ~width:4 () in
  let m = Compose.merge ~name:"both" [ a; b ] in
  check int "gates" (Netlist.gate_count a + Netlist.gate_count b) (Netlist.gate_count m);
  check int "inputs" (Netlist.input_count a + Netlist.input_count b) (Netlist.input_count m);
  check int "outputs" 4 (List.length (Netlist.outputs m))

let test_pad_random_exact () =
  let nl = Gen.c17 () in
  List.iter
    (fun target ->
      let padded = Compose.pad_random nl ~target_gates:target ~seed:5 () in
      check int (Printf.sprintf "padded to %d" target) target (Netlist.gate_count padded);
      Netlist.validate padded)
    [ 7; 8; 9; 20; 101 ]

let test_pad_noop () =
  let nl = Gen.c17 () in
  let same = Compose.pad_random nl ~target_gates:3 ~seed:5 () in
  check int "unchanged" 6 (Netlist.gate_count same)

let test_iscas85_counts () =
  List.iter
    (fun (info : Iscas85.info) ->
      if String.length info.name > 1 && info.name.[0] = 'c' then begin
        let nl = Iscas85.circuit info.name in
        check int (info.name ^ " gate count") info.gates_published (Netlist.gate_count nl)
      end)
    Iscas85.suite

let test_iscas85_deterministic () =
  let a = Iscas85.circuit "c432" and b = Iscas85.circuit "c432" in
  check int "same gates" (Netlist.gate_count a) (Netlist.gate_count b);
  check int "same depth" (Netlist.depth a) (Netlist.depth b);
  let bits = Array.make (Netlist.input_count a) true in
  let va = Netlist.simulate a bits and vb = Netlist.simulate b bits in
  List.iter2
    (fun oa ob -> check bool "same function" va.(oa) vb.(ob))
    (Netlist.outputs a) (Netlist.outputs b)

let test_iscas85_unknown () =
  Alcotest.check_raises "unknown" (Invalid_argument "Iscas85.circuit: unknown circuit \"c9999\"")
    (fun () -> ignore (Iscas85.circuit "c9999"))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "netlist"
    [ ( "gate",
        [ tc "eval" `Quick test_gate_eval;
          tc "strings" `Quick test_gate_strings;
          tc "arity" `Quick test_gate_arity ] );
      ( "netlist",
        [ tc "build" `Quick test_netlist_build;
          tc "duplicate name" `Quick test_netlist_duplicate_name;
          tc "bad fanin" `Quick test_netlist_bad_fanin;
          tc "dead gate" `Quick test_netlist_validate_dead_gate;
          tc "levels" `Quick test_netlist_levels;
          tc "stats" `Quick test_netlist_stats ] );
      ( "bench",
        [ tc "parse c17" `Quick test_bench_parse;
          tc "forward refs" `Quick test_bench_forward_refs;
          tc "roundtrip c17" `Quick test_bench_roundtrip;
          tc "roundtrip alu" `Quick test_bench_roundtrip_suite;
          tc "print stability" `Quick test_bench_print_stability;
          tc "errors" `Quick test_bench_errors;
          tc "deep chains elaborate iteratively" `Quick test_bench_deep_chain;
          tc "token length capped" `Quick test_bench_token_cap;
          tc "verilog deep chain and token cap" `Quick
            test_verilog_deep_and_token_cap ] );
      ( "generators",
        [ QCheck_alcotest.to_alcotest prop_adder_compact;
          QCheck_alcotest.to_alcotest prop_adder_nand;
          QCheck_alcotest.to_alcotest prop_kogge_stone;
          QCheck_alcotest.to_alcotest prop_kogge_stone_log_depth;
          QCheck_alcotest.to_alcotest prop_multiplier_compact;
          QCheck_alcotest.to_alcotest prop_multiplier_nand;
          QCheck_alcotest.to_alcotest prop_parity;
          QCheck_alcotest.to_alcotest prop_sec_corrects_single_errors;
          QCheck_alcotest.to_alcotest prop_priority_logic;
          QCheck_alcotest.to_alcotest prop_comparator;
          QCheck_alcotest.to_alcotest prop_mux_tree;
          QCheck_alcotest.to_alcotest prop_alu;
          QCheck_alcotest.to_alcotest prop_transform_preserves_function;
          QCheck_alcotest.to_alcotest prop_random_dag_valid;
          tc "adder vs integer add" `Quick test_adder_exhaustive;
          tc "mux vs select" `Quick test_mux_exhaustive ] );
      ( "compose",
        [ tc "merge" `Quick test_merge;
          tc "pad exact" `Quick test_pad_random_exact;
          tc "pad noop" `Quick test_pad_noop ] );
      ( "iscas85",
        [ tc "published counts" `Slow test_iscas85_counts;
          tc "deterministic" `Quick test_iscas85_deterministic;
          tc "unknown" `Quick test_iscas85_unknown ] ) ]
