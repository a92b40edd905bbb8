type info = {
  name : string;
  description : string;
  gates_published : int;
  delay_spec : float;
  paper_area_saving_pct : float;
  paper_cpu_tilos_s : float;
  paper_cpu_ours_s : float;
}

let suite =
  [ { name = "adder32"; description = "32-bit ripple-carry adder";
      gates_published = 480; delay_spec = 0.5; paper_area_saving_pct = 1.0;
      paper_cpu_tilos_s = 2.2; paper_cpu_ours_s = 5.0 };
    { name = "adder256"; description = "256-bit ripple-carry adder";
      gates_published = 3840; delay_spec = 0.5; paper_area_saving_pct = 1.0;
      paper_cpu_tilos_s = 262.0; paper_cpu_ours_s = 608.0 };
    { name = "c432"; description = "27-channel interrupt controller";
      gates_published = 160; delay_spec = 0.4; paper_area_saving_pct = 9.4;
      paper_cpu_tilos_s = 0.5; paper_cpu_ours_s = 4.8 };
    { name = "c499"; description = "32-bit single-error-correcting circuit";
      gates_published = 202; delay_spec = 0.57; paper_area_saving_pct = 7.2;
      paper_cpu_tilos_s = 1.47; paper_cpu_ours_s = 11.26 };
    { name = "c880"; description = "8-bit ALU";
      gates_published = 383; delay_spec = 0.4; paper_area_saving_pct = 4.0;
      paper_cpu_tilos_s = 2.7; paper_cpu_ours_s = 8.2 };
    { name = "c1355"; description = "32-bit SEC circuit (NAND expansion)";
      gates_published = 546; delay_spec = 0.4; paper_area_saving_pct = 9.5;
      paper_cpu_tilos_s = 29.0; paper_cpu_ours_s = 76.0 };
    { name = "c1908"; description = "16-bit SEC/DED circuit";
      gates_published = 880; delay_spec = 0.4; paper_area_saving_pct = 4.6;
      paper_cpu_tilos_s = 36.0; paper_cpu_ours_s = 84.0 };
    { name = "c2670"; description = "12-bit ALU and controller";
      gates_published = 1193; delay_spec = 0.4; paper_area_saving_pct = 9.1;
      paper_cpu_tilos_s = 27.0; paper_cpu_ours_s = 69.0 };
    { name = "c3540"; description = "8-bit ALU with binary/BCD logic";
      gates_published = 1669; delay_spec = 0.4; paper_area_saving_pct = 7.7;
      paper_cpu_tilos_s = 226.0; paper_cpu_ours_s = 335.0 };
    { name = "c5315"; description = "9-bit ALU and data selector";
      gates_published = 2307; delay_spec = 0.4; paper_area_saving_pct = 2.0;
      paper_cpu_tilos_s = 90.0; paper_cpu_ours_s = 111.0 };
    { name = "c6288"; description = "16x16 array multiplier";
      gates_published = 2416; delay_spec = 0.4; paper_area_saving_pct = 16.5;
      paper_cpu_tilos_s = 1677.0; paper_cpu_ours_s = 2461.0 };
    { name = "c7552"; description = "32-bit adder/comparator";
      gates_published = 3512; delay_spec = 0.4; paper_area_saving_pct = 3.3;
      paper_cpu_tilos_s = 320.0; paper_cpu_ours_s = 363.0 } ]

let find_info name = List.find_opt (fun i -> i.name = name) suite

let rename nl name =
  (* Compose.merge with a single block just relabels the netlist *)
  let out = Netlist.create ~name () in
  ignore (Compose.copy_into ~prefix:"" nl out);
  Netlist.validate out;
  out

let build name =
  let pad ?(extra_inputs = 0) ~seed parts =
    let target = (Option.get (find_info name)).gates_published in
    let merged =
      match parts with
      | [ single ] -> rename single name
      | parts -> rename (Compose.merge ~name parts) name
    in
    Compose.pad_random merged ~target_gates:target ~seed ~extra_inputs ()
  in
  match name with
  | "adder32" -> Generators.ripple_carry_adder ~style:`Nand ~bits:32 ()
  | "adder256" -> Generators.ripple_carry_adder ~style:`Nand ~bits:256 ()
  | "c432" -> pad ~seed:432 [ Generators.priority_logic ~channels:27 () ]
  | "c499" -> pad ~seed:499 [ Generators.sec_circuit ~style:`Compact ~data_bits:32 () ]
  | "c880" ->
    pad ~seed:880 ~extra_inputs:14
      [ Generators.alu ~style:`Compact ~width:8 ();
        Generators.comparator ~width:8 ();
        Generators.mux_tree ~select_bits:3 () ]
  | "c1355" ->
    (* the real c1355 is c499 with each XOR expanded into 4 NANDs; derive
       our stand-in the same way *)
    pad ~seed:1355
      [ Transform.expand_xor (Generators.sec_circuit ~style:`Compact ~data_bits:32 ()) ]
  | "c1908" ->
    pad ~seed:1908 ~extra_inputs:4
      [ Transform.expand_xor (Generators.sec_circuit ~style:`Compact ~data_bits:16 ());
        Generators.parity_tree ~style:`Nand ~width:16 () ]
  | "c2670" ->
    pad ~seed:2670 ~extra_inputs:140
      [ Generators.alu ~style:`Compact ~width:12 ();
        Generators.comparator ~width:12 ();
        Generators.priority_logic ~channels:12 () ]
  | "c3540" ->
    pad ~seed:3540 ~extra_inputs:12
      [ Generators.alu ~style:`Nand ~width:8 ();
        Generators.alu ~style:`Compact ~width:8 ();
        Generators.mux_tree ~select_bits:4 () ]
  | "c5315" ->
    pad ~seed:5315 ~extra_inputs:100
      [ Generators.alu ~style:`Nand ~width:9 ();
        Generators.alu ~style:`Compact ~width:9 ();
        Generators.mux_tree ~select_bits:4 ();
        Generators.comparator ~width:9 () ]
  | "c6288" -> pad ~seed:6288 [ Generators.array_multiplier ~style:`Nand ~bits:16 () ]
  | "c7552" ->
    pad ~seed:7552 ~extra_inputs:80
      [ Generators.ripple_carry_adder ~style:`Nand ~bits:32 ();
        Generators.comparator ~width:32 ();
        Generators.alu ~style:`Nand ~width:16 () ]
  | other -> invalid_arg (Printf.sprintf "Iscas85.circuit: unknown circuit %S" other)

let circuit name = build name
