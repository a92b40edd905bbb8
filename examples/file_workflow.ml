(* File-based workflow: how this tool is meant to be used on real netlists.

   1. emit a circuit as ISCAS85 .bench and as structural Verilog,
   2. read both back,
   3. *formally* verify (SAT miter) that nothing changed,
   4. size the circuit loaded from the file.

   Drop a real ISCAS85 .bench or gate-level .v next to this file and point
   the loader at it — everything downstream is identical.

   Run with: dune exec examples/file_workflow.exe *)

open Minflo

let () =
  let nl = Generators.alu ~width:4 () in
  let dir = Filename.get_temp_dir_name () in
  let bench_path = Filename.concat dir "alu4.bench" in
  let verilog_path = Filename.concat dir "alu4.v" in

  (* 1. write *)
  let write path text =
    match Io.write_file path text with Ok () -> () | Error e -> Diag.fail e
  in
  write bench_path (Bench_format.to_string nl);
  write verilog_path (Verilog_format.to_string nl);
  Printf.printf "wrote %s and %s\n" bench_path verilog_path;

  (* 2. read back *)
  let from_bench = Bench_format.parse_file_exn bench_path in
  let from_verilog = Verilog_format.parse_file_exn verilog_path in

  (* 3. formal equivalence via a SAT miter — not just simulation *)
  let verdict name other =
    match Cnf.equivalent nl other with
    | Cnf.Equivalent -> Printf.printf "%s: formally equivalent\n" name
    | Cnf.Differ { output_index; counterexample } ->
      Printf.printf "%s: DIFFERS at output %d under {%s}\n" name output_index
        (String.concat "; "
           (List.map (fun (n, b) -> Printf.sprintf "%s=%b" n b) counterexample));
      exit 1
    | Cnf.Interface_mismatch ->
      Printf.printf "%s: input/output arity differs\n" name;
      exit 1
  in
  verdict "bench round-trip" from_bench;
  verdict "verilog round-trip" from_verilog;

  (* 4. size the circuit that came from the file *)
  let model = Elmore.of_netlist Tech.default_130nm from_bench in
  let target = 0.5 *. Sweep.dmin model in
  let r = Minflotransit.optimize model ~target in
  Printf.printf
    "sized from file: met=%b, %d iterations, %.2f%% area saving over TILOS\n"
    r.met r.iterations r.area_saving_pct;
  Sys.remove bench_path;
  Sys.remove verilog_path
