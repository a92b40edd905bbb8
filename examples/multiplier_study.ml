(* The multiplier effect: why c6288 is the paper's headline circuit.

   Array multipliers have thousands of reconvergent, near-tied paths, so
   many paths become critical simultaneously and greedy sizing wastes area;
   the min-cost-flow D-phase reasons about all of them at once (the paper
   reports its largest saving, 16.5%, on c6288). This example shows the
   saving growing with multiplier size — an 8x8 instance keeps runtime
   example-friendly.

   Run with: dune exec examples/multiplier_study.exe *)

open Minflo

let () =
  let tech = Tech.default_130nm in
  let table =
    Table.create
      ~columns:
        [ ("multiplier", Table.Left); ("gates", Table.Right);
          ("factor", Table.Right); ("TILOS area", Table.Right);
          ("MINFLO area", Table.Right); ("saving %", Table.Right) ]
  in
  List.iter
    (fun bits ->
      let nl = Generators.array_multiplier ~style:`Nand ~bits () in
      let model = Elmore.of_netlist tech nl in
      let p = Sweep.at_factor model ~factor:0.5 in
      Table.add_row table
        [ Printf.sprintf "%dx%d" bits bits;
          string_of_int (Netlist.gate_count nl);
          "0.50";
          (if p.tilos_met then Printf.sprintf "%.3f" p.tilos_area_ratio else "unmet");
          (if p.tilos_met then Printf.sprintf "%.3f" p.minflo_area_ratio else "-");
          (if p.tilos_met then Printf.sprintf "%.2f" p.saving_pct else "-") ])
    [ 4; 6; 8 ];
  Table.print table;
  print_endline
    "Savings grow with the number of competing near-critical paths;\n\
     compare the flat ~1% of examples/adder_tradeoff.exe.";
  (* also show the convergence trace on the 8x8 instance *)
  let nl = Generators.array_multiplier ~style:`Nand ~bits:8 () in
  let model = Elmore.of_netlist tech nl in
  let target = 0.5 *. Sweep.dmin model in
  let steps = ref [] in
  let r =
    Minflotransit.optimize model ~target ~on_step:(fun s -> steps := s :: !steps)
  in
  Printf.printf "\n8x8 convergence (%d iterations):\n" r.iterations;
  List.iter
    (fun (s : Minflotransit.step) ->
      Printf.printf "  iter %2d: area %.0f (eta %.3g)\n" s.step_iter s.step_area
        s.step_eta)
    (List.rev !steps)
