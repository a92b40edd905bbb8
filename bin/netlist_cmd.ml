(* minflo gen / stats / verify / convert: netlists in, netlists or
   reports out, no sizing. *)

open Cmdliner
open Minflo

(* Graphviz: one node per netlist node in id order, then one edge per
   (fanin, gate) pair, grouped by gate in fanin order *)
let to_dot ~name nl =
  let buf = Buffer.create 1024 in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  Printf.bprintf buf "digraph %s {\n" name;
  Netlist.iter_nodes nl (fun v ->
      Printf.bprintf buf "  n%d [label=\"%s\"];\n" v
        (escape (Netlist.node_name nl v)));
  Netlist.iter_gates nl (fun v ->
      List.iter
        (fun u -> Printf.bprintf buf "  n%d -> n%d;\n" u v)
        (Netlist.fanins nl v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* [dot_name] is the DOT graph name (default "g") *)
let render ?(dot_name = "g") format nl =
  match format with
  | `Bench -> Bench_format.to_string nl
  | `Verilog -> Verilog_format.to_string nl
  | `Dot -> to_dot ~name:dot_name nl

let gen =
  let out =
    Cli.output_arg ~doc:"Write the netlist to $(docv) instead of stdout."
  in
  let fmt_arg =
    Arg.(value
         & opt (enum [ ("bench", `Bench); ("verilog", `Verilog); ("dot", `Dot) ]) `Bench
         & info [ "format" ] ~doc:"Output format: bench, verilog or dot.")
  in
  let run name out fmt =
    let nl = Cli.circuit name in
    Cli.emit
      ~wrote:(Printf.sprintf " (%d gates)" (Netlist.gate_count nl))
      out
      (render ~dot_name:"netlist" fmt nl)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a built-in circuit (bench/verilog/dot).")
    Term.(const run $ Cli.circuit_arg $ out $ fmt_arg)

let stats =
  let run name =
    let nl = Cli.circuit name in
    let s = Netlist.stats nl in
    Fmt.pr "%s: %a@." (Netlist.name nl) Netlist.pp_stats s
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print netlist statistics.")
    Term.(const run $ Cli.circuit_arg)

let verify =
  let second =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT2"
         ~doc:"Second circuit to compare against.")
  in
  let run a b =
    let nla = Cli.circuit a and nlb = Cli.circuit b in
    match Cnf.equivalent nla nlb with
    | Cnf.Equivalent -> Fmt.pr "EQUIVALENT: %s == %s (SAT miter)@." a b
    | Cnf.Interface_mismatch ->
      let shape nl =
        Printf.sprintf "%d inputs / %d outputs" (Netlist.input_count nl)
          (List.length (Netlist.outputs nl))
      in
      Fmt.pr "MISMATCH: %s has %s, %s has %s@." a (shape nla) b (shape nlb);
      exit 1
    | Cnf.Differ { output_index; counterexample } ->
      Fmt.pr "DIFFER at output #%d; counterexample:@." output_index;
      List.iter (fun (n, v) -> Fmt.pr "  %s = %b@." n v) counterexample;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Formally check two circuits for equivalence (SAT miter).")
    Term.(const run $ Cli.circuit_arg $ second)

let convert =
  let out =
    Arg.(required & opt (some string) None
         & Cli.output_info
             ~doc:"Destination file; format from the extension (.bench / .v \
                   / .dot).")
  in
  let run name out =
    let format =
      if Filename.check_suffix out ".v" then `Verilog
      else if Filename.check_suffix out ".dot" then `Dot
      else `Bench
    in
    Cli.emit ~wrote:"" (Some out) (render format (Cli.circuit name))
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between netlist formats.")
    Term.(const run $ Cli.circuit_arg $ out)
