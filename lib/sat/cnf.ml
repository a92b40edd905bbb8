module Netlist = Minflo_netlist.Netlist
module Gate = Minflo_netlist.Gate

(* Tseitin: introduce a variable per gate output and clauses tying it to
   the gate function. AND/OR/NAND/NOR take the standard n-ary encodings;
   XOR/XNOR chain two-input encodings. *)

let encode solver nl ~inputs =
  let ins = Netlist.inputs nl in
  if Array.length inputs <> List.length ins then
    invalid_arg "Cnf.encode: wrong number of input variables";
  let lit = Array.make (Netlist.node_count nl) 0 in
  List.iteri (fun i v -> lit.(v) <- inputs.(i)) ins;
  let fresh () = Sat.new_var solver in
  let encode_and out ins =
    (* out <-> conj ins *)
    List.iter (fun l -> Sat.add_clause solver [ -out; l ]) ins;
    Sat.add_clause solver (out :: List.map (fun l -> -l) ins)
  in
  let encode_or out ins =
    List.iter (fun l -> Sat.add_clause solver [ out; -l ]) ins;
    Sat.add_clause solver (-out :: ins)
  in
  let encode_xor2 out a b =
    Sat.add_clause solver [ -out; a; b ];
    Sat.add_clause solver [ -out; -a; -b ];
    Sat.add_clause solver [ out; a; -b ];
    Sat.add_clause solver [ out; -a; b ]
  in
  let rec xor_chain = function
    | [] -> invalid_arg "Cnf: empty xor"
    | [ l ] -> l
    | a :: b :: rest ->
      let o = fresh () in
      encode_xor2 o a b;
      xor_chain (o :: rest)
  in
  Array.iter
    (fun v ->
      match Netlist.kind nl v with
      | Netlist.Input -> ()
      | Netlist.Gate k ->
        let fanin_lits = List.map (fun u -> lit.(u)) (Netlist.fanins nl v) in
        let out = fresh () in
        (match (k, fanin_lits) with
        | Gate.Not, [ a ] ->
          Sat.add_clause solver [ -out; -a ];
          Sat.add_clause solver [ out; a ]
        | Gate.Buf, [ a ] ->
          Sat.add_clause solver [ -out; a ];
          Sat.add_clause solver [ out; -a ]
        | Gate.And, ins -> encode_and out ins
        | Gate.Or, ins -> encode_or out ins
        | Gate.Nand, ins ->
          let inner = fresh () in
          encode_and inner ins;
          Sat.add_clause solver [ -out; -inner ];
          Sat.add_clause solver [ out; inner ]
        | Gate.Nor, ins ->
          let inner = fresh () in
          encode_or inner ins;
          Sat.add_clause solver [ -out; -inner ];
          Sat.add_clause solver [ out; inner ]
        | Gate.Xor, ins ->
          let x = xor_chain ins in
          Sat.add_clause solver [ -out; x ];
          Sat.add_clause solver [ out; -x ]
        | Gate.Xnor, ins ->
          let x = xor_chain ins in
          Sat.add_clause solver [ -out; -x ];
          Sat.add_clause solver [ out; x ]
        | (Gate.Not | Gate.Buf), _ -> invalid_arg "Cnf: arity");
        lit.(v) <- out)
    (Netlist.topo_order nl);
  lit

type verdict =
  | Equivalent
  | Differ of { output_index : int; counterexample : (string * bool) list }
  | Interface_mismatch

let equivalent a b =
  let ins_a = Netlist.inputs a and ins_b = Netlist.inputs b in
  let outs_a = Netlist.outputs a and outs_b = Netlist.outputs b in
  if List.length ins_a <> List.length ins_b
     || List.length outs_a <> List.length outs_b
  then Interface_mismatch
  else begin
    let solver = Sat.create () in
    let inputs = Array.init (List.length ins_a) (fun _ -> Sat.new_var solver) in
    let la = encode solver a ~inputs in
    let lb = encode solver b ~inputs in
    (* miter: OR of output XORs must be satisfiable for a difference *)
    let diffs =
      List.map2
        (fun oa ob ->
          let d = Sat.new_var solver in
          (* d <-> la(oa) xor lb(ob) *)
          Sat.add_clause solver [ -d; la.(oa); lb.(ob) ];
          Sat.add_clause solver [ -d; -la.(oa); -lb.(ob) ];
          Sat.add_clause solver [ d; la.(oa); -lb.(ob) ];
          Sat.add_clause solver [ d; -la.(oa); lb.(ob) ];
          d)
        outs_a outs_b
    in
    Sat.add_clause solver diffs;
    match Sat.solve solver with
    | Sat.Unsat -> Equivalent
    | Sat.Sat model ->
      let bits = Array.map (fun v -> model.(v)) inputs in
      let va = Netlist.simulate a bits and vb = Netlist.simulate b bits in
      let counterexample =
        List.mapi (fun i v -> (Netlist.node_name a v, bits.(i))) ins_a
      in
      match
        List.find_index Fun.id
          (List.map2 (fun oa ob -> va.(oa) <> vb.(ob)) outs_a outs_b)
      with
      | Some output_index -> Differ { output_index; counterexample }
      | None -> failwith "Cnf.equivalent: counterexample distinguishes no output"
  end
