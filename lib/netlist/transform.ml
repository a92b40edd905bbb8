let fresh nl prefix = Printf.sprintf "%s%d" prefix (Netlist.node_count nl)

let nand2 nl a b = Netlist.add_gate nl (fresh nl "tn") Gate.Nand [ a; b ]
let inv nl a = Netlist.add_gate nl (fresh nl "ti") Gate.Not [ a ]

(* 2-input XOR as 4 NANDs *)
let xor_nand nl a b =
  let ab = nand2 nl a b in
  let l = nand2 nl a ab in
  let r = nand2 nl b ab in
  nand2 nl l r

let xor_chain nl = function
  | [] -> invalid_arg "Transform: empty XOR"
  | x :: rest -> List.fold_left (fun acc y -> xor_nand nl acc y) x rest

let rebuild src ~rewrite_gate =
  let dst = Netlist.create ~name:(Netlist.name src) () in
  let map = Array.make (Netlist.node_count src) (-1) in
  Netlist.iter_nodes src (fun v ->
      let nm = Netlist.node_name src v in
      let id =
        match Netlist.kind src v with
        | Netlist.Input -> Netlist.add_input dst nm
        | Netlist.Gate k ->
          let fanins = List.map (fun u -> map.(u)) (Netlist.fanins src v) in
          rewrite_gate dst nm k fanins
      in
      map.(v) <- id);
  List.iter (fun v -> Netlist.mark_output dst map.(v)) (Netlist.outputs src);
  Netlist.validate dst;
  dst

let expand_xor src =
  rebuild src ~rewrite_gate:(fun dst nm k fanins ->
      match k with
      | Gate.Xor ->
        (* the original gate's name is dropped; expanded stages carry fresh
           names and only topology matters downstream *)
        ignore nm;
        xor_chain dst fanins
      | Gate.Xnor ->
        let x = xor_chain dst fanins in
        Netlist.add_gate dst nm Gate.Not [ x ]
      | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Not | Gate.Buf) as k ->
        Netlist.add_gate dst nm k fanins)

let to_nand_inv src =
  let rec nand_tree dst = function
    (* NAND of a list: reduce with ANDs (as NAND+INV) then invert once *)
    | [] -> invalid_arg "Transform: empty gate"
    | [ x ] -> inv dst x
    | [ a; b ] -> nand2 dst a b
    | many ->
      (* AND-reduce pairwise, final stage NAND *)
      let rec pair = function
        | a :: b :: rest -> inv dst (nand2 dst a b) :: pair rest
        | leftover -> leftover
      in
      nand_tree dst (pair many)
  in
  rebuild src ~rewrite_gate:(fun dst nm k fanins ->
      let finish node =
        (* preserve the original output name with a final inverter pair only
           when unavoidable; here we simply return the node *)
        ignore nm;
        node
      in
      match k with
      | Gate.Nand -> (
        match fanins with
        | [ a; b ] -> Netlist.add_gate dst nm Gate.Nand [ a; b ]
        | many -> finish (nand_tree dst many))
      | Gate.And -> finish (inv dst (nand_tree dst fanins))
      | Gate.Or ->
        (* OR(x..) = NAND(NOT x ..) *)
        finish (nand_tree dst (List.map (fun x -> inv dst x) fanins))
      | Gate.Nor -> finish (inv dst (nand_tree dst (List.map (fun x -> inv dst x) fanins)))
      | Gate.Not -> Netlist.add_gate dst nm Gate.Not fanins
      | Gate.Buf -> finish (inv dst (inv dst (List.hd fanins)))
      | Gate.Xor -> finish (xor_chain dst fanins)
      | Gate.Xnor -> finish (inv dst (xor_chain dst fanins)))
