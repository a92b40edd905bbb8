module Vec = Minflo_util.Vec

type node_kind = Input | Gate of Gate.kind

type node = int

type node_data = { nname : string; nkind : node_kind; nfanins : int array }

type t = {
  cname : string;
  nodes : node_data Vec.t;
  by_name : (string, int) Hashtbl.t;
  mutable output_list : int list; (* reversed insertion order *)
  output_set : (int, unit) Hashtbl.t;
  mutable fanout_cache : int list array option;
}

let dummy_node = { nname = ""; nkind = Input; nfanins = [||] }

let create ?(name = "circuit") () =
  { cname = name;
    nodes = Vec.create ~dummy:dummy_node ();
    by_name = Hashtbl.create 256;
    output_list = [];
    output_set = Hashtbl.create 16;
    fanout_cache = None }

let name t = t.cname
let node_count t = Vec.length t.nodes

let add_named t data =
  if Hashtbl.mem t.by_name data.nname then
    invalid_arg (Printf.sprintf "Netlist: duplicate node name %S" data.nname);
  let id = Vec.push t.nodes data in
  Hashtbl.add t.by_name data.nname id;
  t.fanout_cache <- None;
  id

let add_input t nm = add_named t { nname = nm; nkind = Input; nfanins = [||] }

let add_gate t nm gkind fanin_list =
  let n = List.length fanin_list in
  if n < Gate.min_arity gkind then
    invalid_arg
      (Printf.sprintf "Netlist: %s gate %S needs >= %d fanins" (Gate.to_string gkind)
         nm (Gate.min_arity gkind));
  (match Gate.max_arity gkind with
  | Some m when n > m ->
    invalid_arg
      (Printf.sprintf "Netlist: %s gate %S takes <= %d fanins" (Gate.to_string gkind)
         nm m)
  | _ -> ());
  let count = node_count t in
  List.iter
    (fun f ->
      if f < 0 || f >= count then
        invalid_arg (Printf.sprintf "Netlist: gate %S has unknown fanin %d" nm f))
    fanin_list;
  add_named t { nname = nm; nkind = Gate gkind; nfanins = Array.of_list fanin_list }

let mark_output t v =
  if v < 0 || v >= node_count t then invalid_arg "Netlist.mark_output: bad node";
  if not (Hashtbl.mem t.output_set v) then begin
    Hashtbl.add t.output_set v ();
    t.output_list <- v :: t.output_list
  end

let kind t v = (Vec.get t.nodes v).nkind
let node_name t v = (Vec.get t.nodes v).nname
let find t nm = Hashtbl.find_opt t.by_name nm
let fanins t v = Array.to_list (Vec.get t.nodes v).nfanins

let gate_count t =
  Vec.fold (fun acc d -> match d.nkind with Gate _ -> acc + 1 | Input -> acc) 0 t.nodes

let input_count t =
  Vec.fold (fun acc d -> match d.nkind with Input -> acc + 1 | Gate _ -> acc) 0 t.nodes

let fanout_table t =
  match t.fanout_cache with
  | Some f -> f
  | None ->
    let f = Array.make (node_count t) [] in
    Vec.iteri
      (fun v d -> Array.iter (fun u -> f.(u) <- v :: f.(u)) d.nfanins)
      t.nodes;
    Array.iteri (fun i l -> f.(i) <- List.rev l) f;
    t.fanout_cache <- Some f;
    f

let fanouts t v = (fanout_table t).(v)
let fanout_degree t v = List.length (fanouts t v)

let inputs t =
  let acc = ref [] in
  Vec.iteri (fun v d -> if d.nkind = Input then acc := v :: !acc) t.nodes;
  List.rev !acc

let outputs t = List.rev t.output_list
let is_output t v = Hashtbl.mem t.output_set v

let iter_nodes t f = Vec.iteri (fun v _ -> f v) t.nodes

let iter_gates t f =
  Vec.iteri (fun v d -> match d.nkind with Gate _ -> f v | Input -> ()) t.nodes

let topo_order t =
  (* fanins precede their gates by construction, so ids are already
     topologically ordered *)
  Array.init (node_count t) Fun.id

let levels t =
  let l = Array.make (node_count t) 0 in
  Vec.iteri
    (fun v d ->
      Array.iter (fun u -> if l.(u) + 1 > l.(v) then l.(v) <- l.(u) + 1) d.nfanins)
    t.nodes;
  l

let depth t = Array.fold_left max 0 (levels t)

let reaches_output t =
  (* fanins precede their gates, so one sweep down the ids sees every
     fanout of a node before the node itself *)
  let live = Array.make (node_count t) false in
  Hashtbl.iter (fun v () -> live.(v) <- true) t.output_set;
  for v = node_count t - 1 downto 0 do
    if live.(v) then
      Array.iter (fun u -> live.(u) <- true) (Vec.get t.nodes v).nfanins
  done;
  live

let validate t =
  if input_count t = 0 then invalid_arg "Netlist.validate: no primary inputs";
  if t.output_list = [] then invalid_arg "Netlist.validate: no primary outputs";
  (* every gate's value should reach a primary output (no dead logic) *)
  let live = reaches_output t in
  iter_gates t (fun v ->
      if not live.(v) then
        invalid_arg
          (Printf.sprintf "Netlist.validate: gate %S drives no primary output"
             (node_name t v)))

let simulate t input_values =
  let ins = inputs t in
  if List.length ins <> Array.length input_values then
    invalid_arg "Netlist.simulate: wrong number of input values";
  let value = Array.make (node_count t) false in
  List.iteri (fun i v -> value.(v) <- input_values.(i)) ins;
  Vec.iteri
    (fun v d ->
      match d.nkind with
      | Input -> ()
      | Gate k -> value.(v) <- Gate.eval k (Array.map (fun u -> value.(u)) d.nfanins))
    t.nodes;
  value

type stats = {
  num_inputs : int;
  num_outputs : int;
  num_gates : int;
  gates_by_kind : (Gate.kind * int) list;
  logic_depth : int;
  max_fanout : int;
  avg_fanin : float;
}

let stats t =
  let by_kind = Hashtbl.create 8 in
  let total_fanin = ref 0 in
  iter_gates t (fun v ->
      match kind t v with
      | Gate k ->
        Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k));
        total_fanin := !total_fanin + List.length (fanins t v)
      | Input -> ());
  let max_fanout = ref 0 in
  iter_nodes t (fun v -> max_fanout := max !max_fanout (fanout_degree t v));
  let ng = gate_count t in
  { num_inputs = input_count t;
    num_outputs = List.length t.output_list;
    num_gates = ng;
    gates_by_kind =
      List.filter_map
        (fun k -> Option.map (fun c -> (k, c)) (Hashtbl.find_opt by_kind k))
        Gate.all;
    logic_depth = depth t;
    max_fanout = !max_fanout;
    avg_fanin = (if ng = 0 then 0.0 else float_of_int !total_fanin /. float_of_int ng) }

let pp_stats fmt s =
  Format.fprintf fmt "inputs=%d outputs=%d gates=%d depth=%d max_fanout=%d avg_fanin=%.2f"
    s.num_inputs s.num_outputs s.num_gates s.logic_depth s.max_fanout s.avg_fanin;
  Format.fprintf fmt " [%s]"
    (String.concat ", "
       (List.map
          (fun (k, c) -> Printf.sprintf "%s:%d" (Gate.to_string k) c)
          s.gates_by_kind))
