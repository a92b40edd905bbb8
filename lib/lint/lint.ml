module Raw = Minflo_netlist.Raw
module Gate = Minflo_netlist.Gate
module Tech = Minflo_tech.Tech

type config = { fanout_bound : int option; tech : Tech.t option }

let default_config = { fanout_bound = None; tech = Some Tech.default_130nm }

(* resolved view of a raw netlist: signals as dense ints *)
type view = {
  raw : Raw.t;
  names : string array;
  index : (string, int) Hashtbl.t;
  driver : Raw.gate_decl option array;
      (** the first gate driving each signal, if any *)
  input_decl : Raw.loc option array;
      (** first INPUT declaration of each signal, if any *)
  fanout : int array;  (** gate-fanin references per signal *)
  fanins : int list array;
      (** fanin signals of every gate driving each signal, in reverse
          declaration order *)
}

let view_of raw =
  let names = Array.of_list (Raw.signal_names raw) in
  let index = Hashtbl.create (Array.length names * 2) in
  Array.iteri (fun i nm -> Hashtbl.replace index nm i) names;
  let n = Array.length names in
  let driver = Array.make n None in
  let input_decl = Array.make n None in
  let fanout = Array.make n 0 in
  let fanins = Array.make n [] in
  List.iter
    (fun (nm, loc) ->
      let i = Hashtbl.find index nm in
      if input_decl.(i) = None then input_decl.(i) <- Some loc)
    raw.Raw.inputs;
  List.iter
    (fun (g : Raw.gate_decl) ->
      let i = Hashtbl.find index g.g_name in
      if driver.(i) = None then driver.(i) <- Some g;
      List.iter
        (fun f ->
          let j = Hashtbl.find index f in
          fanout.(j) <- fanout.(j) + 1;
          fanins.(i) <- j :: fanins.(i))
        g.g_fanins)
    raw.Raw.gates;
  { raw; names; index; driver; input_decl; fanout; fanins }

let idx v nm = Hashtbl.find v.index nm

let mk v ?(loc = Raw.no_loc) ?related rule fmt =
  Printf.ksprintf
    (fun message -> Finding.make ~file:v.raw.Raw.file ~loc ?related rule message)
    fmt

(* ---------- interface & declaration passes ---------- *)

let check_interface v acc =
  let acc =
    if v.raw.Raw.inputs = [] then
      mk v ~loc:{ line = 1; col = 0 } Rule.mf009_empty_interface
        "circuit %S declares no primary inputs" v.raw.Raw.circuit
      :: acc
    else acc
  in
  if v.raw.Raw.outputs = [] then
    mk v ~loc:{ line = 1; col = 0 } Rule.mf009_empty_interface
      "circuit %S declares no primary outputs" v.raw.Raw.circuit
    :: acc
  else acc

let check_duplicate_inputs v acc =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc (nm, loc) ->
      if Hashtbl.mem seen nm then
        mk v ~loc ~related:[ nm ] Rule.mf006_duplicate_decl
          "signal %S is declared INPUT more than once" nm
        :: acc
      else begin
        Hashtbl.add seen nm ();
        acc
      end)
    acc v.raw.Raw.inputs

let check_multi_driven v acc =
  (* count gate drivers per signal; also flag input-declared signals that a
     gate drives. Duplicate INPUT declarations are MF006, not repeated here. *)
  let gate_drivers = Hashtbl.create 16 in
  let acc =
    List.fold_left
      (fun acc (g : Raw.gate_decl) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt gate_drivers g.g_name) in
        Hashtbl.replace gate_drivers g.g_name (prev + 1);
        if prev > 0 then
          mk v ~loc:g.g_loc ~related:[ g.g_name ] Rule.mf002_multi_driven
            "signal %S is driven by %d gates" g.g_name (prev + 1)
          :: acc
        else acc)
      acc v.raw.Raw.gates
  in
  List.fold_left
    (fun acc (g : Raw.gate_decl) ->
      let i = idx v g.g_name in
      match (v.input_decl.(i), v.driver.(i)) with
      | Some _, Some first when first == g ->
        mk v ~loc:g.g_loc ~related:[ g.g_name ] Rule.mf002_multi_driven
          "signal %S is a primary input but is also driven by a gate" g.g_name
        :: acc
      | _ -> acc)
    acc v.raw.Raw.gates

let check_undriven v acc =
  let reported = Hashtbl.create 16 in
  let undriven nm =
    let i = idx v nm in
    v.input_decl.(i) = None && v.driver.(i) = None && not (Hashtbl.mem reported nm)
  in
  let acc =
    List.fold_left
      (fun acc (g : Raw.gate_decl) ->
        List.fold_left
          (fun acc f ->
            if undriven f then begin
              Hashtbl.add reported f ();
              mk v ~loc:g.g_loc ~related:[ f ] Rule.mf003_undriven
                "gate %S reads signal %S, which nothing drives" g.g_name f
              :: acc
            end
            else acc)
          acc g.g_fanins)
      acc v.raw.Raw.gates
  in
  List.fold_left
    (fun acc (nm, loc) ->
      if undriven nm then begin
        Hashtbl.add reported nm ();
        mk v ~loc ~related:[ nm ] Rule.mf003_undriven
          "OUTPUT(%s) refers to a signal nothing drives" nm
        :: acc
      end
      else acc)
    acc v.raw.Raw.outputs

(* ---------- cycle pass ---------- *)

(* the strongly connected components of the fanin graph that contain a
   cycle (two or more members, or a self-loop): Tarjan's algorithm with an
   explicit call stack, so deep circuits cannot overflow the native one *)
let cyclic_groups v =
  let n = Array.length v.names in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let pending = Array.copy v.fanins in
  let stack = ref [] and calls = ref [] and next = ref 0 and groups = ref [] in
  let enter u =
    index.(u) <- !next;
    low.(u) <- !next;
    incr next;
    stack := u :: !stack;
    on_stack.(u) <- true;
    calls := u :: !calls
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then enter root;
    while !calls <> [] do
      let u = List.hd !calls in
      match pending.(u) with
      | w :: rest ->
        pending.(u) <- rest;
        if index.(w) < 0 then enter w
        else if on_stack.(w) then low.(u) <- Int.min low.(u) index.(w)
      | [] ->
        calls := List.tl !calls;
        (match !calls with
        | parent :: _ -> low.(parent) <- Int.min low.(parent) low.(u)
        | [] -> ());
        if low.(u) = index.(u) then begin
          let rec pop group =
            let w = List.hd !stack in
            stack := List.tl !stack;
            on_stack.(w) <- false;
            if w = u then w :: group else pop (w :: group)
          in
          match pop [] with
          | [ w ] when not (List.mem w v.fanins.(w)) -> ()
          | group -> groups := group :: !groups
        end
    done
  done;
  !groups

let check_cycles v acc =
  List.fold_left
    (fun acc cycle ->
      (* name the members by their driver gates, ordered by source line *)
      let members =
        List.filter_map
          (fun node ->
            match v.driver.(node) with
            | Some gd -> Some (gd.Raw.g_loc, v.names.(node))
            | None -> Some (Raw.no_loc, v.names.(node)))
          cycle
        |> List.sort compare
      in
      let loc =
        match members with (l, _) :: _ when l <> Raw.no_loc -> l | _ -> Raw.no_loc
      in
      let names = List.map snd members in
      mk v ~loc ~related:names Rule.mf001_cycle
        "combinational cycle through %d gate(s): %s" (List.length names)
        (String.concat " -> " (names @ [ List.hd names ]))
      :: acc)
    acc (cyclic_groups v)

(* ---------- liveness pass ---------- *)

(* signals from which some primary output is transitively needed: walk
   backward from the outputs through every gate driving each signal *)
let live_signals v =
  let n = Array.length v.names in
  let live = Array.make n false in
  let rec visit i =
    if not live.(i) then begin
      live.(i) <- true;
      List.iter visit v.fanins.(i)
    end
  in
  List.iter
    (fun (nm, _) -> match Hashtbl.find_opt v.index nm with
      | Some i -> visit i
      | None -> ())
    v.raw.Raw.outputs;
  live

let check_dead v acc =
  let live = live_signals v in
  (* one finding per distinct dead driven signal, at its first driver *)
  List.fold_left
    (fun acc (g : Raw.gate_decl) ->
      let i = idx v g.g_name in
      let is_first = match v.driver.(i) with Some d -> d == g | None -> false in
      if (not live.(i)) && is_first then
        mk v ~loc:g.Raw.g_loc ~related:[ g.Raw.g_name ] Rule.mf005_dead_gate
          "gate %S reaches no primary output" g.Raw.g_name
        :: acc
      else acc)
    acc v.raw.Raw.gates

let check_dangling_inputs v acc =
  let live = live_signals v in
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc (nm, loc) ->
      let i = idx v nm in
      if Hashtbl.mem seen nm then acc
      else begin
        Hashtbl.add seen nm ();
        if v.fanout.(i) = 0 && not live.(i) then
          mk v ~loc ~related:[ nm ] Rule.mf004_dangling_input
            "primary input %S drives nothing" nm
          :: acc
        else acc
      end)
    acc v.raw.Raw.inputs

(* ---------- configurable passes ---------- *)

let check_fanout v bound acc =
  Array.to_seqi v.fanout
  |> Seq.fold_left
       (fun acc (i, fo) ->
         if fo > bound then
           let loc =
             match (v.driver.(i), v.input_decl.(i)) with
             | Some gd, _ -> gd.Raw.g_loc
             | None, Some l -> l
             | None, None -> Raw.no_loc
           in
           mk v ~loc ~related:[ v.names.(i) ] Rule.mf007_fanout_bound
             "signal %S fans out to %d gate pins (bound %d)" v.names.(i) fo
             bound
           :: acc
         else acc)
       acc

let stacked_kind = function
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> true
  | Gate.Not | Gate.Buf | Gate.Xor | Gate.Xnor -> false

let check_tech v (tech : Tech.t) acc =
  List.fold_left
    (fun acc (g : Raw.gate_decl) ->
      let arity = List.length g.g_fanins in
      if stacked_kind g.g_kind && arity > tech.max_stack then
        mk v ~loc:g.g_loc ~related:[ g.g_name ] Rule.mf008_tech_coverage
          "%d-input %s %S needs a series stack deeper than %s supports (max \
           %d)"
          arity (Gate.to_string g.g_kind) g.g_name tech.name tech.max_stack
        :: acc
      else acc)
    acc v.raw.Raw.gates

let check_arity v acc =
  List.fold_left
    (fun acc (g : Raw.gate_decl) ->
      let arity = List.length g.g_fanins in
      let lo = Gate.min_arity g.g_kind in
      if arity < lo then
        mk v ~loc:g.g_loc ~related:[ g.g_name ] Rule.mf010_bad_arity
          "%s %S needs at least %d fanin(s), has %d" (Gate.to_string g.g_kind)
          g.g_name lo arity
        :: acc
      else
        match Gate.max_arity g.g_kind with
        | Some hi when arity > hi ->
          mk v ~loc:g.g_loc ~related:[ g.g_name ] Rule.mf010_bad_arity
            "%s %S takes at most %d fanin(s), has %d" (Gate.to_string g.g_kind)
            g.g_name hi arity
          :: acc
        | _ -> acc)
    acc v.raw.Raw.gates

(* ---------- driver ---------- *)

let check ?(config = default_config) raw =
  let v = view_of raw in
  let acc = [] in
  let acc = check_interface v acc in
  let acc = check_duplicate_inputs v acc in
  let acc = check_multi_driven v acc in
  let acc = check_undriven v acc in
  let acc = check_cycles v acc in
  let acc = check_dead v acc in
  let acc = check_dangling_inputs v acc in
  let acc = check_arity v acc in
  let acc =
    match config.fanout_bound with
    | Some b -> check_fanout v b acc
    | None -> acc
  in
  let acc =
    match config.tech with
    | Some t -> Bounds.check_tech t @ check_tech v t acc
    | None -> acc
  in
  List.sort Finding.compare acc
