module Rng = Minflo_util.Rng

type op = Splice | Swap_kind | Rewire | Deep_chain | Widen | Dup_output

let all_ops = [| Splice; Swap_kind; Rewire; Deep_chain; Widen; Dup_output |]

(* ---------- editable view ---------- *)

(* Mutations edit the raw declaration list and re-elaborate. [Raw.of_netlist]
   lists gates in creation order, which is a topological order, so "signals
   declared before index i" is exactly the set a gate at position i may read
   without creating a cycle. *)

type view = {
  name : string;
  inputs : string list;
  outputs : string list;
  gates : Raw.gate_decl array;  (* edited in place; splices rebuild *)
}

let view_of nl =
  let raw = Raw.of_netlist nl in
  { name = raw.Raw.circuit;
    inputs = List.map fst raw.Raw.inputs;
    outputs = List.map fst raw.Raw.outputs;
    gates = Array.of_list raw.Raw.gates }

let decl name kind fanins =
  { Raw.g_name = name; g_kind = kind; g_fanins = fanins; g_loc = Raw.no_loc }

let rebuild ?(extra = []) v =
  let raw =
    { Raw.file = None;
      circuit = v.name;
      inputs = List.map (fun nm -> (nm, Raw.no_loc)) v.inputs;
      outputs = List.map (fun nm -> (nm, Raw.no_loc)) v.outputs;
      gates = Array.to_list v.gates @ extra }
  in
  match Raw.elaborate raw with Ok nl -> Some nl | Error _ -> None

let fresh_name =
  (* names unique against everything already declared *)
  let exists v nm =
    List.mem nm v.inputs
    || Array.exists (fun g -> g.Raw.g_name = nm) v.gates
  in
  fun v tag ->
    let rec go k =
      let nm = Printf.sprintf "mut_%s%d" tag k in
      if exists v nm then go (k + 1) else nm
    in
    go 0

(* signals a gate at index [i] may legally read: inputs plus outputs of
   gates declared strictly before it *)
let signals_before v i =
  let acc = ref (List.rev v.inputs) in
  for j = 0 to i - 1 do
    acc := v.gates.(j).Raw.g_name :: !acc
  done;
  Array.of_list (List.rev !acc)

let all_signals v = signals_before v (Array.length v.gates)

let replace_nth xs n y = List.mapi (fun i x -> if i = n then y else x) xs

(* ---------- operations ---------- *)

let splice rng v =
  let n = Array.length v.gates in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let g = v.gates.(i) in
    let p = Rng.int rng (List.length g.Raw.g_fanins) in
    let src = List.nth g.Raw.g_fanins p in
    let kind = if Rng.bool rng then Gate.Buf else Gate.Not in
    let nm = fresh_name v "sp" in
    v.gates.(i) <- { g with Raw.g_fanins = replace_nth g.Raw.g_fanins p nm };
    (* declare the spliced gate before its reader; order elsewhere unchanged *)
    let gates =
      Array.to_list (Array.sub v.gates 0 i)
      @ [ decl nm kind [ src ] ]
      @ Array.to_list (Array.sub v.gates i (n - i))
    in
    rebuild { v with gates = Array.of_list gates }
  end

let swap_kind rng v =
  let n = Array.length v.gates in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let g = v.gates.(i) in
    let arity = List.length g.Raw.g_fanins in
    let candidates =
      List.filter
        (fun k ->
          k <> g.Raw.g_kind
          && arity >= Gate.min_arity k
          && match Gate.max_arity k with None -> true | Some m -> arity <= m)
        Gate.all
    in
    match candidates with
    | [] -> None
    | _ ->
      let k = Rng.pick rng (Array.of_list candidates) in
      v.gates.(i) <- { g with Raw.g_kind = k };
      rebuild v
  end

let rewire rng v =
  let n = Array.length v.gates in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let g = v.gates.(i) in
    let pool = signals_before v i in
    if Array.length pool = 0 then None
    else begin
      let p = Rng.int rng (List.length g.Raw.g_fanins) in
      let src = Rng.pick rng pool in
      v.gates.(i) <- { g with Raw.g_fanins = replace_nth g.Raw.g_fanins p src };
      rebuild v
    end
  end

let deep_chain rng v =
  let pool = all_signals v in
  if Array.length pool = 0 then None
  else begin
    let src = Rng.pick rng pool in
    let depth = 16 + Rng.int rng 49 in
    let chain = ref [] in
    let prev = ref src in
    for k = 0 to depth - 1 do
      let nm = fresh_name v (Printf.sprintf "ch%d_" k) in
      chain := decl nm Gate.Not [ !prev ] :: !chain;
      prev := nm
    done;
    rebuild ~extra:(List.rev !chain) { v with outputs = v.outputs @ [ !prev ] }
  end

let widen rng v =
  let n = Array.length v.gates in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let g = v.gates.(i) in
    if Gate.max_arity g.Raw.g_kind <> None then None
    else begin
      let pool = signals_before v i in
      if Array.length pool = 0 then None
      else begin
        let extra = 1 + Rng.int rng 4 in
        let added = List.init extra (fun _ -> Rng.pick rng pool) in
        v.gates.(i) <- { g with Raw.g_fanins = g.Raw.g_fanins @ added };
        rebuild v
      end
    end
  end

let dup_output rng v =
  let internal =
    Array.to_list v.gates
    |> List.filter_map (fun g ->
           if List.mem g.Raw.g_name v.outputs then None else Some g.Raw.g_name)
  in
  match internal with
  | [] -> None
  | _ ->
    rebuild
      { v with outputs = v.outputs @ [ Rng.pick rng (Array.of_list internal) ] }

let apply rng op nl =
  let v = view_of nl in
  match op with
  | Splice -> splice rng v
  | Swap_kind -> swap_kind rng v
  | Rewire -> rewire rng v
  | Deep_chain -> deep_chain rng v
  | Widen -> widen rng v
  | Dup_output -> dup_output rng v

let mutate ~seed ~rounds nl =
  let rng = Rng.create seed in
  let cur = ref nl in
  for _ = 1 to rounds do
    match apply rng (Rng.pick rng all_ops) !cur with
    | Some nl' -> cur := nl'
    | None -> ()
  done;
  !cur
