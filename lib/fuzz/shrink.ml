module Netlist = Minflo_netlist.Netlist
module Raw = Minflo_netlist.Raw
module Gate = Minflo_netlist.Gate
module Mutate = Minflo_netlist.Mutate

let dedupe xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

(* the view with the gates at [drop] removed; each removed gate's output is
   substituted by its first fanin (chains resolve because fanins always
   point at earlier declarations) *)
let without (v : Mutate.view) drop =
  let n = Array.length v.gates in
  let dropped = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then dropped.(i) <- true) drop;
  let subst = Hashtbl.create 16 in
  Array.iteri
    (fun i g ->
      if dropped.(i) then
        match g.Raw.g_fanins with
        | f :: _ when f <> g.Raw.g_name -> Hashtbl.replace subst g.Raw.g_name f
        | _ -> ())
    v.gates;
  let rec resolve name =
    match Hashtbl.find_opt subst name with
    | Some next -> resolve next
    | None -> name
  in
  let kept = ref [] in
  Array.iteri
    (fun i g ->
      if not dropped.(i) then
        kept :=
          { g with Raw.g_fanins = List.map resolve g.Raw.g_fanins } :: !kept)
    v.gates;
  { v with
    gates = Array.of_list (List.rev !kept);
    outputs = dedupe (List.map resolve v.outputs) }

let take k xs = List.filteri (fun i _ -> i < k) xs

(* ---------- the reducer ---------- *)

let shrink ?(max_checks = 1000) ~keep nl =
  let checks = ref 0 in
  let best = ref nl in
  let try_view v =
    if !checks >= max_checks then false
    else
      match Mutate.rebuild v with
      | None -> false
      | Some cand ->
        incr checks;
        if keep cand then begin
          best := cand;
          true
        end
        else false
  in
  (* ddmin over the gate list: try dropping complements of k chunks,
     halving chunk size on failure, coarsening after success *)
  let gate_pass () =
    let progress = ref false in
    let chunks = ref 2 in
    let running = ref true in
    while !running && !checks < max_checks do
      let v = Mutate.view_of !best in
      let n = Array.length v.gates in
      if n <= 1 then running := false
      else begin
        let k = min !chunks n in
        let size = (n + k - 1) / k in
        let found = ref false in
        let ci = ref 0 in
        while (not !found) && (!ci * size < n) && !checks < max_checks do
          let lo = !ci * size in
          let hi = min n (lo + size) in
          let drop = List.init (hi - lo) (fun j -> lo + j) in
          if try_view (without v drop) then begin
            found := true;
            progress := true
          end;
          incr ci
        done;
        if !found then chunks := max 2 (!chunks - 1)
        else if k >= n then running := false
        else chunks := min n (2 * k)
      end
    done;
    !progress
  in
  (* cut each gate's fanin list toward its kind's minimum arity *)
  let fanin_pass () =
    let progress = ref false in
    let again = ref true in
    while !again && !checks < max_checks do
      again := false;
      let v = Mutate.view_of !best in
      let n = Array.length v.gates in
      let i = ref 0 in
      while (not !again) && !i < n && !checks < max_checks do
        let g = v.gates.(!i) in
        let arity = List.length g.Raw.g_fanins in
        let m = Gate.min_arity g.Raw.g_kind in
        if arity > m then begin
          let candidates = dedupe [ m; arity - 1 ] in
          List.iter
            (fun k ->
              if not !again then begin
                let gates = Array.copy v.gates in
                gates.(!i) <- { g with Raw.g_fanins = take k g.Raw.g_fanins };
                if try_view { v with gates } then begin
                  again := true;
                  progress := true
                end
              end)
            candidates
        end;
        incr i
      done
    done;
    !progress
  in
  (* drop surplus primary outputs, one at a time, keeping at least one *)
  let output_pass () =
    let progress = ref false in
    let again = ref true in
    while !again && !checks < max_checks do
      again := false;
      let v = Mutate.view_of !best in
      let n = List.length v.outputs in
      if n > 1 then begin
        let i = ref (n - 1) in
        while (not !again) && !i >= 0 && !checks < max_checks do
          let outputs = List.filteri (fun j _ -> j <> !i) v.outputs in
          if try_view { v with outputs } then begin
            again := true;
            progress := true
          end;
          decr i
        done
      end
    done;
    !progress
  in
  (* prune primary inputs nothing reads *)
  let input_pass () =
    let v = Mutate.view_of !best in
    let read = Hashtbl.create 64 in
    Array.iter
      (fun g -> List.iter (fun f -> Hashtbl.replace read f ()) g.Raw.g_fanins)
      v.gates;
    List.iter (fun o -> Hashtbl.replace read o ()) v.outputs;
    let unused = List.filter (fun i -> not (Hashtbl.mem read i)) v.inputs in
    if unused = [] then false
    else begin
      let keep_inputs = List.filter (Hashtbl.mem read) v.inputs in
      if keep_inputs <> [] && try_view { v with inputs = keep_inputs } then
        true
      else
        (* all-at-once rejected (or would empty the interface): one by one *)
        List.fold_left
          (fun acc dead ->
            let v = Mutate.view_of !best in
            let inputs = List.filter (fun i -> i <> dead) v.inputs in
            if inputs <> [] && try_view { v with inputs } then true else acc)
          false unused
    end
  in
  let rec fixpoint () =
    let p1 = gate_pass () in
    let p2 = fanin_pass () in
    let p3 = output_pass () in
    let p4 = input_pass () in
    if (p1 || p2 || p3 || p4) && !checks < max_checks then fixpoint ()
  in
  fixpoint ();
  !best
