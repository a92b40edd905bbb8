module Bitset = Minflo_util.Bitset

let dfs_post g ~roots =
  let n = Digraph.node_count g in
  let seen = Bitset.create n in
  let acc = ref [] in
  (* Explicit stack to stay safe on deep circuits (c6288-scale chains). *)
  let visit u =
    if not (Bitset.mem seen u) then begin
      Bitset.add seen u;
      let stack = ref [ (u, Digraph.succ g u) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, next) :: rest -> (
          match next with
          | [] ->
            acc := v :: !acc;
            stack := rest
          | w :: ws ->
            stack := (v, ws) :: rest;
            if not (Bitset.mem seen w) then begin
              Bitset.add seen w;
              stack := (w, Digraph.succ g w) :: !stack
            end)
      done
    end
  in
  List.iter visit roots;
  List.rev !acc

let reach step g ~roots =
  let n = Digraph.node_count g in
  let seen = Bitset.create n in
  let queue = Queue.create () in
  List.iter
    (fun u ->
      if not (Bitset.mem seen u) then begin
        Bitset.add seen u;
        Queue.add u queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not (Bitset.mem seen v) then begin
          Bitset.add seen v;
          Queue.add v queue
        end)
      (step g u)
  done;
  seen

let reachable g ~roots = reach Digraph.succ g ~roots
let reachable_rev g ~roots = reach Digraph.pred g ~roots
