exception Cycle of Digraph.node list

let sort_opt g =
  let n = Digraph.node_count g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges g (fun e ->
      let v = Digraph.dst g e in
      indeg.(v) <- indeg.(v) + 1);
  let order = Array.make n (-1) in
  let queue = Queue.create () in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then Queue.add u queue
  done;
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!k) <- u;
    incr k;
    List.iter
      (fun e ->
        let v = Digraph.dst g e in
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      (Digraph.out_edges g u)
  done;
  if !k = n then Some order else None

let cycle_witness g =
  (* Gray/black DFS to extract one cycle for the error message. *)
  let n = Digraph.node_count g in
  let color = Array.make n 0 in
  let exception Found of int list in
  let rec dfs path u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if color.(v) = 1 then raise (Found (v :: path))
        else if color.(v) = 0 then dfs (v :: path) v)
      (Digraph.succ g u);
    color.(u) <- 2
  in
  try
    for u = 0 to n - 1 do
      if color.(u) = 0 then dfs [ u ] u
    done;
    []
  with Found path -> List.rev path

let sort g =
  match sort_opt g with
  | Some order -> order
  | None -> raise (Cycle (cycle_witness g))

let is_dag g = Option.is_some (sort_opt g)

let levels g =
  let order = sort g in
  let level = Array.make (Digraph.node_count g) 0 in
  Array.iter
    (fun u ->
      List.iter
        (fun v -> level.(v) <- max level.(v) (level.(u) + 1))
        (Digraph.succ g u))
    order;
  level

let depth g =
  let l = levels g in
  Array.fold_left max 0 l
