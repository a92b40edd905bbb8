type t = {
  n : int;
  m : int;
  edge_src : int array;
  edge_dst : int array;
  fanout_off : int array;
  fanout : int array;
  fanin_off : int array;
  fanin : int array;
  coeff_off : int array;
  coeff_j : int array;
  coeff_a : float array;
  loader_off : int array;
  loader_k : int array;
  loader_a : float array;
  topo : int array;
  pos : int array;
  sinks : int array;
  blocks : int array array;
  a_self : float array;
  b : float array;
  area_weight : float array;
  is_sink : bool array;
  block : int array;
  labels : string array;
  min_size : float;
  max_size : float;
}

let invalid fmt = Printf.ksprintf invalid_arg ("Delay_model: " ^^ fmt)

(* CSR rows of the multigraph [src.(e) -> dst.(e)] over [n] vertices, filled
   by one ascending edge scan: every row lists its targets in edge-id
   (insertion) order *)
let csr n src dst =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun u -> off.(u + 1) <- off.(u + 1) + 1) src;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let adj = Array.make (Array.length src) 0 in
  let cur = Array.sub off 0 n in
  Array.iteri
    (fun e u ->
      adj.(cur.(u)) <- dst.(e);
      cur.(u) <- cur.(u) + 1)
    src;
  (off, adj)

(* FIFO Kahn over CSR rows: sources seeded ascending, rows walked in order.
   [test/test_arena.ml] pins it against a list-based Kahn over ascending
   edge ids. [order] doubles as the queue: [head] pops, [tail] pushes. *)
let kahn n off adj =
  let indeg = Array.make n 0 in
  Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1) adj;
  let order = Array.make n (-1) in
  let tail = ref 0 in
  let push v =
    order.(!tail) <- v;
    incr tail
  in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then push u
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for c = off.(u) to off.(u + 1) - 1 do
      let v = adj.(c) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then push v
    done
  done;
  if !tail = n then Some order else None

(* The blocks in topological order of the block quotient of (timing edges
   union coefficient dependencies). Block ids are compressed in order of
   first appearance; quotient edges are deduplicated keeping first
   occurrence, timing edges by id first, then coefficient rows. *)
let elimination_blocks n ~block ~edge_src ~edge_dst ~coeff_off ~coeff_j =
  let block_id = Hashtbl.create 64 in
  let nb = ref 0 in
  let vb =
    Array.init n (fun v ->
        match Hashtbl.find_opt block_id block.(v) with
        | Some id -> id
        | None ->
          let id = !nb in
          Hashtbl.add block_id block.(v) id;
          incr nb;
          id)
  in
  let nb = !nb in
  let seen = Hashtbl.create 256 in
  let q = ref [] in
  let add u v =
    if u <> v && not (Hashtbl.mem seen ((u * nb) + v)) then begin
      Hashtbl.add seen ((u * nb) + v) ();
      q := (u, v) :: !q
    end
  in
  Array.iteri (fun e u -> add vb.(u) vb.(edge_dst.(e))) edge_src;
  for i = 0 to n - 1 do
    for c = coeff_off.(i) to coeff_off.(i + 1) - 1 do
      add vb.(i) vb.(coeff_j.(c))
    done
  done;
  let q = Array.of_list (List.rev !q) in
  let off, adj = csr nb (Array.map fst q) (Array.map snd q) in
  match kahn nb off adj with
  | None -> invalid "coefficient structure is not block upper triangular"
  | Some order ->
    let members = Array.make nb [] in
    for v = n - 1 downto 0 do
      members.(vb.(v)) <- v :: members.(vb.(v))
    done;
    Array.map (fun bv -> Array.of_list members.(bv)) order

let make ~n ~edges ~a_self ~coeffs ~b ~area_weight ~is_sink ~block ~labels
    ~min_size ~max_size =
  let check_len name len =
    if len <> n then invalid "%s length %d <> %d" name len n
  in
  check_len "a_self" (Array.length a_self);
  check_len "coeffs" (Array.length coeffs);
  check_len "b" (Array.length b);
  check_len "area_weight" (Array.length area_weight);
  check_len "is_sink" (Array.length is_sink);
  check_len "block" (Array.length block);
  check_len "labels" (Array.length labels);
  let edges = Array.of_list edges in
  let m = Array.length edges in
  let edge_src = Array.map fst edges and edge_dst = Array.map snd edges in
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid "edge %d->%d out of range" u v)
    edges;
  (* adjacency CSR in edge insertion order: TILOS breaks best-fanin ties by
     strict [>] over fanin rows, and the critical-set backtrace lists
     vertices in fanin order — both are trajectory-visible *)
  let fanout_off, fanout = csr n edge_src edge_dst in
  let fanin_off, fanin = csr n edge_dst edge_src in
  let topo =
    match kahn n fanout_off fanout with
    | Some o -> o
    | None -> invalid "graph has a cycle"
  in
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) topo;
  if min_size <= 0.0 || max_size < min_size then invalid "bad size bounds";
  if not (Array.exists Fun.id is_sink) then invalid "no sink vertex";
  (* coefficient CSR: each accumulator row in [Hashtbl.to_seq] order — float
     sums over a row must keep this order to stay bit-identical *)
  let coeff_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    coeff_off.(i + 1) <- coeff_off.(i) + Hashtbl.length coeffs.(i)
  done;
  let nc = coeff_off.(n) in
  let coeff_j = Array.make nc 0 in
  let coeff_a = Array.make nc 0.0 in
  for i = 0 to n - 1 do
    if a_self.(i) < 0.0 || b.(i) < 0.0 then
      invalid "negative coefficient at vertex %d" i;
    let c = ref coeff_off.(i) in
    Seq.iter
      (fun (j, a) ->
        if a < 0.0 then invalid "negative a[%d][%d]" i j;
        if j = i then invalid "self coefficient %d in coeffs" i;
        if j < 0 || j >= n then invalid "coefficient a[%d][%d] out of range" i j;
        coeff_j.(!c) <- j;
        coeff_a.(!c) <- a;
        incr c)
      (Hashtbl.to_seq coeffs.(i))
  done;
  (* loader CSR: for each [j], the [(k, a_kj)] pairs with [k] loading [j].
     Historically this reverse index was built by consing over ascending
     rows, so consumers read it with [k] DESCENDING (and within a row,
     right-to-left). The sensitivity fixpoint sums floats in that order;
     build the rows reversed so the sums stay bit-identical. *)
  let loader_off = Array.make (n + 1) 0 in
  Array.iter (fun j -> loader_off.(j + 1) <- loader_off.(j + 1) + 1) coeff_j;
  for j = 0 to n - 1 do
    loader_off.(j + 1) <- loader_off.(j + 1) + loader_off.(j)
  done;
  let loader_k = Array.make nc 0 in
  let loader_a = Array.make nc 0.0 in
  let cur = Array.sub loader_off 0 n in
  for i = n - 1 downto 0 do
    for c = coeff_off.(i + 1) - 1 downto coeff_off.(i) do
      let j = coeff_j.(c) in
      loader_k.(cur.(j)) <- i;
      loader_a.(cur.(j)) <- coeff_a.(c);
      cur.(j) <- cur.(j) + 1
    done
  done;
  (* sink ids ascending — the order an [Array.iteri] scan of [is_sink]
     visits them, so sums over sinks keep their accumulation order *)
  let sinks =
    Array.of_list
      (List.filter (fun v -> is_sink.(v)) (List.init n Fun.id))
  in
  let blocks =
    elimination_blocks n ~block ~edge_src ~edge_dst ~coeff_off ~coeff_j
  in
  { n; m; edge_src; edge_dst; fanout_off; fanout; fanin_off; fanin;
    coeff_off; coeff_j; coeff_a; loader_off; loader_k; loader_a; topo; pos;
    sinks; blocks; a_self; b; area_weight; is_sink; block; labels; min_size;
    max_size }

let num_vertices t = t.n
let is_source t i = t.fanin_off.(i) = t.fanin_off.(i + 1)

let delay t x i =
  let acc = ref t.b.(i) in
  for c = t.coeff_off.(i) to t.coeff_off.(i + 1) - 1 do
    acc := !acc +. (t.coeff_a.(c) *. x.(t.coeff_j.(c)))
  done;
  t.a_self.(i) +. (!acc /. x.(i))

let delays t x = Array.init t.n (delay t x)

let delays_into t x out =
  for i = 0 to t.n - 1 do
    out.(i) <- delay t x i
  done

let arrivals_into t ~delays out =
  Array.fill out 0 t.n 0.0;
  for k = 0 to t.n - 1 do
    let i = t.topo.(k) in
    let reach = out.(i) +. delays.(i) in
    for c = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
      let j = t.fanout.(c) in
      if reach > out.(j) then out.(j) <- reach
    done
  done

let area t x =
  let acc = ref 0.0 in
  Array.iteri (fun i w -> acc := !acc +. (w *. x.(i))) t.area_weight;
  !acc

let uniform_sizes t s = Array.make t.n s

let check_sizes t x =
  if Array.length x <> t.n then Error "wrong size-vector length"
  else begin
    let bad = ref None in
    Array.iteri
      (fun i xi ->
        if not (xi >= t.min_size && xi <= t.max_size) then
          bad := Some (Printf.sprintf "x[%d] = %g out of [%g, %g]" i xi t.min_size t.max_size))
      x;
    match !bad with Some e -> Error e | None -> Ok ()
  end
