(* Unit and property tests for the graph substrate. *)

module Digraph = Minflo_graph.Digraph
module Topo = Minflo_graph.Topo
module Traverse = Minflo_graph.Traverse
module Dot = Minflo_graph.Dot
module Rng = Minflo_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  let g = Digraph.create () in
  let a = Digraph.add_node g in
  let b = Digraph.add_node g in
  let c = Digraph.add_node g in
  let d = Digraph.add_node g in
  ignore (Digraph.add_edge g a b);
  ignore (Digraph.add_edge g a c);
  ignore (Digraph.add_edge g b d);
  ignore (Digraph.add_edge g c d);
  g

let test_basic_structure () =
  let g = diamond () in
  check int "nodes" 4 (Digraph.node_count g);
  check int "edges" 4 (Digraph.edge_count g);
  check int "out_degree 0" 2 (Digraph.out_degree g 0);
  check int "in_degree 3" 2 (Digraph.in_degree g 3);
  check (Alcotest.list int) "succ 0" [ 1; 2 ] (Digraph.succ g 0);
  check (Alcotest.list int) "pred 3" [ 1; 2 ] (Digraph.pred g 3);
  check bool "find_edge" true (Digraph.find_edge g 0 1 <> None);
  check bool "find_edge none" true (Digraph.find_edge g 1 0 = None)

let test_edge_endpoints () =
  let g = Digraph.create () in
  let a = Digraph.add_node g and b = Digraph.add_node g in
  let e = Digraph.add_edge g a b in
  check int "src" a (Digraph.src g e);
  check int "dst" b (Digraph.dst g e)

let test_add_nodes_bulk () =
  let g = Digraph.create () in
  let first = Digraph.add_nodes g 5 in
  check int "first id" 0 first;
  check int "count" 5 (Digraph.node_count g)

let test_topo_diamond () =
  let g = diamond () in
  let order = Topo.sort g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  Digraph.iter_edges g (fun e ->
      check bool "topo respects edges" true
        (pos.(Digraph.src g e) < pos.(Digraph.dst g e)))

let test_topo_cycle () =
  let g = Digraph.create () in
  let a = Digraph.add_node g and b = Digraph.add_node g in
  ignore (Digraph.add_edge g a b);
  ignore (Digraph.add_edge g b a);
  check bool "not a dag" false (Topo.is_dag g);
  (match Topo.sort_opt g with
  | None -> ()
  | Some _ -> Alcotest.fail "expected no topo order");
  match Topo.sort g with
  | exception Topo.Cycle nodes -> check bool "cycle nonempty" true (nodes <> [])
  | _ -> Alcotest.fail "expected Cycle exception"

let test_levels_depth () =
  let g = diamond () in
  let levels = Topo.levels g in
  check int "level src" 0 levels.(0);
  check int "level mid" 1 levels.(1);
  check int "level sink" 2 levels.(3);
  check int "depth" 2 (Topo.depth g)

let test_dfs_post () =
  let g = diamond () in
  let post = Traverse.dfs_post g ~roots:[ 0 ] in
  check int "visits all" 4 (List.length post);
  (* root must come last in postorder *)
  check int "root last" 0 (List.nth post 3)

let test_reachable () =
  let g = Digraph.create () in
  let a = Digraph.add_node g and b = Digraph.add_node g in
  let c = Digraph.add_node g in
  ignore (Digraph.add_edge g a b);
  ignore c;
  let r = Traverse.reachable g ~roots:[ a ] in
  check bool "a" true (Minflo_util.Bitset.mem r a);
  check bool "b" true (Minflo_util.Bitset.mem r b);
  check bool "c not" false (Minflo_util.Bitset.mem r c);
  let rr = Traverse.reachable_rev g ~roots:[ b ] in
  check bool "rev a" true (Minflo_util.Bitset.mem rr a)

let test_dot_output () =
  let g = diamond () in
  let s = Dot.to_dot ~name:"test" ~node_label:string_of_int g in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
    loop 0
  in
  check bool "digraph" true (contains s "digraph test");
  check bool "edge" true (contains s "n0 -> n1")

(* random DAG property: topo order exists and levels are consistent *)
let random_dag seed n =
  let rng = Rng.create seed in
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g n);
  for v = 1 to n - 1 do
    let k = 1 + Rng.int rng 3 in
    for _ = 1 to k do
      let u = Rng.int rng v in
      ignore (Digraph.add_edge g u v)
    done
  done;
  g

let prop_random_dag_topo =
  QCheck.Test.make ~name:"random DAGs always topo-sort" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (seed, size) ->
      let n = 2 + (size mod 40) in
      let g = random_dag seed n in
      match Topo.sort_opt g with
      | None -> false
      | Some order ->
        let pos = Array.make n 0 in
        Array.iteri (fun i u -> pos.(u) <- i) order;
        let ok = ref true in
        Digraph.iter_edges g (fun e ->
            if pos.(Digraph.src g e) >= pos.(Digraph.dst g e) then ok := false);
        !ok)

let prop_levels_monotone =
  QCheck.Test.make ~name:"ASAP levels increase along every edge" ~count:50
    QCheck.small_nat (fun seed ->
      let g = random_dag seed 30 in
      let levels = Topo.levels g in
      let ok = ref true in
      Digraph.iter_edges g (fun e ->
          if levels.(Digraph.dst g e) <= levels.(Digraph.src g e) then ok := false);
      !ok)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "graph"
    [ ( "digraph",
        [ tc "structure" `Quick test_basic_structure;
          tc "endpoints" `Quick test_edge_endpoints;
          tc "bulk nodes" `Quick test_add_nodes_bulk ] );
      ( "topo",
        [ tc "diamond" `Quick test_topo_diamond;
          tc "cycle" `Quick test_topo_cycle;
          tc "levels/depth" `Quick test_levels_depth;
          QCheck_alcotest.to_alcotest prop_random_dag_topo;
          QCheck_alcotest.to_alcotest prop_levels_monotone ] );
      ( "traverse",
        [ tc "dfs_post" `Quick test_dfs_post;
          tc "reachable" `Quick test_reachable ] );
      ("dot", [ tc "output" `Quick test_dot_output ]) ]
