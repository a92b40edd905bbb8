(* Unit and property tests for the util substrate. *)

module Vec = Minflo_util.Vec
module Heap = Minflo_util.Heap
module Rng = Minflo_util.Rng
module Stats = Minflo_util.Stats
module Bitset = Minflo_util.Bitset
module Table = Minflo_util.Table

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- Vec ---------- *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    let idx = Vec.push v (i * i) in
    check int "index" i idx
  done;
  check int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check int "get" (i * i) (Vec.get v i)
  done

let test_vec_pop () =
  let v = Vec.create ~dummy:(-1) () in
  ignore (Vec.push v 1);
  ignore (Vec.push v 2);
  check int "pop" 2 (Vec.pop v);
  check int "last" 1 (Vec.last v);
  check int "pop" 1 (Vec.pop v);
  check bool "empty" true (Vec.is_empty v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  ignore (Vec.push v 42);
  Alcotest.check_raises "get oob"
    (Invalid_argument "Vec: index 1 out of bounds [0,1)") (fun () ->
      ignore (Vec.get v 1))

let test_vec_iter_fold () =
  let v = Vec.of_array ~dummy:0 [| 1; 2; 3; 4 |] in
  check int "fold" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check int "iteri count" 4 (List.length !seen);
  check bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  check (Alcotest.list int) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v)

let test_vec_clear () =
  let v = Vec.of_array ~dummy:0 [| 5; 6 |] in
  Vec.clear v;
  check int "cleared" 0 (Vec.length v);
  ignore (Vec.push v 7);
  check int "reuse" 7 (Vec.get v 0)

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, x) -> Heap.push h ~key:k x)
    [ (5, 50); (3, 30); (8, 80); (1, 10); (4, 40) ];
  let popped = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _) ->
      popped := k :: !popped;
      drain ()
  in
  drain ();
  check (Alcotest.list int) "sorted" [ 1; 3; 4; 5; 8 ] (List.rev !popped)

let test_heap_decrease_key () =
  let h = Heap.create () in
  Heap.push h ~key:10 1;
  Heap.push h ~key:20 2;
  Heap.push h ~key:5 2;
  (* element 2 superseded: only key 5 counts *)
  (match Heap.pop_min h with
  | Some (5, 2) -> ()
  | other ->
    Alcotest.failf "expected (5,2), got %s"
      (match other with
      | None -> "None"
      | Some (k, v) -> Printf.sprintf "(%d,%d)" k v));
  (match Heap.pop_min h with
  | Some (10, 1) -> ()
  | _ -> Alcotest.fail "expected (10,1)");
  check bool "empty" true (Heap.is_empty h)

(* Regression for a sift_down bug found during development: interleave
   pushes (with decrease-key semantics) and pops, and check each popped key
   against a reference map. *)
let prop_heap_vs_reference =
  QCheck.Test.make ~name:"heap matches reference under interleaved ops"
    ~count:300 QCheck.small_nat (fun seed ->
      let rng = Rng.create ((seed * 48271) + 9) in
      let h = Heap.create () in
      let latest = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 80 do
        if Rng.int rng 3 < 2 then begin
          let x = Rng.int rng 12 and k = Rng.int rng 25 in
          match Hashtbl.find_opt latest x with
          | Some k' when k' <= k -> () (* dijkstra never pushes worse keys *)
          | _ ->
            Heap.push h ~key:k x;
            Hashtbl.replace latest x k
        end
        else begin
          match Heap.pop_min h with
          | None -> if Hashtbl.length latest <> 0 then ok := false
          | Some (k, x) ->
            (match Hashtbl.find_opt latest x with
            | Some k' when k' = k -> ()
            | _ -> ok := false);
            Hashtbl.iter (fun _ k' -> if k' < k then ok := false) latest;
            Hashtbl.remove latest x
        end
      done;
      !ok)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Heap.create () in
      (* make values distinct so lazy deletion does not kick in *)
      List.iteri (fun i (k, _) -> Heap.push h ~key:k i) pairs;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (k, _) -> k >= last && drain k
      in
      drain min_int)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check bool "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check bool "in range" true (x >= 0 && x < 10);
    let f = Rng.float r 2.5 in
    check bool "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "is permutation" true (sorted = Array.init 50 Fun.id)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum xs);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.maximum xs);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.sum xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 100.0)

let test_stats_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.stddev xs)

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |])

(* ---------- Bitset ---------- *)

let test_bitset_ops () =
  let s = Bitset.create 100 in
  check bool "initially empty" false (Bitset.mem s 5);
  Bitset.add s 5;
  Bitset.add s 99;
  Bitset.add s 0;
  check bool "mem 5" true (Bitset.mem s 5);
  check bool "mem 99" true (Bitset.mem s 99);
  check int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 5;
  check bool "removed" false (Bitset.mem s 5);
  check int "cardinal" 2 (Bitset.cardinal s);
  Bitset.clear s;
  check int "cleared" 0 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 8)

(* ---------- Table ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  loop 0

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "adder32"; "480" ];
  Table.add_separator t;
  Table.add_row t [ "c6288"; "2416" ];
  let s = Table.render t in
  check bool "has adder32" true (contains s "adder32");
  check bool "has 2416" true (contains s "2416");
  check bool "right aligned" true (contains s "   n |" || contains s " n |")

let test_stats_empty_and_singleton () =
  check bool "mean of empty is nan" true (Float.is_nan (Stats.mean [||]));
  check bool "stddev of empty is nan" true (Float.is_nan (Stats.stddev [||]));
  check (Alcotest.float 1e-9) "singleton percentile" 7.0
    (Stats.percentile [| 7.0 |] 50.0);
  check (Alcotest.float 1e-9) "interpolated percentile" 1.5
    (Stats.percentile [| 1.0; 2.0 |] 50.0);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let test_rng_pick_and_copy () =
  let r = Rng.create 9 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check bool "pick member" true (Array.exists (( = ) (Rng.pick r a)) a)
  done;
  let r1 = Rng.create 4 in
  ignore (Rng.int64 r1);
  let r2 = Rng.copy r1 in
  check bool "copy continues identically" true (Rng.int64 r1 = Rng.int64 r2);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

let test_vec_conversions () =
  let v = Vec.of_array ~dummy:0 [| 3; 1; 4 |] in
  check bool "to_array" true (Vec.to_array v = [| 3; 1; 4 |]);
  check bool "map_to_array" true (Vec.map_to_array (fun x -> x * 2) v = [| 6; 2; 8 |]);
  let empty = Vec.of_array ~dummy:0 [||] in
  check int "empty roundtrip" 0 (Array.length (Vec.to_array empty))

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "util"
    [ ( "vec",
        [ tc "push/get" `Quick test_vec_push_get;
          tc "pop/last" `Quick test_vec_pop;
          tc "bounds" `Quick test_vec_bounds;
          tc "iter/fold" `Quick test_vec_iter_fold;
          tc "clear" `Quick test_vec_clear;
          tc "conversions" `Quick test_vec_conversions ] );
      ( "heap",
        [ tc "ordering" `Quick test_heap_order;
          tc "decrease-key" `Quick test_heap_decrease_key;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_vs_reference ] );
      ( "rng",
        [ tc "deterministic" `Quick test_rng_deterministic;
          tc "bounds" `Quick test_rng_bounds;
          tc "shuffle" `Quick test_rng_shuffle_permutes;
          tc "pick/copy" `Quick test_rng_pick_and_copy ] );
      ( "stats",
        [ tc "basic" `Quick test_stats_basic;
          tc "stddev" `Quick test_stats_stddev;
          tc "geomean" `Quick test_stats_geomean;
          tc "empty/singleton" `Quick test_stats_empty_and_singleton ] );
      ( "bitset",
        [ tc "ops" `Quick test_bitset_ops; tc "bounds" `Quick test_bitset_bounds ] );
      ( "table",
        [ tc "render" `Quick test_table_render; tc "arity" `Quick test_table_arity ] ) ]
