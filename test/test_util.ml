(* Unit and property tests for the util substrate. *)

module Vec = Minflo_util.Vec
module Heap = Minflo_util.Heap
module Rng = Minflo_util.Rng
module Stats = Minflo_util.Stats
module Table = Minflo_util.Table
module Json = Minflo_util.Json

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
  check int "last" 1 (Vec.get v (Vec.length v - 1));
  check int "pop" 1 (Vec.pop v);
  check int "empty" 0 (Vec.length v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  ignore (Vec.push v 42);
  Alcotest.check_raises "get oob"
    (Invalid_argument "Vec: index 1 out of bounds [0,1)") (fun () ->
      ignore (Vec.get v 1))

(* a vector holding [xs], built by pushes *)
let vec_of_list xs =
  let v = Vec.create ~dummy:0 () in
  List.iter (fun x -> ignore (Vec.push v x)) xs;
  v

let test_vec_iter_fold () =
  let v = vec_of_list [ 1; 2; 3; 4 ] in
  check int "fold" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check int "iteri count" 4 (List.length !seen);
  check bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  check (Alcotest.list int) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v)

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
  check bool "empty" true (Heap.pop_min h = None)

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
    check int "same stream" (Rng.int a max_int) (Rng.int b max_int)
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
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.sum xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 100.0)

(* ---------- Json float spellings ---------- *)

let bits = Int64.bits_of_float

let test_float_spellings () =
  let spelled f =
    match Json.of_float f with
    | Json.Str s -> s
    | Json.Num _ -> "<num>"
    | _ -> "<other>"
  in
  check Alcotest.string "finite" "<num>" (spelled 1.5);
  check Alcotest.string "-0.0" "<num>" (spelled (-0.0));
  check Alcotest.string "inf" "infinity" (spelled Float.infinity);
  check Alcotest.string "-inf" "-infinity" (spelled Float.neg_infinity);
  let payload_nan = Int64.float_of_bits 0x7ff8_0000_dead_beefL in
  check Alcotest.string "nan keeps its bits" "nan:7ff80000deadbeef"
    (spelled payload_nan)

let test_float_readback () =
  let read s = Json.to_float (Json.Str s) in
  let is_nan = function Some v -> Float.is_nan v | None -> false in
  check bool "legacy bare nan" true (is_nan (read "nan"));
  (match read "nan:fff0000000000001" with
  | Some v -> check bool "payload kept" true (bits v = 0xfff0000000000001L)
  | None -> Alcotest.fail "valid nan spelling rejected");
  (* the bits must spell a nan, and exactly sixteen hex digits *)
  check bool "non-nan bits" true (read "nan:3ff0000000000000" = None);
  check bool "bad hex" true (read "nan:7ff800000000000g" = None);
  check bool "short" true (read "nan:7ff8" = None);
  check bool "unknown word" true (read "Infinity" = None);
  check bool "number" true (Json.to_float (Json.Num 2.0) = Some 2.0);
  check bool "not a float" true (Json.to_float (Json.Bool true) = None)

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
  check (Alcotest.float 1e-9) "singleton percentile" 7.0
    (Stats.percentile [| 7.0 |] 50.0);
  check (Alcotest.float 1e-9) "interpolated percentile" 1.5
    (Stats.percentile [| 1.0; 2.0 |] 50.0);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let test_rng_pick () =
  let r = Rng.create 9 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check bool "pick member" true (Array.exists (( = ) (Rng.pick r a)) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

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
          tc "iter/fold" `Quick test_vec_iter_fold ] );
      ( "heap",
        [ tc "ordering" `Quick test_heap_order;
          tc "decrease-key" `Quick test_heap_decrease_key;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_vs_reference ] );
      ( "rng",
        [ tc "deterministic" `Quick test_rng_deterministic;
          tc "bounds" `Quick test_rng_bounds;
          tc "shuffle" `Quick test_rng_shuffle_permutes;
          tc "pick" `Quick test_rng_pick ] );
      ( "stats",
        [ tc "basic" `Quick test_stats_basic;
          tc "empty/singleton" `Quick test_stats_empty_and_singleton ] );
      ( "floats",
        [ tc "spellings" `Quick test_float_spellings;
          tc "read back" `Quick test_float_readback ] );
      ( "table",
        [ tc "render" `Quick test_table_render; tc "arity" `Quick test_table_arity ] ) ]
