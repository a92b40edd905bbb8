(* The delay-model layout and incremental bit-identity contract.

   The engine's trajectories rest on one claim: the delay model's flat CSR
   rows keep fixed iteration orders (fanin/fanout rows in edge insertion
   order, coefficient rows in accumulator order, loader rows descending,
   the FIFO Kahn topological order), and after any sequence of size
   mutations the incremental engine's delays/arrivals/critical path are the
   floats a from-scratch batch STA would produce. Golden digests pin the
   whole layout of three c432 models; the differentials use exact [=] on
   floats, never a tolerance. *)

module Gen = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Model_cache = Minflo_tech.Model_cache
module Digraph = Minflo_graph.Digraph
module Topo = Minflo_graph.Topo
module Sta = Minflo_timing.Sta
module Inc = Minflo_timing.Incremental
module Rng = Minflo_util.Rng

let check = Alcotest.check
let tech = Tech.default_130nm

let random_model seed =
  let gates = 25 + (seed mod 31) in
  let nl = Gen.random_dag ~gates ~inputs:5 ~outputs:4 ~seed () in
  Elmore.of_netlist tech nl

let random_sizes rng model =
  Array.init (DM.num_vertices model) (fun _ ->
      model.DM.min_size +. Rng.float rng 7.0)

let row off tbl v = List.init (off.(v + 1) - off.(v)) (fun k -> tbl.(off.(v) + k))

(* ---------- layout ---------- *)

(* FNV-1a over every order-carrying array of the model: CSR adjacency,
   coefficient and loader rows (floats as exact [%h]), topological order,
   sinks and elimination blocks *)
let layout_digest (m : DM.t) =
  let b = Buffer.create 4096 in
  let ints name xs =
    Buffer.add_string b name;
    Array.iter
      (fun x ->
        Buffer.add_string b (string_of_int x);
        Buffer.add_char b ',')
      xs;
    Buffer.add_char b '|'
  in
  let floats name xs =
    Buffer.add_string b name;
    Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) xs;
    Buffer.add_char b '|'
  in
  ints "fo" m.fanout_off;
  ints "f" m.fanout;
  ints "fio" m.fanin_off;
  ints "fi" m.fanin;
  ints "co" m.coeff_off;
  ints "cj" m.coeff_j;
  floats "ca" m.coeff_a;
  ints "lo" m.loader_off;
  ints "lk" m.loader_k;
  floats "la" m.loader_a;
  ints "t" m.topo;
  ints "s" m.sinks;
  Array.iter (ints "b") m.blocks;
  Printf.sprintf "%016Lx" (Model_cache.fnv1a64 (Buffer.contents b))

(* golden digests of the layouts the list-and-memo representation produced
   for c432; any change to a row order, a coefficient bit or the block
   order moves them *)
let test_layout_digest build expect () =
  check Alcotest.string "c432 layout digest" expect
    (layout_digest (build (Iscas85.circuit "c432")))

(* every CSR row lists its edges in ascending edge id *)
let test_csr_rows_follow_edge_ids () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let edges_where f = List.filter f (List.init model.DM.m Fun.id) in
    for v = 0 to model.DM.n - 1 do
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "seed %d fanout of %d" seed v)
        (List.map
           (fun e -> model.DM.edge_dst.(e))
           (edges_where (fun e -> model.DM.edge_src.(e) = v)))
        (row model.DM.fanout_off model.DM.fanout v);
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "seed %d fanin of %d" seed v)
        (List.map
           (fun e -> model.DM.edge_src.(e))
           (edges_where (fun e -> model.DM.edge_dst.(e) = v)))
        (row model.DM.fanin_off model.DM.fanin v)
    done
  done

(* the stored order is [Topo.sort] over the same edges *)
let test_topo_matches_topo_sort () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let g = Digraph.create () in
    ignore (Digraph.add_nodes g model.DM.n);
    for e = 0 to model.DM.m - 1 do
      ignore (Digraph.add_edge g model.DM.edge_src.(e) model.DM.edge_dst.(e))
    done;
    check (Alcotest.array Alcotest.int)
      (Printf.sprintf "seed %d topo" seed)
      (Topo.sort g) model.DM.topo
  done

let test_sinks_ascending () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let expect = ref [] in
    Array.iteri (fun i s -> if s then expect := i :: !expect) model.DM.is_sink;
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "seed %d sinks" seed)
      (List.rev !expect)
      (Array.to_list model.DM.sinks)
  done

(* the delay kernels agree bitwise with the scalar delay, and the topo
   arrival sweep with a relaxation over the plain edge list to its
   fixpoint (max is order-independent, so the floats must match) *)
let test_arena_kernels_exact () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let n = model.DM.n in
    let rng = Rng.create (seed * 11 + 1) in
    let x = random_sizes rng model in
    let d = Array.make n nan in
    DM.delays_into model x d;
    for v = 0 to n - 1 do
      if DM.delay model x v <> d.(v) then
        Alcotest.failf "seed %d: delays_into %d = %h, delay says %h" seed v
          d.(v) (DM.delay model x v)
    done;
    let at_ref = Array.make n 0.0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for e = 0 to model.DM.m - 1 do
        let i = model.DM.edge_src.(e) and j = model.DM.edge_dst.(e) in
        if at_ref.(i) +. d.(i) > at_ref.(j) then begin
          at_ref.(j) <- at_ref.(i) +. d.(i);
          changed := true
        end
      done
    done;
    let at = Array.make n nan in
    DM.arrivals_into model ~delays:d at;
    check (Alcotest.array (Alcotest.float 0.0))
      (Printf.sprintf "seed %d arrivals" seed)
      at_ref at;
    check (Alcotest.array (Alcotest.float 0.0))
      (Printf.sprintf "seed %d Sta.arrivals" seed)
      at_ref (Sta.arrivals model ~delays:d)
  done

(* ---------- the 200-seed mutation differential ---------- *)

(* the critical fanin recomputed from batch floats: the first fanin in CSR
   order with the largest finish, strict [>] from [neg_infinity] *)
let batch_critical_fanin (model : DM.t) ~at ~d v =
  let best = ref (-1) and best_f = ref neg_infinity in
  for c = model.fanin_off.(v) to model.fanin_off.(v + 1) - 1 do
    let u = model.fanin.(c) in
    if at.(u) +. d.(u) > !best_f then begin
      best_f := at.(u) +. d.(u);
      best := u
    end
  done;
  !best

(* the recursive critical-set backtrace the engine used before its walk
   became iterative, kept verbatim as the order reference: preorder from
   the worst sinks (ascending) along tight edges, fanins in CSR order *)
let reference_critical_set ?(eps_rel = 1e-9) (model : DM.t) eng =
  let m = model in
  let cp = Inc.critical_path eng in
  let eps = eps_rel *. (1.0 +. cp) in
  let seen = Array.make m.n false in
  let acc = ref [] in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      acc := v :: !acc;
      for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
        let u = m.fanin.(c) in
        (* edge u -> v is tight when u's finish realizes v's arrival *)
        if abs_float (Inc.finish eng u -. Inc.arrival eng v) <= eps then
          visit u
      done
    end
  in
  for k = 0 to Array.length m.sinks - 1 do
    let v = m.sinks.(k) in
    if abs_float (Inc.finish eng v -. cp) <= eps then visit v
  done;
  List.rev !acc

let buffered_critical_set ?eps_rel eng =
  let len = Inc.critical_set ?eps_rel eng in
  List.init len (Inc.critical_vertex eng)

(* the derived engine state after a mutation: every critical fanin equals
   its batch recompute, no version went backwards, and the buffered
   critical set is the reference traversal at both tolerances in use *)
let check_derived_state what (model : DM.t) eng ~versions =
  let n = model.n in
  let d = DM.delays model (Inc.sizes eng) in
  let at = Sta.arrivals model ~delays:d in
  for v = 0 to n - 1 do
    let expect = batch_critical_fanin model ~at ~d v in
    if Inc.critical_fanin eng v <> expect then
      Alcotest.failf "%s: critical fanin of %d is %d, batch says %d" what v
        (Inc.critical_fanin eng v) expect;
    if Inc.version eng v < versions.(v) then
      Alcotest.failf "%s: version of %d went %d -> %d" what v versions.(v)
        (Inc.version eng v);
    versions.(v) <- Inc.version eng v
  done;
  List.iter
    (fun eps_rel ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "%s critical set (eps_rel %g)" what eps_rel)
        (reference_critical_set ~eps_rel model eng)
        (buffered_critical_set ~eps_rel eng))
    [ 1e-9; 1e-7 ]

(* Drive the incremental engine through a random mutation schedule, then
   demand bit-identity against a from-scratch batch pass at the final
   sizes: delays, arrivals, critical path — and the critical set against
   a freshly created engine (whose state IS a batch pass). Exact float
   [=] throughout: one ulp of drift anywhere is a failure. After every
   mutation the critical fanins, versions and buffered critical set are
   checked too. *)
let differential_one_seed seed =
  let model = random_model seed in
  let n = DM.num_vertices model in
  let rng = Rng.create (seed * 7919 + 13) in
  let x0 = random_sizes rng model in
  let eng = Inc.create model ~sizes:x0 in
  let versions = Array.make n 0 in
  let what = Printf.sprintf "seed %d" seed in
  check_derived_state what model eng ~versions;
  let mutations = 8 + Rng.int rng 17 in
  for _ = 1 to mutations do
    let v = Rng.int rng n in
    let s =
      if Rng.bool rng then Inc.size eng v *. (1.0 +. Rng.float rng 0.5)
      else model.DM.min_size +. Rng.float rng 7.0
    in
    Inc.set_size eng v s;
    check_derived_state what model eng ~versions
  done;
  (* random sizes almost never tie; uniform sizes with TILOS-style 1.1
     bumps leave many bitwise-equal finishes, so the strict-[>] fanin
     choice and the critical set's fanin order are exercised on ties *)
  let tied = Inc.create model ~sizes:(DM.uniform_sizes model model.DM.min_size) in
  let tied_versions = Array.make n 0 in
  let what = Printf.sprintf "seed %d (uniform)" seed in
  check_derived_state what model tied ~versions:tied_versions;
  for _ = 1 to mutations do
    let v = Rng.int rng n in
    Inc.set_size tied v (Inc.size tied v *. 1.1);
    check_derived_state what model tied ~versions:tied_versions
  done;
  let x = Inc.sizes eng in
  let d_ref = DM.delays model x in
  let d = Inc.all_delays eng in
  for v = 0 to n - 1 do
    if d.(v) <> d_ref.(v) then
      Alcotest.failf "seed %d: delay %d drifted: engine %h, batch %h" seed v
        d.(v) d_ref.(v)
  done;
  let at_ref = Sta.arrivals model ~delays:d_ref in
  for v = 0 to n - 1 do
    if Inc.arrival eng v <> at_ref.(v) then
      Alcotest.failf "seed %d: arrival %d drifted: engine %h, batch %h" seed v
        (Inc.arrival eng v) at_ref.(v)
  done;
  let cp_ref = Sta.critical_path_only model ~delays:d_ref in
  if Inc.critical_path eng <> cp_ref then
    Alcotest.failf "seed %d: critical path drifted: engine %h, batch %h" seed
      (Inc.critical_path eng) cp_ref;
  (* a fresh engine at the final sizes is a batch computation; the mutated
     engine must report the identical critical set (same members, same
     traversal order) *)
  let fresh = Inc.create model ~sizes:x in
  check (Alcotest.list Alcotest.int)
    (Printf.sprintf "seed %d critical set" seed)
    (buffered_critical_set fresh)
    (buffered_critical_set eng)

let test_mutation_differential () =
  for seed = 0 to 199 do
    differential_one_seed seed
  done

(* set_size must also be exact when sizes go *down* (TILOS's trial-bump
   rollback path) and when the write is a no-op *)
let test_rollback_exact () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let n = DM.num_vertices model in
    let rng = Rng.create (seed + 400) in
    let x0 = random_sizes rng model in
    let eng = Inc.create model ~sizes:x0 in
    let at0 = Array.init n (Inc.arrival eng) in
    let versions = Array.make n 0 in
    let what = Printf.sprintf "seed %d" seed in
    for _ = 1 to 10 do
      let v = Rng.int rng n in
      let old = Inc.size eng v in
      Inc.set_size eng v (old *. 1.3);
      check_derived_state (what ^ " bump") model eng ~versions;
      Inc.set_size eng v old;
      check_derived_state (what ^ " rollback") model eng ~versions
    done;
    for v = 0 to n - 1 do
      if Inc.arrival eng v <> at0.(v) then
        Alcotest.failf "seed %d: bump+rollback moved arrival %d" seed v
    done
  done

let suite =
  [ ( "layout-digest-elmore",
      `Quick,
      test_layout_digest (Elmore.of_netlist tech) "32d3dfdebb14df82" );
    ( "layout-digest-wires",
      `Quick,
      test_layout_digest (Elmore.with_wires tech) "fe8ea7a70e60a029" );
    ( "layout-digest-transistor",
      `Quick,
      test_layout_digest
        (fun nl -> Transistor.of_netlist tech (Transform.to_nand_inv nl))
        "13ae8f420f49e093" );
    ("csr-rows-follow-edge-ids", `Quick, test_csr_rows_follow_edge_ids);
    ("topo-matches-topo-sort", `Quick, test_topo_matches_topo_sort);
    ("sinks-ascending", `Quick, test_sinks_ascending);
    ("arena-kernels-exact", `Quick, test_arena_kernels_exact);
    ("mutation-differential-200-seeds", `Quick, test_mutation_differential);
    ("rollback-exact", `Quick, test_rollback_exact) ]

let () = Alcotest.run "arena" [ ("arena", suite) ]
