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

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

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
  Printf.sprintf "%016Lx" (fnv1a64 (Buffer.contents b))

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

(* reference topological order: FIFO Kahn, sources in ascending id, each
   node's out-edges in ascending edge id *)
let kahn_reference (model : DM.t) =
  let out = Array.make model.DM.n [] and indeg = Array.make model.DM.n 0 in
  for e = model.DM.m - 1 downto 0 do
    let u = model.DM.edge_src.(e) and v = model.DM.edge_dst.(e) in
    out.(u) <- v :: out.(u);
    indeg.(v) <- indeg.(v) + 1
  done;
  let queue = Queue.create () in
  Array.iteri (fun u d -> if d = 0 then Queue.add u queue) indeg;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      out.(u)
  done;
  Array.of_list (List.rev !order)

(* the stored order is the reference Kahn over the same edges *)
let test_topo_matches_topo_sort () =
  for seed = 0 to 19 do
    let model = random_model seed in
    check (Alcotest.array Alcotest.int)
      (Printf.sprintf "seed %d topo" seed)
      (kahn_reference model) model.DM.topo
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
        (Critical_reference.critical_set ~eps_rel model eng)
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

(* ---------- the certified critical set ---------- *)

(* A TILOS-shaped schedule against the reuse certificate: uniform minimum
   sizes, 1.1 bumps of critical members, sometimes several bumps or
   trial-bump/rollback pairs between two queries, and the tolerance
   alternating between TILOS's 1e-7 and the default 1e-9. After every
   query the buffer must be the reference walk and the positions its
   index; after a reuse the touched log must name each member whose
   version moved since the previous query, once. Returns how many queries
   reused the buffer. A wide tolerance keeps near-tied slots tight, so a
   member's critical fanin can move while the buffer is reused. *)
let certificate_schedule ?(tolerances = [| 1e-9; 1e-7 |]) what (model : DM.t)
    ~seed ~steps =
  let n = model.n in
  let rng = Rng.create seed in
  let eng = Inc.create model ~sizes:(DM.uniform_sizes model model.min_size) in
  let versions = Array.init n (Inc.version eng) in
  let reused = ref 0 in
  for step = 1 to steps do
    let eps_rel = tolerances.(step mod Array.length tolerances) in
    let what = Printf.sprintf "%s step %d" what step in
    let crit = buffered_critical_set ~eps_rel eng in
    check (Alcotest.list Alcotest.int) (what ^ " critical set")
      (Critical_reference.critical_set ~eps_rel model eng)
      crit;
    let pos = Array.make n (-1) in
    List.iteri (fun k v -> pos.(v) <- k) crit;
    for v = 0 to n - 1 do
      if Inc.critical_pos eng v <> pos.(v) then
        Alcotest.failf "%s: position of %d is %d, expected %d" what v
          (Inc.critical_pos eng v) pos.(v)
    done;
    let moved = List.filter (fun v -> Inc.version eng v <> versions.(v)) crit in
    let logged = List.init (Inc.touched_count eng) (Inc.touched_member eng) in
    if Inc.critical_reused eng then begin
      incr reused;
      check (Alcotest.list Alcotest.int) (what ^ " touched log")
        (List.sort compare moved) (List.sort compare logged)
    end
    else check (Alcotest.list Alcotest.int) (what ^ " log after a walk") [] logged;
    for v = 0 to n - 1 do
      versions.(v) <- Inc.version eng v
    done;
    let crit = Array.of_list crit in
    let pick () =
      if Array.length crit = 0 then Rng.int rng n
      else crit.(Rng.int rng (Array.length crit))
    in
    let bump v = Inc.set_size eng v (Inc.size eng v *. 1.1) in
    match Rng.int rng 4 with
    | 0 ->
      for _ = 0 to Rng.int rng 3 do
        bump (pick ())
      done
    | 1 ->
      for _ = 0 to Rng.int rng 3 do
        let v = pick () in
        let old = Inc.size eng v in
        bump v;
        Inc.set_size eng v old
      done;
      bump (pick ())
    | _ -> bump (pick ())
  done;
  !reused

(* The margins: lift the tolerance exactly onto each of the smallest
   slacks of the members' loose fanin slots in turn. Each such slot turns
   tight; where the walk reads it, the set changes and a reuse past the
   margin would show. *)
let margin_probe what (model : DM.t) ~seed =
  let rng = Rng.create seed in
  let eng = Inc.create model ~sizes:(random_sizes rng model) in
  let crit = buffered_critical_set eng in
  let cp = Inc.critical_path eng in
  let eps = 1e-9 *. (1.0 +. cp) in
  let loose = ref [] in
  List.iter
    (fun v ->
      for c = model.fanin_off.(v) to model.fanin_off.(v + 1) - 1 do
        let u = model.fanin.(c) in
        let s = abs_float (Inc.finish eng u -. Inc.arrival eng v) in
        if s > eps then loose := s :: !loose
      done)
    crit;
  List.iteri
    (fun k slack ->
      if k < 4 then begin
        let eps_rel = ref (slack /. (1.0 +. cp)) in
        while !eps_rel *. (1.0 +. cp) < slack do
          eps_rel := Float.succ !eps_rel
        done;
        let eps_rel = !eps_rel in
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "%s critical set on margin %d" what k)
          (Critical_reference.critical_set ~eps_rel model eng)
          (buffered_critical_set ~eps_rel eng)
      end)
    (List.sort_uniq compare !loose)

let test_certified_critical_set () =
  for seed = 0 to 199 do
    margin_probe (Printf.sprintf "seed %d" seed) (random_model seed)
      ~seed:(seed + 1700)
  done;
  let reused = ref 0 in
  for seed = 0 to 199 do
    reused :=
      !reused
      + certificate_schedule (Printf.sprintf "seed %d" seed) (random_model seed)
          ~seed:(seed + 900) ~steps:40
  done;
  if !reused = 0 then Alcotest.fail "no random-model query reused its buffer";
  for seed = 0 to 199 do
    ignore
      (certificate_schedule ~tolerances:[| 0.5 |]
         (Printf.sprintf "seed %d (wide)" seed)
         (random_model seed) ~seed:(seed + 2300) ~steps:20)
  done;
  let rca =
    certificate_schedule "rca64"
      (Elmore.of_netlist tech (Gen.ripple_carry_adder ~bits:64 ()))
      ~seed:64 ~steps:400
  in
  if rca < 200 then Alcotest.failf "rca64 reused only %d of 400 queries" rca

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
    ("rollback-exact", `Quick, test_rollback_exact);
    ("certified-critical-set", `Quick, test_certified_critical_set) ]

let () = Alcotest.run "arena" [ ("arena", suite) ]
