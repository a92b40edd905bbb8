(* Tests for the min-cost-flow substrate: two independent solvers checked
   against each other, against complementary slackness, and against brute
   force on tiny instances. *)

module Mcf = Minflo_flow.Mcf
module Simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Cost_scaling = Minflo_flow.Cost_scaling
module Dinic = Minflo_flow.Dinic
module BF = Minflo_flow.Bellman_ford
module Diff_lp = Minflo_flow.Diff_lp
module Rng = Minflo_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let arc src dst cap cost = { Mcf.src; dst; cap; cost }

let status_str = function
  | Mcf.Optimal -> "Optimal"
  | Mcf.Infeasible -> "Infeasible"
  | Mcf.Unbounded -> "Unbounded"
  | Mcf.Aborted -> "Aborted"

let solve_both p = (Simplex.solve p, Ssp.solve p)

let expect_optimal name (sol : Mcf.solution) expected_cost =
  check Alcotest.string (name ^ " status") "Optimal" (status_str sol.status);
  check int (name ^ " objective") expected_cost sol.objective

(* ---------- hand-checked instances ---------- *)

(* 0 -> 1 cheap (cost 1, cap 4) and expensive (cost 3, cap 10); ship 7 *)
let test_two_parallel_arcs () =
  let p =
    { Mcf.num_nodes = 2;
      arcs = [| arc 0 1 4 1; arc 0 1 10 3 |];
      supply = [| 7; -7 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 ((4 * 1) + (3 * 3));
  expect_optimal "ssp" s2 13;
  check int "simplex cheap arc saturated" 4 s1.flow.(0);
  check int "ssp cheap arc saturated" 4 s2.flow.(0);
  (match Mcf.check_optimality p s1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("simplex slackness: " ^ Minflo_robust.Diag.to_string e));
  match Mcf.check_optimality p s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ssp slackness: " ^ Minflo_robust.Diag.to_string e)

(* classic 4-node transportation instance *)
let test_transportation () =
  (* sources 0 (supply 3), 1 (supply 2); sinks 2 (demand 4), 3 (demand 1) *)
  let p =
    { Mcf.num_nodes = 4;
      arcs =
        [| arc 0 2 5 2; arc 0 3 5 3; arc 1 2 5 1; arc 1 3 5 4 |];
      supply = [| 3; 2; -4; -1 |] }
  in
  (* optimum: 1->2 carries 2 (cost 2), 0->2 carries 2 (cost 4),
     0->3 carries 1 (cost 3); total 9 *)
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 9;
  expect_optimal "ssp" s2 9

let test_negative_costs () =
  (* a profitable detour: 0 -> 1 -> 2 with negative cost on 1 -> 2 *)
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 2 10 5; arc 0 1 10 2; arc 1 2 10 (-1) |];
      supply = [| 4; 0; -4 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 4;
  expect_optimal "ssp" s2 4

let test_negative_cycle_capacitated () =
  (* negative cycle 1 -> 2 -> 1 with finite caps: still a finite optimum;
     the cycle saturates and reduces cost *)
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 1 5 1; arc 1 2 5 (-3); arc 2 1 5 1; arc 1 0 5 10 |];
      supply = [| 0; 0; 0 |] }
  in
  (* best: circulate 5 units on 1->2->1: cost 5*(-3+1) = -10 *)
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 (-10);
  expect_optimal "ssp" s2 (-10)

let test_unbounded () =
  let p =
    { Mcf.num_nodes = 2;
      arcs =
        [| arc 0 1 Mcf.infinite_capacity (-1);
           arc 1 0 Mcf.infinite_capacity 0 |];
      supply = [| 0; 0 |] }
  in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Unbounded" (status_str s1.status);
  check Alcotest.string "ssp" "Unbounded" (status_str s2.status)

let test_infeasible_unbalanced () =
  let p = { Mcf.num_nodes = 2; arcs = [| arc 0 1 1 1 |]; supply = [| 2; -1 |] } in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Infeasible" (status_str s1.status);
  check Alcotest.string "ssp" "Infeasible" (status_str s2.status)

let test_infeasible_capacity () =
  let p = { Mcf.num_nodes = 2; arcs = [| arc 0 1 1 1 |]; supply = [| 3; -3 |] } in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Infeasible" (status_str s1.status);
  check Alcotest.string "ssp" "Infeasible" (status_str s2.status)

let test_disconnected_balanced () =
  (* two independent components, each internally balanced *)
  let p =
    { Mcf.num_nodes = 4;
      arcs = [| arc 0 1 5 2; arc 2 3 5 7 |];
      supply = [| 3; -3; 1; -1 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 ((3 * 2) + 7);
  expect_optimal "ssp" s2 13

let test_zero_supply_optimal_zero () =
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 1 5 1; arc 1 2 5 1 |];
      supply = [| 0; 0; 0 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 0;
  expect_optimal "ssp" s2 0

(* ---------- randomized cross-check ---------- *)

let random_problem seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng (3 * n) in
  let arcs =
    Array.init m (fun _ ->
        let src = Rng.int rng n in
        let dst = Rng.int rng n in
        let cap = Rng.int rng 15 in
        let cost = Rng.int rng 21 - 6 in
        arc src dst cap cost)
  in
  let supply = Array.make n 0 in
  let pairs = 1 + Rng.int rng 3 in
  for _ = 1 to pairs do
    let s = Rng.int rng n and t = Rng.int rng n in
    let amount = 1 + Rng.int rng 5 in
    supply.(s) <- supply.(s) + amount;
    supply.(t) <- supply.(t) - amount
  done;
  { Mcf.num_nodes = n; arcs; supply }

let prop_solvers_agree =
  QCheck.Test.make ~name:"network simplex and SSP agree (status + objective)"
    ~count:300 QCheck.small_nat (fun seed ->
      let p = random_problem (seed * 7919) in
      let s1 = Simplex.solve p and s2 = Ssp.solve p in
      match (s1.status, s2.status) with
      | Optimal, Optimal ->
        s1.objective = s2.objective
        && Result.is_ok (Mcf.check_optimality p s1)
        && Result.is_ok (Mcf.check_optimality p s2)
      | a, b -> a = b)

let prop_three_solvers_agree =
  QCheck.Test.make
    ~name:"cost scaling agrees with network simplex (status + objective)"
    ~count:300 QCheck.small_nat (fun seed ->
      let p = random_problem ((seed * 2671) + 13) in
      let s1 = Simplex.solve p and s3 = Cost_scaling.solve p in
      match (s1.status, s3.status) with
      | Optimal, Optimal ->
        s1.objective = s3.objective
        && Result.is_ok (Mcf.check_optimality p s3)
      | a, b -> a = b)

(* fixed-seed differential sweep: 50 pinned instances on which all three
   independent solver families must agree simultaneously. Unlike the QCheck
   properties above (fresh instances every run), these seeds are frozen so
   a regression in any solver reproduces identically in CI; a failure
   prints the whole instance for replay. *)

let problem_to_string (p : Mcf.problem) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "num_nodes = %d\nsupply = [|%s|]\n" p.num_nodes
       (String.concat "; "
          (Array.to_list (Array.map string_of_int p.supply))));
  Array.iteri
    (fun i a ->
      Buffer.add_string b
        (Printf.sprintf "arc %d: %d -> %d cap %d cost %d\n" i a.Mcf.src
           a.Mcf.dst a.Mcf.cap a.Mcf.cost))
    p.arcs;
  Buffer.contents b

let test_differential_fixed_seeds () =
  for seed = 1 to 50 do
    let p = random_problem ((seed * 48271) + 7) in
    let s1 = Simplex.solve p
    and s2 = Ssp.solve p
    and s3 = Cost_scaling.solve p in
    if s1.status <> s2.status || s2.status <> s3.status then
      Alcotest.failf
        "seed %d: statuses simplex=%s ssp=%s cost-scaling=%s on instance:\n%s"
        seed (status_str s1.status) (status_str s2.status)
        (status_str s3.status) (problem_to_string p);
    match s1.status with
    | Mcf.Optimal ->
      if s1.objective <> s2.objective || s2.objective <> s3.objective then
        Alcotest.failf
          "seed %d: objectives simplex=%d ssp=%d cost-scaling=%d on instance:\n%s"
          seed s1.objective s2.objective s3.objective (problem_to_string p)
    | _ -> ()
  done

let prop_simplex_certificate =
  QCheck.Test.make
    ~name:"simplex optimal solutions satisfy complementary slackness"
    ~count:300 QCheck.small_nat (fun seed ->
      let p = random_problem ((seed * 104729) + 1) in
      let s = Simplex.solve p in
      match s.status with
      | Optimal -> Result.is_ok (Mcf.check_optimality p s)
      | _ -> true)

let test_check_feasible_flow_diagnostics () =
  let p =
    { Mcf.num_nodes = 2; arcs = [| arc 0 1 5 1 |]; supply = [| 3; -3 |] }
  in
  check bool "correct flow accepted" true
    (Result.is_ok (Mcf.check_feasible_flow p [| 3 |]));
  check bool "over capacity rejected" true
    (Result.is_error (Mcf.check_feasible_flow p [| 6 |]));
  check bool "negative rejected" true
    (Result.is_error (Mcf.check_feasible_flow p [| -1 |]));
  check bool "conservation violated" true
    (Result.is_error (Mcf.check_feasible_flow p [| 2 |]));
  check bool "wrong length" true
    (Result.is_error (Mcf.check_feasible_flow p [| 1; 1 |]))

let test_self_loop_arc () =
  (* a self loop can carry flow only if profitable and never affects
     conservation; with positive cost it stays empty *)
  let p =
    { Mcf.num_nodes = 2;
      arcs = [| arc 0 0 5 3; arc 0 1 5 1 |];
      supply = [| 2; -2 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 2;
  expect_optimal "ssp" s2 2;
  check int "self loop empty" 0 s1.flow.(0)

(* ---------- Bellman-Ford ---------- *)

let test_bf_distances () =
  let g =
    { BF.num_nodes = 4;
      arc_src = [| 0; 0; 1; 2 |];
      arc_dst = [| 1; 2; 3; 3 |];
      arc_weight = [| 1; 4; 1; -2 |] }
  in
  match BF.run g ~sources:[ 0 ] with
  | Distances d ->
    check int "d1" 1 d.(1);
    check int "d2" 4 d.(2);
    check int "d3" 2 d.(3)
  | Negative_cycle _ -> Alcotest.fail "unexpected negative cycle"

let test_bf_unreachable () =
  let g =
    { BF.num_nodes = 3;
      arc_src = [| 0 |];
      arc_dst = [| 1 |];
      arc_weight = [| 5 |] }
  in
  match BF.run g ~sources:[ 0 ] with
  | Distances d -> check int "unreachable" (max_int / 4) d.(2)
  | Negative_cycle _ -> Alcotest.fail "unexpected negative cycle"

let test_bf_negative_cycle () =
  let g =
    { BF.num_nodes = 3;
      arc_src = [| 0; 1; 2 |];
      arc_dst = [| 1; 2; 0 |];
      arc_weight = [| 1; -3; 1 |] }
  in
  match BF.run_all g with
  | Distances _ -> Alcotest.fail "missed negative cycle"
  | Negative_cycle arcs ->
    let w = List.fold_left (fun acc a -> acc + g.arc_weight.(a)) 0 arcs in
    check bool "cycle weight negative" true (w < 0)

(* ---------- Dinic ---------- *)

let test_dinic_simple () =
  let d = Dinic.create ~num_nodes:4 in
  ignore (Dinic.add_edge d ~src:0 ~dst:1 ~cap:3);
  ignore (Dinic.add_edge d ~src:0 ~dst:2 ~cap:2);
  ignore (Dinic.add_edge d ~src:1 ~dst:3 ~cap:2);
  ignore (Dinic.add_edge d ~src:2 ~dst:3 ~cap:3);
  ignore (Dinic.add_edge d ~src:1 ~dst:2 ~cap:5);
  check int "max flow" 5 (Dinic.max_flow d ~source:0 ~sink:3)

let test_dinic_bottleneck () =
  let d = Dinic.create ~num_nodes:3 in
  let e0 = Dinic.add_edge d ~src:0 ~dst:1 ~cap:10 in
  let e1 = Dinic.add_edge d ~src:1 ~dst:2 ~cap:4 in
  check int "max flow" 4 (Dinic.max_flow d ~source:0 ~sink:2);
  check int "flow e0" 4 (Dinic.flow_on d e0);
  check int "flow e1" 4 (Dinic.flow_on d e1)

let prop_dinic_matches_mcf_feasibility =
  (* a transportation instance is feasible iff Dinic saturates all supply
     from a super-source: cross-check against the MCF solvers' status *)
  QCheck.Test.make ~name:"Dinic feasibility oracle agrees with MCF status"
    ~count:200 QCheck.small_nat (fun seed ->
      let p = random_problem ((seed * 31337) + 5) in
      let n = p.num_nodes in
      let d = Dinic.create ~num_nodes:(n + 2) in
      let source = n and sink = n + 1 in
      Array.iter
        (fun (a : Mcf.arc) -> ignore (Dinic.add_edge d ~src:a.src ~dst:a.dst ~cap:a.cap))
        p.arcs;
      let total = ref 0 in
      Array.iteri
        (fun v b ->
          if b > 0 then begin
            total := !total + b;
            ignore (Dinic.add_edge d ~src:source ~dst:v ~cap:b)
          end
          else if b < 0 then ignore (Dinic.add_edge d ~src:v ~dst:sink ~cap:(-b)))
        p.supply;
      let feasible = Dinic.max_flow d ~source ~sink = !total in
      let s = Simplex.solve p in
      feasible = (s.status = Optimal))

(* ---------- simplex trajectory ---------- *)

module Budget = Minflo_robust.Budget
module Perf = Minflo_robust.Perf

(* A layered difference-constraint network, the shape of a D-phase dual:
   [layers] x [width] nodes, forward arcs (some capacitated) and backward
   arcs between adjacent layers, plus an uncapacitated ring through every
   node so any balanced supply is routable. Arc costs are
   [phi src - phi dst + slack] with [slack >= 0], so no cycle is negative
   and every solve is bounded. Deep enough that pivots re-hang subtrees
   holding more than half of the spanning tree. *)
type layered = {
  n : int;
  ends : (int * int * int) array; (* src, dst, cap *)
  phi : int array;
  slack : int array;
  supply : int array;
}

let layered_problem l =
  { Mcf.num_nodes = l.n;
    arcs =
      Array.mapi
        (fun i (src, dst, cap) ->
          arc src dst cap (l.phi.(src) - l.phi.(dst) + l.slack.(i)))
        l.ends;
    supply = Array.copy l.supply }

let add_pairs rng l pairs =
  for _ = 1 to pairs do
    let s = Rng.int rng l.n and t = Rng.int rng l.n in
    let amount = 1 + Rng.int rng 9 in
    l.supply.(s) <- l.supply.(s) + amount;
    l.supply.(t) <- l.supply.(t) - amount
  done

let make_layered rng =
  let n = 200 + Rng.int rng 1801 in
  let width = 4 + Rng.int rng 12 in
  let layer v = v / width in
  let layer_start i = min n (i * width) in
  let pick_in i =
    let lo = layer_start i in
    lo + Rng.int rng (layer_start (i + 1) - lo)
  in
  let ends = ref [] in
  for v = width to n - 1 do
    let i = layer v - 1 in
    for _ = 1 to 1 + Rng.int rng 3 do
      let cap =
        if Rng.int rng 10 = 0 then 1 + Rng.int rng 20
        else Mcf.infinite_capacity
      in
      ends := (pick_in i, v, cap) :: !ends
    done;
    ends := (v, pick_in i, Mcf.infinite_capacity) :: !ends
  done;
  for v = 0 to n - 1 do
    ends := (v, (v + 1) mod n, Mcf.infinite_capacity) :: !ends
  done;
  let ends = Array.of_list (List.rev !ends) in
  let l =
    { n;
      ends;
      phi = Array.init n (fun v -> (10 * layer v) + Rng.int rng 10);
      slack = Array.init (Array.length ends) (fun _ -> Rng.int rng 8);
      supply = Array.make n 0 }
  in
  add_pairs rng l (n / 4);
  l

(* one warm-chain step: re-draw some slacks, move some potentials, add
   some supply pairs — the shape stays, so the basis is reused *)
let perturb rng l =
  let m = Array.length l.ends in
  for _ = 1 to 1 + (m / 20) do
    l.slack.(Rng.int rng m) <- Rng.int rng 8
  done;
  for _ = 1 to 1 + (l.n / 50) do
    let v = Rng.int rng l.n in
    l.phi.(v) <- l.phi.(v) + Rng.int rng 7 - 3
  done;
  add_pairs rng l (1 + (l.n / 40))

let status_code = function
  | Mcf.Optimal -> 0
  | Mcf.Infeasible -> 1
  | Mcf.Unbounded -> 2
  | Mcf.Aborted -> 3

(* FNV-1a over whole ints: status, pivots spent, flow and raw potentials *)
let solve_digest h (sol : Mcf.solution) pivots =
  let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) 0x100000001b3L in
  let h = mix (mix h (status_code sol.status)) pivots in
  let h = Array.fold_left mix h sol.flow in
  Array.fold_left mix h sol.potential

let counted_solve f =
  let before = Perf.snapshot () in
  let sol = f () in
  (sol, (Perf.diff before (Perf.snapshot ())).pivots)

let expect_certified name p (sol : Mcf.solution) =
  check Alcotest.string (name ^ " status") "Optimal" (status_str sol.status);
  match Mcf.check_optimality p sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": " ^ Minflo_robust.Diag.to_string e)

(* Every seed: one cold solve, then a 5-step warm chain under cost and
   supply perturbations. The digest pins each solve's status, pivot count,
   flow and potentials, so any change to the pricing order, the cycle
   orientation, the leaving-arc choice or the warm repair moves it. *)
let trajectory_digest seed =
  let rng = Rng.create ((seed * 7919) + 5) in
  let l = make_layered rng in
  let st = Simplex.make_state () in
  let h = ref 0xcbf29ce484222325L in
  for step = 0 to 5 do
    if step > 0 then perturb rng l;
    let p = layered_problem l in
    let sol, pivots = counted_solve (fun () -> Simplex.solve_warm st p) in
    expect_certified (Printf.sprintf "seed %d step %d" seed step) p sol;
    if step > 0 then
      check int
        (Printf.sprintf "seed %d step %d warm = cold objective" seed step)
        (Simplex.solve p).objective sol.objective;
    h := solve_digest !h sol pivots
  done;
  Printf.sprintf "%016Lx" !h

let test_trajectory_pin () =
  let pins =
    [ (0, "f23ab10fcf78ebef");
      (1, "41385f49a893c25c");
      (2, "59b22f4258ea2d69");
      (3, "5492fb1422bca281") ]
  in
  List.iter
    (fun (seed, expect) ->
      check Alcotest.string
        (Printf.sprintf "seed %d trajectory digest" seed)
        expect (trajectory_digest seed))
    pins

(* whether [st] keeps a basis: [Simplex.state] is one mutable field
   holding the basis option (read in full by [view_basis] below) *)
let keeps_basis (st : Simplex.state) = Obj.is_block (Obj.field (Obj.repr st) 0)

(* A budget-aborted solve leaves the basis mid-run but consistent: the
   state stays warm, and an unbudgeted resume reaches the cold optimum
   with a valid certificate. Checked from an empty state and from a warm
   basis repairing a perturbed problem. *)
let test_abort_then_resume () =
  let rng = Rng.create 4242 in
  let l = make_layered rng in
  let p0 = layered_problem l in
  perturb rng l;
  let p1 = layered_problem l in
  let cold1 = Simplex.solve p1 in
  expect_certified "cold" p1 cold1;
  let warm_pivots =
    let st = Simplex.make_state () in
    ignore (Simplex.solve_warm st p0);
    snd (counted_solve (fun () -> Simplex.solve_warm st p1))
  in
  List.iter
    (fun (from_warm, k) ->
      let name =
        Printf.sprintf "%s, budget %d" (if from_warm then "warm" else "empty") k
      in
      let st = Simplex.make_state () in
      if from_warm then
        expect_certified (name ^ " seed solve") p0 (Simplex.solve_warm st p0);
      let budget = Budget.start (Budget.limits ~max_pivots:k ()) in
      let aborted = Simplex.solve_warm ~budget st p1 in
      check Alcotest.string (name ^ " aborts") "Aborted"
        (status_str aborted.status);
      check bool (name ^ " keeps the basis") true (keeps_basis st);
      let resumed = Simplex.solve_warm st p1 in
      expect_certified (name ^ " resume") p1 resumed;
      check int (name ^ " resume = cold objective") cold1.objective
        resumed.objective)
    [ (false, 0); (false, 1); (false, 37); (false, 400);
      (true, 0); (true, 1); (true, warm_pivots / 3); (true, warm_pivots - 1) ]

(* A state retains the basis alone — arc endpoints, arc states, parent
   links: 3 words per arc (artificial arcs included) and 2 per tree node —
   and the shape's incidence index, 2 words per arc and 1 per node (the
   root included) plus one, plus headers. The working arrays of the last
   solve must not stay reachable from it between solves. *)
let test_state_keeps_only_basis () =
  for seed = 0 to 2 do
    let rng = Rng.create ((seed * 6007) + 11) in
    let l = make_layered rng in
    let st = Simplex.make_state () in
    ignore (Simplex.solve_warm st (layered_problem l));
    perturb rng l;
    let p = layered_problem l in
    let before = Perf.snapshot () in
    expect_certified "warm solve" p (Simplex.solve_warm st p);
    check int "the solve reused the basis" 1
      (Perf.diff before (Perf.snapshot ())).warm_starts;
    let n = l.n and m = Array.length l.ends in
    let bound =
      (3 * (m + n)) + (2 * (n + 1)) + (2 * (m + n)) + (n + 2) + 64
    in
    let words = Obj.reachable_words (Obj.repr st) in
    if words > bound then
      Alcotest.failf "seed %d: state holds %d words, bound %d (n %d, m %d)"
        seed words bound n m
  done

(* The degenerate sizes: no nodes, one node, no arcs — through both the
   cold and the warm entry point, twice so the second warm call reuses. *)
let test_degenerate_sizes () =
  let cases =
    [ ("0 nodes", { Mcf.num_nodes = 0; arcs = [||]; supply = [||] }, "Optimal");
      ("1 node", { Mcf.num_nodes = 1; arcs = [||]; supply = [| 0 |] }, "Optimal");
      ("1 node, self loop",
       { Mcf.num_nodes = 1; arcs = [| arc 0 0 5 (-2) |]; supply = [| 0 |] },
       "Optimal");
      ("no arcs, zero supply",
       { Mcf.num_nodes = 3; arcs = [||]; supply = [| 0; 0; 0 |] },
       "Optimal");
      ("no arcs, supply",
       { Mcf.num_nodes = 2; arcs = [||]; supply = [| 3; -3 |] },
       "Infeasible") ]
  in
  List.iter
    (fun (name, p, expect) ->
      let cold = Simplex.solve p in
      check Alcotest.string (name ^ " cold") expect (status_str cold.status);
      let st = Simplex.make_state () in
      for round = 1 to 2 do
        let warm = Simplex.solve_warm st p in
        let tag = Printf.sprintf "%s warm %d" name round in
        check Alcotest.string tag expect (status_str warm.status);
        check int (tag ^ " objective") cold.objective warm.objective;
        check bool (tag ^ " state kept iff optimal") (expect = "Optimal")
          (keeps_basis st);
        if expect = "Optimal" then expect_certified tag p warm
      done)
    cases

(* ---------- the crash basis ---------- *)

(* [Simplex.state] as the library represents it: one mutable field holding
   the basis option, the basis being two ints, five int arrays (arc
   endpoints, arc states, parent links) and the shape's incidence index
   (CSR offsets over nodes 0..n and the arcs, both endpoints of each). *)
type incidence_view = { iv_off : int array; iv_arcs : int array }

type basis_view = {
  bv_n : int;
  bv_m_real : int;
  bv_src : int array;
  bv_dst : int array;
  bv_state : int array;
  bv_parent : int array;
  bv_parc : int array;
  bv_inc : incidence_view;
}

(* The basis of a fresh-state [solve_warm] after [k] pivots: a [k]-pivot
   budget stops the solve before its next pivot (or it is optimal
   already), and the state keeps that basis. The state is abstract, so it
   is read back through [basis_view] ([view_basis], for a state that
   last solved [p]); the block shape is checked before the cast, so a
   changed representation fails here instead of reading garbage. [None]
   when the solve dropped the basis (Infeasible, or unbalanced). *)
let view_basis st (p : Mcf.problem) =
  let n = p.num_nodes and m = Array.length p.arcs + p.num_nodes in
  let r = Obj.repr st in
  if Obj.size r <> 1 then Alcotest.fail "state: unexpected representation";
  let o = Obj.field r 0 in
  if Obj.is_int o then None
  else begin
    let b = Obj.field o 0 in
    let int_array_of b i len =
      let f = Obj.field b i in
      Obj.is_block f && Obj.tag f = 0 && Obj.size f = len
    in
    let int_array = int_array_of b in
    let inc = Obj.field b 7 in
    if not
         (Obj.size o = 1 && Obj.size b = 8
         && Obj.is_int (Obj.field b 0)
         && Obj.is_int (Obj.field b 1)
         && int_array 2 m && int_array 3 m && int_array 4 m
         && int_array 5 (n + 1) && int_array 6 (n + 1)
         && Obj.is_block inc && Obj.size inc = 2
         && int_array_of inc 0 (n + 2)
         && int_array_of inc 1 (2 * m))
    then Alcotest.fail "state: unexpected basis representation";
    Some (Obj.obj b : basis_view)
  end

let basis_after k (p : Mcf.problem) =
  let st = Simplex.make_state () in
  let budget = Budget.start (Budget.limits ~max_pivots:k ()) in
  let sol = Simplex.solve_warm ~budget st p in
  (sol, view_basis st p)

(* The first basis: the crash basis, or the optimum it already is. *)
let crash_start = basis_after 0

(* Arc [a]'s cost in the solver's numbering: real arcs first, then one
   artificial arc per node at big-M, mirrored from
   [Network_simplex.create]. *)
let basis_cost (p : Mcf.problem) =
  let m_real = Array.length p.arcs in
  let max_cost =
    Array.fold_left (fun acc (a : Mcf.arc) -> max acc (abs a.cost)) 1 p.arcs
  in
  let big_m = ((p.num_nodes + 1) * max_cost) + 1 in
  fun a -> if a < m_real then p.arcs.(a).cost else big_m

(* A strongly feasible basis for [p], from the basis and the potentials
   of a solve stopped before its first pivot:
   - the parent links form a tree on the root, each node joined to its
     parent by an arc between the two;
   - every nonbasic arc sits at a bound (an at-upper one carries its
     capacity), so the unique basic flow follows from the supplies by
     leaf-to-root accumulation; the flows conserve at the root, and every
     tree arc is strongly feasible (a rootward arc below capacity, a
     leafward one above zero);
   - the potentials price every tree arc at reduced cost 0.
   Returns the basic flow, with the at-upper arcs' flows filled in. *)
let check_strong_basis name (p : Mcf.problem) (sol : Mcf.solution) b =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  let n = p.num_nodes and m_real = Array.length p.arcs in
  let root = n and m = m_real + n in
  if b.bv_n <> n || b.bv_m_real <> m_real then fail "basis of another shape";
  let cost = basis_cost p in
  let cap a =
    if a < m_real then min p.arcs.(a).cap Mcf.infinite_capacity
    else Mcf.infinite_capacity
  in
  let pot v = if v = root then 0 else sol.potential.(v) in
  let rc a = cost a - pot b.bv_src.(a) + pot b.bv_dst.(a) in
  if b.bv_parent.(root) <> -1 then fail "the root has a parent";
  let depth = Array.make (n + 1) (-1) in
  depth.(root) <- 0;
  let rec depth_of v steps =
    if steps > n then fail "the parent links cycle at node %d" v;
    if depth.(v) < 0 then depth.(v) <- 1 + depth_of b.bv_parent.(v) (steps + 1);
    depth.(v)
  in
  let excess = Array.make (n + 1) 0 in
  Array.blit p.supply 0 excess 0 n;
  let flow = Array.make m 0 in
  let tree = ref 0 in
  Array.iteri
    (fun a s ->
      if s = 0 then incr tree
      else if s = -1 then begin
        if cap a >= Mcf.infinite_capacity then
          fail "arc %d sits at an unbounded upper bound" a;
        flow.(a) <- cap a;
        excess.(b.bv_src.(a)) <- excess.(b.bv_src.(a)) - cap a;
        excess.(b.bv_dst.(a)) <- excess.(b.bv_dst.(a)) + cap a
      end
      else if s <> 1 then fail "arc %d has state %d" a s)
    b.bv_state;
  if !tree <> n then fail "%d tree arcs for %d nodes" !tree n;
  for v = 0 to n - 1 do
    ignore (depth_of v 0);
    let a = b.bv_parc.(v) and par = b.bv_parent.(v) in
    if b.bv_state.(a) <> 0 then fail "arc to the parent of %d is nonbasic" v;
    let s = b.bv_src.(a) and d = b.bv_dst.(a) in
    if not ((s = v && d = par) || (s = par && d = v)) then
      fail "arc %d does not join %d to its parent %d" a v par;
    if rc a <> 0 then fail "tree arc %d has reduced cost %d" a (rc a)
  done;
  let order = List.init n Fun.id in
  let order = List.sort (fun u v -> compare depth.(v) depth.(u)) order in
  List.iter
    (fun v ->
      let a = b.bv_parc.(v) in
      let up = b.bv_src.(a) = v in
      let f = if up then excess.(v) else -excess.(v) in
      if not (if up then f >= 0 && f < cap a else f > 0 && f <= cap a) then
        fail "tree arc %d to the parent of %d carries %d (cap %d, %s)" a v f
          (cap a)
          (if up then "rootward" else "leafward");
      flow.(a) <- f;
      excess.(b.bv_parent.(v)) <- excess.(b.bv_parent.(v)) + excess.(v))
    order;
  if excess.(root) <> 0 then fail "the root's excess is %d" excess.(root);
  flow

(* The crash basis's invariants: a strongly feasible basis
   ([check_strong_basis]) in which every arc starts at its lower bound and
   no nonbasic artificial arc (oriented root -> x) can ever enter. Returns
   the basic flow. *)
let check_crash_basis name (p : Mcf.problem) (sol : Mcf.solution) b =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  let n = p.num_nodes and m_real = Array.length p.arcs in
  let root = n in
  Array.iteri
    (fun a s -> if s = -1 then fail "arc %d starts at its upper bound" a)
    b.bv_state;
  let flow = check_strong_basis name p sol b in
  let cost = basis_cost p in
  let pot v = if v = root then 0 else sol.potential.(v) in
  let rc a = cost a - pot b.bv_src.(a) + pot b.bv_dst.(a) in
  for a = m_real to m_real + n - 1 do
    if b.bv_state.(a) <> 0 then begin
      if b.bv_src.(a) <> root then
        fail "nonbasic artificial %d leaves a node" a;
      if rc a <= 0 then
        fail "nonbasic artificial %d has reduced cost %d" a (rc a)
    end
  done;
  flow

type crash_case = {
  problem : Mcf.problem;
  no_pairs : bool;  (** no arc qualifies as a pair arc *)
  tight : bool;  (** a supply/demand arc with [cap <= b] *)
  competing : bool;  (** a supply node with two candidate partners *)
  split : bool;  (** two parts with no arc between them *)
  unbalanced : bool;
}

(* Small problems around the crash basis's cases: supply/demand pairs
   joined by an arc whose capacity is above, at or below the amount (from
   a narrow range, so partners compete), zero-supply nodes the pairs hang
   under, optionally two parts with no arc between them, an uncapacitated
   ring per part in most seeds (the rest are often infeasible), and every
   ninth seed unbalanced. Uncapacitated arcs cost at least 0, so no solve
   is unbounded. *)
let crash_case seed =
  let rng = Rng.create ((seed * 6151) + 29) in
  let n = 2 + Rng.int rng 14 in
  let split = Rng.int rng 4 = 0 in
  let part v = if split then v mod 2 else 0 in
  let supply = Array.make n 0 in
  let arcs = ref [] in
  let add src dst cap cost = arcs := arc src dst cap cost :: !arcs in
  let tight = ref false in
  for _ = 1 to Rng.int rng ((n / 2) + 1) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && part u = part v && supply.(u) = 0 && supply.(v) = 0 then begin
      let b = 1 + Rng.int rng 2 in
      supply.(u) <- b;
      supply.(v) <- -b;
      let cap =
        match Rng.int rng 4 with
        | 0 -> b
        | 1 -> Rng.int rng b
        | 2 -> b + 1 + Rng.int rng 4
        | _ -> Mcf.infinite_capacity
      in
      if cap <= b then tight := true;
      add u v cap (Rng.int rng 7 - 2)
    end
  done;
  for _ = 0 to Rng.int rng (2 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if part u = part v then
      if Rng.bool rng then add u v Mcf.infinite_capacity (Rng.int rng 6)
      else add u v (Rng.int rng 8) (Rng.int rng 9 - 3)
  done;
  if Rng.int rng 5 > 0 then
    for v = 0 to n - 1 do
      let w = if split then (v + 2) mod n else (v + 1) mod n in
      if part w = part v then add v w Mcf.infinite_capacity 4
    done;
  let unbalanced = seed mod 9 = 0 in
  if unbalanced then supply.(Rng.int rng n) <- supply.(Rng.int rng n) + 1;
  let arcs = Array.of_list (List.rev !arcs) in
  let candidate (a : Mcf.arc) =
    supply.(a.src) > 0 && supply.(a.dst) = - supply.(a.src)
  in
  let candidates = List.filter candidate (Array.to_list arcs) in
  let competing =
    List.exists
      (fun (a : Mcf.arc) ->
        List.exists
          (fun (c : Mcf.arc) ->
            (c.src = a.src && c.dst <> a.dst)
            || (c.dst = a.dst && c.src <> a.src))
          candidates)
      candidates
  in
  { problem = { Mcf.num_nodes = n; arcs; supply };
    no_pairs =
      not
        (List.exists (fun (a : Mcf.arc) -> a.cap > supply.(a.src)) candidates);
    tight = !tight;
    competing;
    split;
    unbalanced }

(* From an empty state, [solve_warm] starts at the crash basis, which holds
   its invariants, and ends where the artificial start ([solve]) and SSP
   end: the same status and objective, with a certified optimum. The family
   must reach every case the crash distinguishes, and some crash bases must
   hang pairs. *)
let test_crash_matches_cold () =
  let seen = Hashtbl.create 8 in
  let saw tag = Hashtbl.replace seen tag () in
  for seed = 0 to 599 do
    let c = crash_case seed in
    let p = c.problem in
    let name = Printf.sprintf "seed %d" seed in
    List.iter
      (fun (flag, tag) -> if flag then saw tag)
      [ (c.no_pairs, "no pairs"); (c.tight, "cap <= b");
        (c.competing, "competing"); (c.split, "split");
        (c.unbalanced, "unbalanced") ];
    (match crash_start p with
    | _, None -> ()
    | sol, Some b ->
      let flow = check_crash_basis name p sol b in
      let m_real = Array.length p.arcs in
      for v = 0 to p.num_nodes - 1 do
        let a = b.bv_parc.(v) in
        if a < m_real && b.bv_dst.(a) = v && flow.(a) > 0 then saw "hung pair"
      done);
    let crash = Simplex.solve_warm (Simplex.make_state ()) p in
    let cold = Simplex.solve p and ssp = Ssp.solve p in
    List.iter
      (fun (other, (s : Mcf.solution)) ->
        if s.status <> crash.status then
          Alcotest.failf "%s: crash %s, %s %s on instance:\n%s" name
            (status_str crash.status) other (status_str s.status)
            (problem_to_string p);
        if s.status = Optimal && s.objective <> crash.objective then
          Alcotest.failf "%s: crash objective %d, %s %d on instance:\n%s" name
            crash.objective other s.objective (problem_to_string p))
      [ ("solve", cold); ("ssp", ssp) ];
    if crash.status = Optimal then expect_certified name p crash
    else if crash.status = Infeasible then saw "infeasible"
  done;
  List.iter
    (fun tag ->
      check bool ("family reaches: " ^ tag) true (Hashtbl.mem seen tag))
    [ "no pairs"; "cap <= b"; "competing"; "split"; "unbalanced"; "infeasible";
      "hung pair" ]

(* On the engine's displacement LPs the crash leaves only the zero-supply
   seeds (the LP's ground node) on artificial arcs: every rdmy/r pair is
   paired by its trust-region arc and hangs, through the edge and sink
   arcs, under ground. An arc-order change in [Dphase.build_lp] that
   switched the crash off would show here first. *)
let test_crash_on_displacement_lps () =
  let module Iscas85 = Minflo_netlist.Iscas85 in
  let module Generators = Minflo_netlist.Generators in
  let module Transform = Minflo_netlist.Transform in
  let module Tech = Minflo_tech.Tech in
  let module Elmore = Minflo_tech.Elmore in
  let module Transistor = Minflo_tech.Transistor in
  let module Delay_model = Minflo_tech.Delay_model in
  let module Sweep = Minflo_sizing.Sweep in
  let module Tilos = Minflo_sizing.Tilos in
  let module Dphase = Minflo_sizing.Dphase in
  let tech = Tech.default_130nm in
  List.iter
    (fun (circuit, granularity) ->
      let nl =
        if circuit = "c17" then Generators.c17 () else Iscas85.circuit circuit
      in
      let model =
        match granularity with
        | `Gate -> Elmore.of_netlist tech nl
        | `Transistor -> Transistor.of_netlist tech (Transform.to_nand_inv nl)
      in
      let name =
        Printf.sprintf "%s %s" circuit
          (match granularity with `Gate -> "gate" | `Transistor -> "transistor")
      in
      let target = 0.6 *. Sweep.dmin model in
      let sizes = (Tilos.size model ~target).Tilos.sizes in
      let delays = Delay_model.delays model sizes in
      match
        Dphase.displacement_problem model ~sizes ~delays ~deadline:target
      with
      | Error e -> Alcotest.failf "%s: %s" name (Minflo_robust.Diag.to_string e)
      | Ok p -> (
        match crash_start p with
        | _, None -> Alcotest.failf "%s: no crash basis" name
        | sol, Some b ->
          ignore (check_crash_basis name p sol b);
          let on_artificial = ref 0 and seeds = ref 0 in
          for v = 0 to p.num_nodes - 1 do
            if p.supply.(v) = 0 then incr seeds;
            if b.bv_parent.(v) = p.num_nodes then begin
              incr on_artificial;
              if p.supply.(v) <> 0 then
                Alcotest.failf
                  "%s: node %d (supply %d) left on its artificial arc" name v
                  p.supply.(v)
            end
          done;
          check int (name ^ ": only the seeds on artificial arcs") !seeds
            !on_artificial))
    [ ("c17", `Gate); ("c17", `Transistor); ("c432", `Gate);
      ("c432", `Transistor) ]

(* ---------- pricing ---------- *)

(* The pricing block size B over m = real plus artificial arcs, mirrored
   from [Network_simplex.alloc]. *)
let pricing_block m = max 10 (int_of_float (sqrt (float_of_int m)))

(* Problems around the candidate list's edges, by [seed mod 5]:
   - 0: one node, with up to three capacitated self loops;
   - 1: fewer arcs than one block (m < B), so every scan is one partial
     block that wraps onto the candidates it kept;
   - 2, 3: many blocks with few violated arcs. From the artificial start
     only arcs into a demand node can enter, and most arcs cost more than
     the cheap paths, so the list often empties and the scan crosses
     blocks with an empty list before it finds the next arc;
   - 4: degenerate: costs 0 or 1 and capacities 0 to 2 or unbounded, so
     violations tie and many pivots push no flow.
   Kinds 2 to 4 add an uncapacitated ring in most seeds (the others are
   often infeasible), and every eleventh seed is unbalanced. No
   uncapacitated arc costs below 0, so no solve is unbounded. *)
let pricing_case seed =
  let rng = Rng.create ((seed * 7907) + 3) in
  let kind = seed mod 5 in
  let n =
    match kind with
    | 0 -> 1
    | 1 -> 2 + Rng.int rng 3
    | 2 | 3 -> 30 + Rng.int rng 40
    | _ -> 4 + Rng.int rng 20
  in
  let supply = Array.make n 0 in
  let pairs =
    match kind with
    | 0 -> 0
    | 1 -> 1
    | 2 | 3 -> 1 + Rng.int rng 3
    | _ -> 1 + Rng.int rng (n / 2)
  in
  for _ = 1 to pairs do
    let u = Rng.int rng n and v = Rng.int rng n in
    let b = 1 + Rng.int rng 4 in
    supply.(u) <- supply.(u) + b;
    supply.(v) <- supply.(v) - b
  done;
  let arcs = ref [] in
  let add src dst cap cost = arcs := arc src dst cap cost :: !arcs in
  let any () = Rng.int rng n in
  (match kind with
  | 0 ->
    for _ = 1 to Rng.int rng 4 do
      add 0 0 (Rng.int rng 5) (Rng.int rng 5 - 2)
    done
  | 1 ->
    (* m = n + real arcs <= 9 < 10 <= B *)
    for _ = 1 to Rng.int rng (10 - n) do
      add (any ()) (any ()) (Rng.int rng 6) (Rng.int rng 7 - 2)
    done
  | 2 | 3 ->
    for _ = 1 to (5 + Rng.int rng 6) * n do
      if Rng.int rng 3 = 0 then
        add (any ()) (any ()) (Rng.int rng 10) (Rng.int rng 5)
      else add (any ()) (any ()) Mcf.infinite_capacity (10 + Rng.int rng 40)
    done
  | _ ->
    for _ = 1 to 3 * n do
      let cap =
        match Rng.int rng 4 with
        | 3 -> Mcf.infinite_capacity
        | c -> c
      in
      add (any ()) (any ()) cap (Rng.int rng 2)
    done);
  if kind >= 2 && Rng.int rng 4 > 0 then
    for v = 0 to n - 1 do
      add v ((v + 1) mod n) Mcf.infinite_capacity 60
    done;
  if seed mod 11 = 10 then supply.(any ()) <- supply.(any ()) + 1;
  (kind, { Mcf.num_nodes = n; arcs = Array.of_list (List.rev !arcs); supply })

(* Every pivot enters an arc that was nonbasic and violated. [basis_after]
   steps a fresh-state [solve_warm] one pivot at a time; the arc a pivot
   entered is the one nonbasic arc whose state it changed (into the tree,
   or bound to bound), priced with the potentials from before the pivot.
   A candidate kept after it entered the tree would enter again as a
   pivot that changes no state. *)
let check_pivot_steps name (p : Mcf.problem) =
  let n = p.num_nodes and m_real = Array.length p.arcs in
  let cost = basis_cost p in
  let rec walk k ((sol : Mcf.solution), b) =
    match (sol.status, b) with
    | Mcf.Aborted, Some b ->
      let next = basis_after (k + 1) p in
      (match next with
      | _, None -> ()
      | _, Some b' ->
        let pot v = if v = n then 0 else sol.potential.(v) in
        let moved =
          List.filter
            (fun a -> b.bv_state.(a) <> 0 && b'.bv_state.(a) <> b.bv_state.(a))
            (List.init (m_real + n) Fun.id)
        in
        (match moved with
        | [ a ] ->
          let viol =
            b.bv_state.(a) * (pot b.bv_src.(a) - pot b.bv_dst.(a) - cost a)
          in
          if viol <= 0 then
            Alcotest.failf "%s: pivot %d enters arc %d at violation %d" name
              (k + 1) a viol
        | moved ->
          Alcotest.failf "%s: pivot %d changes the state of %d nonbasic arcs"
            name (k + 1) (List.length moved)));
      walk (k + 1) next
    | _ -> ()
  in
  walk 0 (crash_start p)

(* [solve] and a fresh-state [solve_warm] end where SSP ends: the same
   status and objective, and a certified optimum. Each solve runs under a
   pivot budget far above what these problems need, so a pricing rule
   that pivots forever fails as Aborted instead of hanging. The family
   must reach each of its shapes. On the small kinds every pivot is
   checked as well ([check_pivot_steps]). *)
let test_pricing_matches_ssp () =
  let seen = Hashtbl.create 8 in
  let saw tag = Hashtbl.replace seen tag () in
  for seed = 0 to 999 do
    let kind, p = pricing_case seed in
    let name = Printf.sprintf "seed %d" seed in
    let m = Array.length p.arcs + p.num_nodes in
    let ssp = Ssp.solve p in
    let budget () = Budget.start (Budget.limits ~max_pivots:100_000 ()) in
    List.iter
      (fun (entry, (s : Mcf.solution)) ->
        if s.status <> ssp.status then
          Alcotest.failf "%s: ssp %s, %s %s on instance:\n%s" name
            (status_str ssp.status) entry (status_str s.status)
            (problem_to_string p);
        if s.status = Optimal then begin
          if s.objective <> ssp.objective then
            Alcotest.failf "%s: ssp objective %d, %s %d on instance:\n%s" name
              ssp.objective entry s.objective (problem_to_string p);
          expect_certified (name ^ " " ^ entry) p s
        end)
      [ ("solve", Simplex.solve ~budget:(budget ()) p);
        ("solve_warm",
         Simplex.solve_warm ~budget:(budget ()) (Simplex.make_state ()) p) ];
    if kind <> 2 && kind <> 3 then check_pivot_steps name p;
    let balanced = Mcf.is_balanced p in
    List.iter
      (fun (flag, tag) -> if flag then saw tag)
      [ (p.num_nodes = 1, "one node");
        (m < pricing_block m, "m < B");
        (m >= 10 * pricing_block m && ssp.status = Optimal, "ten blocks");
        (kind = 4 && ssp.status = Optimal, "degenerate");
        (not balanced, "unbalanced");
        (balanced && ssp.status = Infeasible, "infeasible") ]
  done;
  List.iter
    (fun tag ->
      check bool ("family reaches: " ^ tag) true (Hashtbl.mem seen tag))
    [ "one node"; "m < B"; "ten blocks"; "degenerate"; "unbalanced";
      "infeasible" ]

(* ---------- cut seeding ---------- *)

(* The incidence index a state must hold for [p], built the plain way:
   every arc under both endpoints, ascending per node (a self loop twice),
   the artificial arc [m_real + v] under [v] and the root. *)
let reference_incidence (p : Mcf.problem) =
  let n = p.num_nodes and m_real = Array.length p.arcs in
  let lists = Array.make (n + 1) [] in
  for a = m_real + n - 1 downto 0 do
    let u, v =
      if a < m_real then (p.arcs.(a).src, p.arcs.(a).dst) else (a - m_real, n)
    in
    lists.(v) <- a :: lists.(v);
    lists.(u) <- a :: lists.(u)
  done;
  let off = Array.make (n + 2) 0 in
  Array.iteri (fun x l -> off.(x + 1) <- off.(x) + List.length l) lists;
  (off, Array.concat (Array.to_list (Array.map Array.of_list lists)))

(* Problems for the cut seeding, by [kind]:
   - 0: dense and degenerate: about half of all ordered node pairs carry
     one to three parallel arcs, costs 0 to 2 (capacitated arcs down to
     -1), capacities 0 to 3 or unbounded. A node has more incident arcs
     than one block B, so
     seeding is cut short, it often fills all B + H list entries, and
     many pivots move the entering arc bound to bound;
   - 1: hubs: nodes 0 and 1 joined to every other node by one to three
     arcs each way, plus a few random arcs, so a hub alone lists several
     blocks of arcs;
   - 2: a chain with skip and back arcs, so the tree is deep and pivots
     often shift the side that holds the root.
   Most seeds add an uncapacitated ring (the others are often infeasible).
   No uncapacitated arc costs below 0, so no solve is unbounded. *)
let seeding_arcs rng kind n =
  let arcs = ref [] in
  let add src dst cap cost = arcs := arc src dst cap cost :: !arcs in
  let cap () =
    match Rng.int rng 5 with 4 -> Mcf.infinite_capacity | c -> c
  in
  let cost cap =
    if cap = Mcf.infinite_capacity then Rng.int rng 3 else Rng.int rng 4 - 1
  in
  let edge u v =
    let c = cap () in
    add u v c (cost c)
  in
  (match kind with
  | 0 ->
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if Rng.int rng 2 = 0 then
          for _ = 0 to Rng.int rng 3 do
            edge u v
          done
      done
    done
  | 1 ->
    for v = 2 to n - 1 do
      for h = 0 to 1 do
        for _ = 0 to Rng.int rng 3 do
          edge h v;
          edge v h
        done
      done
    done;
    for _ = 1 to n do
      edge (Rng.int rng n) (Rng.int rng n)
    done
  | _ ->
    for v = 0 to n - 2 do
      edge v (v + 1);
      if Rng.int rng 3 = 0 then edge (v + 1) v;
      if v + 3 < n && Rng.int rng 2 = 0 then edge v (v + 3)
    done);
  if Rng.int rng 5 > 0 then
    for v = 0 to n - 1 do
      add v ((v + 1) mod n) Mcf.infinite_capacity 3
    done;
  Array.of_list (List.rev !arcs)

(* random supply pairs, or on half the draws one source feeding many unit
   demands, which from the all-artificial start leaves most arcs out of a
   re-hung demand node violated *)
let seeding_supply rng n =
  let supply = Array.make n 0 in
  if Rng.int rng 2 = 0 then
    for _ = 1 to 1 + Rng.int rng (1 + (n / 2)) do
      let u = Rng.int rng n and v = Rng.int rng n in
      let b = 1 + Rng.int rng 4 in
      supply.(u) <- supply.(u) + b;
      supply.(v) <- supply.(v) - b
    done
  else begin
    let source = Rng.int rng n in
    for v = 0 to n - 1 do
      if v <> source && Rng.int rng 3 > 0 then begin
        supply.(source) <- supply.(source) + 1;
        supply.(v) <- supply.(v) - 1
      end
    done
  end;
  supply

(* a warm-chain step: new costs on some arcs and new supplies, same shape *)
let seeding_perturb rng (p : Mcf.problem) =
  let arcs =
    Array.map
      (fun (a : Mcf.arc) ->
        if Rng.int rng 4 > 0 then a
        else if a.cap = Mcf.infinite_capacity then
          { a with cost = Rng.int rng 3 }
        else { a with cost = Rng.int rng 4 - 1 })
      p.arcs
  in
  { p with arcs; supply = seeding_supply rng p.num_nodes }

(* a shape change: one more node joined by a few arcs, and on even seeds
   the last few arcs dropped, so both the node and the arc count move *)
let seeding_reshape rng seed (p : Mcf.problem) =
  let n = p.num_nodes + 1 in
  let kept =
    if seed mod 2 = 0 then
      Array.sub p.arcs 0 (max 0 (Array.length p.arcs - 1 - Rng.int rng 4))
    else p.arcs
  in
  let joins =
    Array.init (2 + Rng.int rng 3) (fun i ->
        let v = Rng.int rng (n - 1) in
        if i mod 2 = 0 then arc (n - 1) v Mcf.infinite_capacity 1
        else arc v (n - 1) Mcf.infinite_capacity 1)
  in
  { Mcf.num_nodes = n;
    arcs = Array.append kept joins;
    supply = seeding_supply rng n }

(* Warm chains through the cut seeding: per seed a cold solve, two warm
   steps on the same shape, a shape change and one more warm step. Every
   solve runs under a pivot budget and must match SSP in status and
   objective with a certified optimum. The state must hold the incidence
   index of the problem it last solved: the same arrays across a warm step
   (the index is built once per shape), fresh ones after a shape change.
   On the small problems every pivot of a fresh-state solve is checked to
   enter a violated nonbasic arc ([check_pivot_steps]), which a seed whose
   stale price was trusted would break. *)
let test_seeding_chains () =
  let cold_after_reshape = ref 0 and warm_reused = ref 0 in
  for seed = 0 to 299 do
    let rng = Rng.create ((seed * 7727) + 19) in
    let kind = seed mod 3 in
    let n =
      match kind with
      | 0 -> 6 + Rng.int rng 15
      | 1 -> 20 + Rng.int rng 16
      | _ -> 40 + Rng.int rng 60
    in
    let p0 =
      { Mcf.num_nodes = n; arcs = seeding_arcs rng kind n;
        supply = seeding_supply rng n }
    in
    let p1 = seeding_perturb rng p0 in
    let p2 = seeding_perturb rng p1 in
    let p3 = seeding_reshape rng seed p2 in
    let p4 = seeding_perturb rng p3 in
    let st = Simplex.make_state () in
    let last_index = ref None in
    let budget () = Budget.start (Budget.limits ~max_pivots:100_000 ()) in
    List.iteri
      (fun step (p : Mcf.problem) ->
        let name = Printf.sprintf "seed %d step %d" seed step in
        let was_warm = keeps_basis st in
        let before = Perf.snapshot () in
        let s = Simplex.solve_warm ~budget:(budget ()) st p in
        let warm = (Perf.diff before (Perf.snapshot ())).warm_starts = 1 in
        let ssp = Ssp.solve p in
        List.iter
          (fun (entry, (s : Mcf.solution)) ->
            if s.status <> ssp.status then
              Alcotest.failf "%s: ssp %s, %s %s on instance:\n%s" name
                (status_str ssp.status) entry (status_str s.status)
                (problem_to_string p);
            if s.status = Optimal then begin
              if s.objective <> ssp.objective then
                Alcotest.failf "%s: ssp objective %d, %s %d" name
                  ssp.objective entry s.objective;
              expect_certified (name ^ " " ^ entry) p s
            end)
          [ ("solve_warm", s); ("solve", Simplex.solve ~budget:(budget ()) p) ];
        check bool (name ^ " warm iff a basis of this shape was kept")
          (was_warm && step <> 3) warm;
        if step = 3 && was_warm then incr cold_after_reshape;
        (match view_basis st p with
        | None -> last_index := None
        | Some b ->
          let off, arcs = reference_incidence p in
          let ints = Alcotest.array int in
          check ints (name ^ " index offsets") off b.bv_inc.iv_off;
          check ints (name ^ " index arcs") arcs b.bv_inc.iv_arcs;
          (match !last_index with
          | Some (o, a) when warm ->
            if not (o == b.bv_inc.iv_off && a == b.bv_inc.iv_arcs) then
              Alcotest.failf "%s: a warm step rebuilt the index" name;
            incr warm_reused
          | _ -> ());
          last_index := Some (b.bv_inc.iv_off, b.bv_inc.iv_arcs));
        if kind < 2 && step = 0 then check_pivot_steps name p)
      [ p0; p1; p2; p3; p4 ]
  done;
  check bool "family reaches a warm step that reuses the index" true
    (!warm_reused > 0);
  check bool "family reaches a shape change after a kept basis" true
    (!cold_after_reshape > 0)

(* ---------- warm re-hang ---------- *)

(* A problem for the warm re-hang: random arcs, about half of them with one
   to three parallel copies, capacities 0 to 4 or unbounded, capacitated
   arcs costing -3 to 3 (the negative ones end at their upper bound) and
   uncapacitated ones 0 to 4, so no solve is unbounded; most seeds add an
   uncapacitated ring at cost 5 (the others are often infeasible). *)
let rehang_cap_cost rng =
  let cap = match Rng.int rng 6 with 5 -> Mcf.infinite_capacity | c -> c in
  (cap, if cap = Mcf.infinite_capacity then Rng.int rng 5 else Rng.int rng 7 - 3)

let rehang_problem rng n =
  let arcs = ref [] in
  for _ = 1 to 2 * n do
    let u = Rng.int rng n and v = Rng.int rng n in
    for _ = 0 to (if Rng.bool rng then Rng.int rng 3 else 0) do
      let cap, cost = rehang_cap_cost rng in
      arcs := arc u v cap cost :: !arcs
    done
  done;
  if Rng.int rng 5 > 0 then
    for v = 0 to n - 1 do
      arcs := arc v ((v + 1) mod n) Mcf.infinite_capacity 5 :: !arcs
    done;
  { Mcf.num_nodes = n;
    arcs = Array.of_list (List.rev !arcs);
    supply = seeding_supply rng n }

(* the next step of a chain: every supply negated, a few moved, and new
   costs and capacities on some arcs (a capacitated arc may become
   uncapacitated and back; the ring, the only arcs at cost 5, stays),
   same shape *)
let rehang_step rng (p : Mcf.problem) =
  let n = p.num_nodes in
  let supply = Array.map (fun b -> -b) p.supply in
  for _ = 0 to Rng.int rng 3 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let b = 1 + Rng.int rng 3 in
    supply.(u) <- supply.(u) + b;
    supply.(v) <- supply.(v) - b
  done;
  let arcs =
    Array.map
      (fun (a : Mcf.arc) ->
        match Rng.int rng 6 with
        | 0 when a.cost <> 5 ->
          let cap, cost = rehang_cap_cost rng in
          { a with cap; cost }
        | _ -> a)
      p.arcs
  in
  { p with arcs; supply }

(* a warm solve reuses the kept basis arrays in place *)
let copy_basis b =
  { b with
    bv_src = Array.copy b.bv_src;
    bv_dst = Array.copy b.bv_dst;
    bv_state = Array.copy b.bv_state;
    bv_parent = Array.copy b.bv_parent;
    bv_parc = Array.copy b.bv_parc }

(* Warm chains whose supplies change sign at every step, so the repair of
   the kept basis cuts many tree arcs. Per seed a cold solve and five warm
   steps. Each warm step first runs with a zero-pivot budget, which stops
   right after the repair and keeps the repaired basis: it must be strongly
   feasible for the new problem ([check_strong_basis]). The step then
   resumes from it unbudgeted (the repair of a strongly feasible basis cuts
   nothing) and must match SSP in status and objective with a certified
   optimum. Comparing the repaired basis with the one kept before, a node
   whose arc to its parent changed was cut; the family must reach a cut
   node re-hung on a real arc that was nonbasic, one that falls back to its
   artificial arc, a re-hung node whose new parent is cut in its turn, and
   warm steps that start with arcs at their upper bound. *)
let test_rehang_chains () =
  let seen = Hashtbl.create 8 in
  let saw tag = Hashtbl.replace seen tag () in
  for seed = 0 to 299 do
    let rng = Rng.create ((seed * 7841) + 23) in
    let n = 4 + Rng.int rng 40 in
    let p = ref (rehang_problem rng n) in
    let st = Simplex.make_state () in
    let budget k = Budget.start (Budget.limits ~max_pivots:k ()) in
    for step = 0 to 5 do
      if step > 0 then p := rehang_step rng !p;
      let p = !p in
      let name = Printf.sprintf "seed %d step %d" seed step in
      let m_real = Array.length p.arcs in
      let kept = Option.map copy_basis (view_basis st p) in
      (match kept with
      | None -> ()
      | Some b0 ->
        if Array.exists (fun s -> s = -1) b0.bv_state then saw "at-upper arcs";
        let probe = Simplex.solve_warm ~budget:(budget 0) st p in
        (match view_basis st p with
        | None -> ()
        | Some b1 ->
          ignore (check_strong_basis (name ^ " repaired") p probe b1);
          let cut x =
            b1.bv_parc.(x) <> b0.bv_parc.(x)
            || b1.bv_src.(b1.bv_parc.(x)) <> b0.bv_src.(b0.bv_parc.(x))
          in
          for x = 0 to n - 1 do
            let a = b1.bv_parc.(x) in
            if cut x then
              if a < m_real then begin
                (* at its lower bound once pinned: an at-upper arc whose
                   capacity became unbounded moves there *)
                if not
                     (b0.bv_state.(a) = 1
                     || (b0.bv_state.(a) = -1
                        && p.arcs.(a).cap >= Mcf.infinite_capacity))
                then
                  Alcotest.failf "%s: node %d re-hung on arc %d of state %d"
                    name x a b0.bv_state.(a);
                saw "re-hang";
                let y = b1.bv_parent.(x) in
                if y < n && cut y then saw "cascade"
              end
              else saw "artificial fallback"
          done));
      let s = Simplex.solve_warm ~budget:(budget 100_000) st p in
      let ssp = Ssp.solve p in
      if s.status <> ssp.status then
        Alcotest.failf "%s: ssp %s, solve_warm %s on instance:\n%s" name
          (status_str ssp.status) (status_str s.status) (problem_to_string p);
      if s.status = Optimal then begin
        if s.objective <> ssp.objective then
          Alcotest.failf "%s: ssp objective %d, solve_warm %d" name
            ssp.objective s.objective;
        expect_certified name p s
      end
    done
  done;
  List.iter
    (fun tag ->
      check bool ("family reaches: " ^ tag) true (Hashtbl.mem seen tag))
    [ "re-hang"; "artificial fallback"; "cascade"; "at-upper arcs" ]

(* ---------- canonical duals ---------- *)

(* small feasible problems with heavily tied costs: an uncapacitated ring
   keeps every supply routable, and random finite arcs with costs in
   [-1, 2] make the optimal basis (and so the raw duals) degenerate *)
let tied_problem seed =
  let rng = Rng.create ((seed * 31337) + 17) in
  let n = 2 + Rng.int rng 11 in
  let ring = Array.init n (fun v -> arc v ((v + 1) mod n) Mcf.infinite_capacity 2) in
  let extra =
    Array.init (Rng.int rng (3 * n)) (fun _ ->
        arc (Rng.int rng n) (Rng.int rng n) (Rng.int rng 6) (Rng.int rng 4 - 1))
  in
  let supply = Array.make n 0 in
  for _ = 1 to 1 + Rng.int rng 3 do
    let s = Rng.int rng n and t = Rng.int rng n in
    let amount = 1 + Rng.int rng 5 in
    supply.(s) <- supply.(s) + amount;
    supply.(t) <- supply.(t) - amount
  done;
  { Mcf.num_nodes = n; arcs = Array.append ring extra; supply }

(* The reference canonical dual: the largest pi <= 0 that is slack-
   complementary with [flow], by plain Bellman-Ford relaxation from an
   all-zero start (a virtual source with a 0-weight arc to every node) *)
let reference_canonical (p : Mcf.problem) flow =
  let pi = Array.make p.num_nodes 0 in
  let relax u v w =
    if pi.(u) + w < pi.(v) then begin
      pi.(v) <- pi.(u) + w;
      true
    end
    else false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (a : Mcf.arc) ->
        (* f < cap: pi(src) - pi(dst) <= cost; f > 0: pi(dst) - pi(src) <= -cost *)
        if flow.(i) < a.cap && relax a.dst a.src a.cost then changed := true;
        if flow.(i) > 0 && relax a.src a.dst (-a.cost) then changed := true)
      p.arcs
  done;
  pi

let int_array = Alcotest.(array int)

(* the reference runs on SSP's flow and the Dijkstra on the simplex's, so
   this also checks that the face does not depend on the optimal flow *)
let test_canonical_matches_reference () =
  let solved = ref 0 and degenerate = ref 0 in
  for seed = 0 to 249 do
    let p = tied_problem seed in
    let simplex = Simplex.solve p and ssp = Ssp.solve p in
    expect_certified (Printf.sprintf "seed %d simplex" seed) p simplex;
    expect_certified (Printf.sprintf "seed %d ssp" seed) p ssp;
    incr solved;
    if simplex.potential <> ssp.potential then incr degenerate;
    check int_array
      (Printf.sprintf "seed %d canonical = reference" seed)
      (reference_canonical p ssp.flow)
      (Mcf.canonical_potentials p simplex)
  done;
  check bool "at least 200 problems solved" true (!solved >= 200);
  check bool "some raw duals disagree" true (!degenerate > 0)

(* cold simplex, a warm simplex chain ending on the same problem, and SSP
   land on the same canonical duals *)
let test_canonical_solver_independent () =
  for seed = 0 to 3 do
    let rng = Rng.create ((seed * 104729) + 3) in
    let l = make_layered rng in
    let st = Simplex.make_state () in
    for _ = 1 to 3 do
      ignore (Simplex.solve_warm st (layered_problem l));
      perturb rng l
    done;
    let p = layered_problem l in
    let cold = Simplex.solve p and warm = Simplex.solve_warm st p in
    let ssp = Ssp.solve p in
    List.iter
      (fun (name, sol) -> expect_certified (Printf.sprintf "seed %d %s" seed name) p sol)
      [ ("cold", cold); ("warm", warm); ("ssp", ssp) ];
    let canon = Mcf.canonical_potentials p cold in
    check int_array (Printf.sprintf "seed %d warm = cold" seed) canon
      (Mcf.canonical_potentials p warm);
    check int_array (Printf.sprintf "seed %d ssp = cold" seed) canon
      (Mcf.canonical_potentials p ssp);
    check bool (Printf.sprintf "seed %d capped at 0" seed) true
      (Array.for_all (fun x -> x <= 0) canon)
  done

(* a certificate whose potentials violate complementary slackness is not
   repaired: the raw potentials come back, as a fresh copy. Two hand-made
   certificates trip one side of the reduced-cost check each, and a solved
   one is perturbed. *)
let test_canonical_non_optimal_passthrough () =
  let expect_raw name p (sol : Mcf.solution) =
    check bool (name ^ " fails the check") true
      (Result.is_error (Mcf.check_optimality p sol));
    let out = Mcf.canonical_potentials p sol in
    check int_array (name ^ " returns the raw potentials") sol.potential out;
    check bool (name ^ " as a copy") false (out == sol.potential)
  in
  let below_cap =
    { Mcf.num_nodes = 2; arcs = [| arc 0 1 5 1 |]; supply = [| 0; 0 |] }
  in
  expect_raw "f < cap, reduced cost < 0" below_cap
    { status = Optimal; flow = [| 0 |]; potential = [| 0; -5 |]; objective = 0 };
  let at_cap =
    { Mcf.num_nodes = 2; arcs = [| arc 0 1 2 1 |]; supply = [| 2; -2 |] }
  in
  expect_raw "f > 0, reduced cost > 0" at_cap
    { status = Optimal; flow = [| 2 |]; potential = [| 0; 5 |]; objective = 2 };
  let p = tied_problem 7 in
  let sol = Simplex.solve p in
  expect_certified "seed 7" p sol;
  (* ring arc 0 -> 1 is uncapacitated, so f < cap; sinking pi(1) makes its
     reduced cost negative *)
  let potential = Array.copy sol.potential in
  potential.(1) <- potential.(1) - 1_000_000;
  expect_raw "perturbed seed 7" p { sol with potential }

let test_canonical_trivial_passthrough () =
  let empty = { Mcf.num_nodes = 0; arcs = [||]; supply = [||] } in
  check int_array "n = 0" [||]
    (Mcf.canonical_potentials empty (Simplex.solve empty));
  let p = { Mcf.num_nodes = 3; arcs = [| arc 0 1 5 1 |]; supply = [| 2; 0; -2 |] } in
  List.iter
    (fun status ->
      let potential = [| 7; -3; 11 |] in
      let sol = { Mcf.status; flow = [| 0 |]; potential; objective = 0 } in
      let out = Mcf.canonical_potentials p sol in
      check int_array (status_str status ^ " passes through") potential out;
      check bool (status_str status ^ " as a copy") false (out == potential))
    [ Mcf.Infeasible; Mcf.Unbounded; Mcf.Aborted ]

(* ---------- Diff_lp ---------- *)

let test_diff_lp_basic () =
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  (* maximize x - y subject to x - y <= 3, y - x <= 1 *)
  Diff_lp.add_le lp x y 3;
  Diff_lp.add_le lp y x 1;
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Solution { values; objective } ->
    check int "objective" 3 objective;
    check int "difference" 3 (values.(x) - values.(y))
  | Infeasible_lp -> Alcotest.fail "infeasible"
  | Unbounded_lp -> Alcotest.fail "unbounded"
  | Aborted_lp -> Alcotest.fail "aborted"

let test_diff_lp_chain () =
  (* chain x0 <= x1 <= x2 (i.e. x_i - x_{i+1} <= 0) with x2 - x0 <= 5;
     maximize (x2 - x0) *)
  let lp = Diff_lp.create () in
  let v = Array.init 3 (fun _ -> Diff_lp.var lp) in
  Diff_lp.add_le lp v.(0) v.(1) 0;
  Diff_lp.add_le lp v.(1) v.(2) 0;
  Diff_lp.add_le lp v.(2) v.(0) 5;
  Diff_lp.add_objective lp v.(2) 1;
  Diff_lp.add_objective lp v.(0) (-1);
  match Diff_lp.solve lp with
  | Solution { objective; values } ->
    check int "objective" 5 objective;
    check int "spread" 5 (values.(2) - values.(0))
  | _ -> Alcotest.fail "expected solution"

let test_diff_lp_infeasible () =
  (* x - y <= -1 and y - x <= -1: negative cycle *)
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  Diff_lp.add_le lp x y (-1);
  Diff_lp.add_le lp y x (-1);
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Infeasible_lp -> ()
  | Solution _ -> Alcotest.fail "expected infeasible, got solution"
  | Unbounded_lp -> Alcotest.fail "expected infeasible, got unbounded"
  | Aborted_lp -> Alcotest.fail "expected infeasible, got aborted"

let test_diff_lp_unbounded () =
  (* maximize x - y with only x - y >= constraint missing: no upper bound *)
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  Diff_lp.add_le lp y x 0;
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Unbounded_lp -> ()
  | Solution _ -> Alcotest.fail "expected unbounded, got solution"
  | Infeasible_lp -> Alcotest.fail "expected unbounded, got infeasible"
  | Aborted_lp -> Alcotest.fail "expected unbounded, got aborted"

(* brute force oracle for tiny LPs: enumerate assignments in [-bound, bound] *)
let brute_force_lp lp nvars bound =
  let best = ref None in
  let values = Array.make nvars 0 in
  let rec enumerate i =
    if i = nvars then begin
      match Diff_lp.check_assignment lp values with
      | Ok obj -> (
        match !best with
        | Some b when b >= obj -> ()
        | _ -> best := Some obj)
      | Error _ -> ()
    end
    else
      for v = -bound to bound do
        values.(i) <- v;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let prop_diff_lp_matches_brute_force =
  QCheck.Test.make ~name:"Diff_lp optimum matches brute force on tiny LPs"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Rng.create ((seed * 6151) + 3) in
      let nvars = 2 + Rng.int rng 3 in
      let lp = Diff_lp.create () in
      let vars = Array.init nvars (fun _ -> Diff_lp.var lp) in
      (* feasible by construction: weights from a random potential plus
         non-negative slack, all small so the optimum is within the box *)
      let phi = Array.init nvars (fun _ -> Rng.int rng 5) in
      let ncons = 2 + Rng.int rng 6 in
      for _ = 1 to ncons do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        if x <> y then
          Diff_lp.add_le lp vars.(x) vars.(y) (phi.(x) - phi.(y) + Rng.int rng 3)
      done;
      (* balanced objective pairs *)
      let x = Rng.int rng nvars and y = Rng.int rng nvars in
      let c = 1 + Rng.int rng 3 in
      Diff_lp.add_objective lp vars.(x) c;
      Diff_lp.add_objective lp vars.(y) (-c);
      match (Diff_lp.solve lp, brute_force_lp lp nvars 8) with
      | Solution { objective; values }, Some best ->
        (* brute force searches a box; the LP optimum can only exceed it if
           unconstrained spread allows, in which case skip *)
        Result.is_ok (Diff_lp.check_assignment lp values) && objective >= best
      | Unbounded_lp, _ -> true (* objective direction unconstrained *)
      | Solution _, None -> false (* solver found a solution, brute force none *)
      | Infeasible_lp, _ -> false (* our construction is always feasible *)
      | Aborted_lp, _ -> false (* no budget is installed here *))

let prop_diff_lp_solvers_agree =
  QCheck.Test.make ~name:"Diff_lp via simplex and via SSP agree" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create ((seed * 523) + 11) in
      let nvars = 2 + Rng.int rng 5 in
      let lp = Diff_lp.create () in
      let vars = Array.init nvars (fun _ -> Diff_lp.var lp) in
      let phi = Array.init nvars (fun _ -> Rng.int rng 7) in
      for _ = 1 to 2 + Rng.int rng 8 do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        if x <> y then
          Diff_lp.add_le lp vars.(x) vars.(y) (phi.(x) - phi.(y) + Rng.int rng 4)
      done;
      for _ = 1 to 1 + Rng.int rng 2 do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        let c = 1 + Rng.int rng 3 in
        Diff_lp.add_objective lp vars.(x) c;
        Diff_lp.add_objective lp vars.(y) (-c)
      done;
      match (Diff_lp.solve ~solver:`Simplex lp, Diff_lp.solve ~solver:`Ssp lp) with
      | Solution a, Solution b -> a.objective = b.objective
      | Unbounded_lp, Unbounded_lp -> true
      | Infeasible_lp, Infeasible_lp -> true
      | _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "flow"
    [ ( "mcf",
        [ tc "parallel arcs" `Quick test_two_parallel_arcs;
          tc "transportation" `Quick test_transportation;
          tc "negative costs" `Quick test_negative_costs;
          tc "negative cycle (finite)" `Quick test_negative_cycle_capacitated;
          tc "unbounded" `Quick test_unbounded;
          tc "infeasible unbalanced" `Quick test_infeasible_unbalanced;
          tc "infeasible capacity" `Quick test_infeasible_capacity;
          tc "disconnected" `Quick test_disconnected_balanced;
          tc "zero supply" `Quick test_zero_supply_optimal_zero;
          tc "feasibility diagnostics" `Quick test_check_feasible_flow_diagnostics;
          tc "self loop" `Quick test_self_loop_arc;
          QCheck_alcotest.to_alcotest prop_solvers_agree;
          QCheck_alcotest.to_alcotest prop_three_solvers_agree;
          tc "differential sweep, 50 fixed seeds" `Quick
            test_differential_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_simplex_certificate ] );
      ( "simplex",
        [ tc "trajectory pin, warm chains" `Quick test_trajectory_pin;
          tc "abort then resume" `Quick test_abort_then_resume;
          tc "state keeps only the basis" `Quick test_state_keeps_only_basis;
          tc "degenerate sizes" `Quick test_degenerate_sizes;
          tc "crash start = cold = SSP, 600 problems" `Quick
            test_crash_matches_cold;
          tc "crash hangs every pair of the D-phase LPs" `Quick
            test_crash_on_displacement_lps;
          tc "candidate list = SSP, 1000 problems" `Quick
            test_pricing_matches_ssp;
          tc "cut seeding = SSP, 300 warm chains" `Quick test_seeding_chains;
          tc "warm re-hang = SSP, 300 sign-flipping chains" `Quick
            test_rehang_chains ]
      );
      ( "canonical",
        [ tc "matches Bellman-Ford, 250 tied problems" `Quick
            test_canonical_matches_reference;
          tc "cold = warm chain = SSP" `Quick test_canonical_solver_independent;
          tc "non-optimal certificate passes through" `Quick
            test_canonical_non_optimal_passthrough;
          tc "n = 0 and non-Optimal pass through" `Quick
            test_canonical_trivial_passthrough ] );
      ( "bellman-ford",
        [ tc "distances" `Quick test_bf_distances;
          tc "unreachable" `Quick test_bf_unreachable;
          tc "negative cycle" `Quick test_bf_negative_cycle ] );
      ( "dinic",
        [ tc "simple" `Quick test_dinic_simple;
          tc "bottleneck" `Quick test_dinic_bottleneck;
          QCheck_alcotest.to_alcotest prop_dinic_matches_mcf_feasibility ] );
      ( "diff_lp",
        [ tc "basic" `Quick test_diff_lp_basic;
          tc "chain" `Quick test_diff_lp_chain;
          tc "infeasible" `Quick test_diff_lp_infeasible;
          tc "unbounded" `Quick test_diff_lp_unbounded;
          QCheck_alcotest.to_alcotest prop_diff_lp_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_diff_lp_solvers_agree ] ) ]
