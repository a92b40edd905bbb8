(* Tests for STA (Eq. 8 invariants) and delay balancing (Theorems 1-2). *)

module Gate = Minflo_netlist.Gate
module Netlist = Minflo_netlist.Netlist
module Gen = Minflo_netlist.Generators
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Sta = Minflo_timing.Sta
module Balance = Minflo_timing.Balance
module Tolerance = Minflo_timing.Tolerance
module Rng = Minflo_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let tech = Tech.default_130nm

let random_model seed =
  let nl = Gen.random_dag ~gates:40 ~inputs:6 ~outputs:5 ~seed () in
  Elmore.of_netlist tech nl

let random_sizes rng model =
  Array.init (DM.num_vertices model) (fun _ ->
      model.DM.min_size +. Rng.float rng 7.0)

(* the ids of the edges leaving [v], ascending *)
let out_edges (model : DM.t) v =
  List.filter (fun e -> model.edge_src.(e) = v) (List.init model.m Fun.id)

(* ---------- STA ---------- *)

let test_sta_paper_example () =
  (* the DAG of figure 3: delays and expected AT/RT/slack triplets *)
  (* vertices: 0..4 with delays 2,2,4,1,3 wired per the figure spirit:
     a small reconvergent DAG with CP = 9.
     chain: 0(d2) -> 1(d2) -> 2(d4) and side 3(d1) -> 2 ; 4(d3) -> 1 *)
  let delays = [| 2.0; 2.0; 4.0; 1.0; 3.0 |] in
  let model =
    DM.make ~n:5
      ~edges:[ (0, 1); (1, 2); (3, 2); (4, 1) ]
      ~a_self:(Array.make 5 0.0)
      ~coeffs:(Array.init 5 (fun _ -> Hashtbl.create 1))
      ~b:(Array.make 5 0.0) ~area_weight:(Array.make 5 1.0)
      ~is_sink:[| false; false; true; false; false |]
      ~block:(Array.init 5 Fun.id) ~labels:(Array.init 5 string_of_int)
      ~min_size:1.0 ~max_size:16.0
  in
  let sta = Sta.analyze model ~delays ~deadline:9.0 in
  check (Alcotest.float 1e-9) "cp" 9.0 sta.critical_path;
  (* worst path: 4(3) -> 1(2) -> 2(4) = 9 *)
  check (Alcotest.float 1e-9) "at 1" 3.0 sta.arrival.(1);
  check (Alcotest.float 1e-9) "at 2" 5.0 sta.arrival.(2);
  check (Alcotest.float 1e-9) "rt 2" 5.0 sta.required.(2);
  check (Alcotest.float 1e-9) "slack 2" 0.0 sta.slack.(2);
  check (Alcotest.float 1e-9) "slack 0" 1.0 sta.slack.(0);
  check bool "safe at 9" true (Tolerance.safe sta);
  let tight = Sta.analyze model ~delays ~deadline:8.0 in
  check bool "unsafe at 8" false (Tolerance.safe tight)

let prop_sta_invariants =
  QCheck.Test.make ~name:"STA: AT/RT/slack invariants on random circuits"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 31) in
      let rng = Rng.create (seed + 77) in
      let x = random_sizes rng model in
      let delays = DM.delays model x in
      let deadline = 1.2 *. Sta.critical_path_only model ~delays in
      let sta = Sta.analyze model ~delays ~deadline in
      let ok = ref true in
      (* AT(j) >= AT(i) + delay(i) along edges, with equality for some
         fanin; RT(i) <= RT(j) - delay(i); edge slack >= min vertex slack *)
      for e = 0 to model.DM.m - 1 do
        let i = model.DM.edge_src.(e) and j = model.DM.edge_dst.(e) in
        if sta.arrival.(j) +. 1e-6 < sta.arrival.(i) +. delays.(i) then ok := false;
        if sta.required.(i) > sta.required.(j) -. delays.(i) +. 1e-6 then ok := false;
        if sta.required.(j) -. sta.arrival.(i) -. delays.(i) < -1e-6 then
          ok := false
      done;
      (* sources have AT = 0 *)
      for v = 0 to model.DM.n - 1 do
        if DM.is_source model v && sta.arrival.(v) <> 0.0 then ok := false
      done;
      (* CP equals the max finish time *)
      let cp = ref 0.0 in
      for v = 0 to model.DM.n - 1 do
        cp := max !cp (sta.arrival.(v) +. delays.(v))
      done;
      if abs_float (!cp -. sta.critical_path) > 1e-6 then ok := false;
      !ok)

let prop_worst_path_realizes_cp =
  QCheck.Test.make ~name:"worst_path sums to the critical path" ~count:60
    QCheck.small_nat (fun seed ->
      let model = random_model (seed + 131) in
      let rng = Rng.create (seed + 7) in
      let x = random_sizes rng model in
      let delays = DM.delays model x in
      let path = Sta.worst_path model ~delays in
      let total = List.fold_left (fun acc i -> acc +. delays.(i)) 0.0 path in
      let cp = Sta.critical_path_only model ~delays in
      abs_float (total -. cp) < 1e-6 *. cp)

(* ---------- balancing ---------- *)

let prop_balance_valid =
  QCheck.Test.make ~name:"ALAP and ASAP balanced configurations check out"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 219) in
      let rng = Rng.create (seed + 5) in
      let x = random_sizes rng model in
      let delays = DM.delays model x in
      let deadline = 1.3 *. Sta.critical_path_only model ~delays in
      List.for_all
        (fun mode ->
          let bal = Balance.balance ~mode model ~delays ~deadline in
          Result.is_ok (Balance.check model ~delays bal))
        [ `Alap; `Asap ])

(* an FSDU displacement [r] (Eq. 9): each edge FSDU becomes
   [fsdu + r(dst) - r(src)]; the virtual endpoints are pinned at 0, so
   source edges gain [r(src)] and sink edges lose [r(sink)] *)
let displace (model : DM.t) (b : Balance.t) r =
  { b with
    potential = Array.mapi (fun i p -> p +. r.(i)) b.potential;
    edge_fsdu =
      Array.mapi
        (fun e f -> f +. r.(model.DM.edge_dst.(e)) -. r.(model.DM.edge_src.(e)))
        b.edge_fsdu;
    source_fsdu =
      Array.mapi
        (fun i f -> if DM.is_source model i then f +. r.(i) else f)
        b.source_fsdu;
    sink_fsdu =
      Array.mapi (fun i f -> if model.DM.is_sink.(i) then f -. r.(i) else f)
        b.sink_fsdu }

let prop_theorem1_displacement =
  QCheck.Test.make
    ~name:"Theorem 1: balanced configurations differ by a displacement"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 411) in
      let rng = Rng.create (seed + 3) in
      let x = random_sizes rng model in
      let delays = DM.delays model x in
      let deadline = 1.25 *. Sta.critical_path_only model ~delays in
      let a = Balance.balance ~mode:`Asap model ~delays ~deadline in
      let b = Balance.balance ~mode:`Alap model ~delays ~deadline in
      let r = Array.map2 ( -. ) b.potential a.potential in
      let moved = displace model a r in
      (* the displaced ASAP configuration must equal the ALAP one *)
      let close u v = abs_float (u -. v) < 1e-6 in
      Array.for_all2 close moved.edge_fsdu b.edge_fsdu
      && Array.for_all2 close moved.source_fsdu b.source_fsdu
      && Array.for_all2 close moved.sink_fsdu b.sink_fsdu
      && Result.is_ok (Balance.check model ~delays moved))

let prop_theorem2_path_invariance =
  QCheck.Test.make
    ~name:"Theorem 2: random displacements preserve total path content"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 613) in
      let rng = Rng.create (seed + 11) in
      let x = random_sizes rng model in
      let delays = DM.delays model x in
      let deadline = 1.3 *. Sta.critical_path_only model ~delays in
      let bal = Balance.balance model ~delays ~deadline in
      (* arbitrary (possibly illegal) displacement *)
      let r =
        Array.init (DM.num_vertices model) (fun _ -> Rng.float rng 100.0 -. 50.0)
      in
      let moved = displace model bal r in
      (* walk a few random source-to-sink paths and compare content *)
      let content (b : Balance.t) path_edges src snk =
        b.source_fsdu.(src) +. b.sink_fsdu.(snk)
        +. List.fold_left
             (fun acc e -> acc +. b.edge_fsdu.(e) +. delays.(model.DM.edge_src.(e)))
             0.0 path_edges
        +. delays.(snk)
      in
      let sources =
        List.filter (DM.is_source model)
          (List.init (DM.num_vertices model) Fun.id)
      in
      let rec random_walk v acc =
        match out_edges model v with
        | [] when model.DM.is_sink.(v) -> Some (List.rev acc, v)
        | _ when model.DM.is_sink.(v) && Rng.bool rng -> Some (List.rev acc, v)
        | [] -> None
        | edges ->
          let e = List.nth edges (Rng.int rng (List.length edges)) in
          random_walk model.DM.edge_dst.(e) (e :: acc)
      in
      let ok = ref true in
      List.iter
        (fun src ->
          match random_walk src [] with
          | None -> ()
          | Some (edges, snk) ->
            let c0 = content bal edges src snk in
            let c1 = content moved edges src snk in
            if abs_float (c0 -. c1) > 1e-6 then ok := false;
            (* and the balanced content equals the deadline *)
            if abs_float (c0 -. bal.deadline) > 1e-6 then ok := false)
        sources;
      !ok)

(* ---------- incremental STA ---------- *)

module Inc = Minflo_timing.Incremental

let prop_incremental_matches_batch =
  QCheck.Test.make
    ~name:"incremental engine tracks the batch STA under random mutations"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 901) in
      let rng = Rng.create (seed + 13) in
      let n = DM.num_vertices model in
      let x0 = Array.make n 1.0 in
      let eng = Inc.create model ~sizes:x0 in
      let ok = ref true in
      for _ = 1 to 25 do
        let i = Rng.int rng n in
        let nx = 1.0 +. Rng.float rng 9.0 in
        Inc.set_size eng i nx;
        (* compare against a from-scratch computation *)
        let x = Inc.sizes eng in
        let delays = DM.delays model x in
        let at = Sta.arrivals model ~delays in
        for v = 0 to n - 1 do
          if abs_float (Inc.arrival eng v -. at.(v)) > 1e-6 *. (1.0 +. at.(v)) then
            ok := false;
          if abs_float (Inc.delay eng v -. delays.(v)) > 1e-6 *. (1.0 +. delays.(v))
          then ok := false
        done;
        let cp = Sta.critical_path_only model ~delays in
        if abs_float (Inc.critical_path eng -. cp) > 1e-6 *. (1.0 +. cp) then
          ok := false
      done;
      !ok)

let prop_incremental_critical_set_matches =
  QCheck.Test.make
    ~name:"incremental critical set equals the batch minimum-slack set"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 1901) in
      let rng = Rng.create (seed + 29) in
      let n = DM.num_vertices model in
      let x = Array.init n (fun _ -> 1.0 +. Rng.float rng 5.0) in
      let eng = Inc.create model ~sizes:x in
      let delays = DM.delays model x in
      let sta = Sta.analyze model ~delays ~deadline:(2.0 *. Inc.critical_path eng) in
      (* the batch reference: every vertex within eps of the worst slack *)
      let batch =
        let eps = Tolerance.critical_rel *. sta.critical_path in
        let worst = Array.fold_left min infinity sta.slack in
        List.filter
          (fun i -> sta.slack.(i) <= worst +. eps)
          (List.init n Fun.id)
      in
      let len = Inc.critical_set ~eps_rel:Tolerance.critical_rel eng in
      let inc = List.sort compare (List.init len (Inc.critical_vertex eng)) in
      batch = inc)

let test_incremental_shrink_and_grow () =
  let model = random_model 4242 in
  let n = DM.num_vertices model in
  let eng = Inc.create model ~sizes:(Array.make n 1.0) in
  let cp0 = Inc.critical_path eng in
  (* growing a critical vertex reduces (or keeps) the critical path *)
  (match Inc.critical_set eng with
  | 0 -> Alcotest.fail "empty critical set"
  | _ ->
    let v = Inc.critical_vertex eng 0 in
    Inc.set_size eng v 8.0;
    check bool "tracked" true (Inc.size eng v = 8.0);
    Inc.set_size eng v 1.0;
    let cp1 = Inc.critical_path eng in
    check bool "restores" true (abs_float (cp1 -. cp0) < 1e-6 *. cp0))

let test_balance_unsafe_rejected () =
  let model = random_model 99 in
  let x = DM.uniform_sizes model 1.0 in
  let delays = DM.delays model x in
  let cp = Sta.critical_path_only model ~delays in
  match Balance.balance model ~delays ~deadline:(0.5 *. cp) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of unsafe circuit"

(* ---------- the tolerance contract ---------- *)

(* Each predicate is probed one float step either side of its threshold at
   the gate scale (1), a wide scale (1e3) and the transistor scale (1e6),
   where delays reach 1e5-1e7. The thresholds below spell today's values,
   so a change to the contract shows up here as a deliberate edit. *)
let magnitudes = [ 1.0; 1e3; 1e6 ]

let probe what pred cases =
  List.iter
    (fun (where, v, expect) ->
      check bool (Printf.sprintf "%s %s (%.17g)" what where v) expect (pred v))
    cases

let test_tolerance_meets () =
  List.iter
    (fun target ->
      let edge = target *. (1.0 +. 1e-9) in
      probe
        (Printf.sprintf "meets ~target:%g" target)
        (Tolerance.meets ~target)
        [ ("target", target, true);
          ("edge", edge, true);
          ("below edge", Float.pred edge, true);
          ("above edge", Float.succ edge, false) ])
    magnitudes

(* a one-vertex analysis whose only slack is [s] *)
let sta_with_slack ~deadline s =
  { Sta.arrival = [| 0.0 |];
    required = [| s |];
    slack = [| s |];
    critical_path = deadline -. s;
    deadline }

let slack_cases =
  [ ("zero slack", 0.0, true);
    ("edge", -1e-6, true);
    ("inside edge", Float.succ (-1e-6), true);
    ("outside edge", Float.pred (-1e-6), false) ]

let test_tolerance_safe () =
  List.iter
    (fun deadline ->
      probe
        (Printf.sprintf "safe at deadline %g" deadline)
        (fun s -> Tolerance.safe (sta_with_slack ~deadline s))
        slack_cases)
    magnitudes;
  probe "non_negative" Tolerance.non_negative slack_cases

(* the transistor defect, pinned: at gate scale a path 2e-6 late fails
   both tests, but at a deadline of 1e6 it meets the target and still reads
   unsafe, so the D-phase refuses a sizing the engine accepted. Making
   [safe] relative to the deadline flips the last check. *)
let test_tolerance_transistor_disagreement () =
  let late = 2e-6 in
  let verdicts deadline =
    ( Tolerance.meets ~target:deadline (deadline +. late),
      Tolerance.safe (sta_with_slack ~deadline (-.late)) )
  in
  check (Alcotest.pair bool bool) "gate scale: late and unsafe" (false, false)
    (verdicts 1.0);
  check (Alcotest.pair bool bool) "transistor scale: met yet unsafe"
    (true, false) (verdicts 1e6)

let box_model lo =
  DM.make ~n:1 ~edges:[] ~a_self:[| 0.0 |]
    ~coeffs:[| Hashtbl.create 1 |]
    ~b:[| 1.0 |] ~area_weight:[| 1.0 |] ~is_sink:[| true |] ~block:[| 0 |]
    ~labels:[| "g" |] ~min_size:lo ~max_size:(4.0 *. lo)

let test_tolerance_in_box () =
  List.iter
    (fun lo ->
      let model = box_model lo in
      let lo_edge = lo -. 1e-9 and hi_edge = (4.0 *. lo) +. 1e-9 in
      probe
        (Printf.sprintf "in_box [%g, %g]" lo (4.0 *. lo))
        (Tolerance.in_box model)
        [ ("min edge", lo_edge, true);
          ("inside min edge", Float.succ lo_edge, true);
          ("outside min edge", Float.pred lo_edge, false);
          ("max edge", hi_edge, true);
          ("inside max edge", Float.pred hi_edge, true);
          ("outside max edge", Float.succ hi_edge, false);
          ("nan", Float.nan, false);
          ("infinity", Float.infinity, false) ])
    magnitudes

let test_tolerance_budget_met () =
  List.iter
    (fun budget ->
      let edge = budget +. 1e-6 +. (1e-9 *. budget) in
      probe
        (Printf.sprintf "budget_met ~budget:%g" budget)
        (Tolerance.budget_met ~budget)
        [ ("budget", budget, true);
          ("edge", edge, true);
          ("below edge", Float.pred edge, true);
          ("above edge", Float.succ edge, false) ])
    magnitudes

let test_tolerance_critical_rel () =
  check (Alcotest.float 0.0) "critical_rel" 1e-7 Tolerance.critical_rel

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "timing"
    [ ( "sta",
        [ tc "figure 3 example" `Quick test_sta_paper_example;
          QCheck_alcotest.to_alcotest prop_sta_invariants;
          QCheck_alcotest.to_alcotest prop_worst_path_realizes_cp ] );
      ( "incremental",
        [ QCheck_alcotest.to_alcotest prop_incremental_matches_batch;
          QCheck_alcotest.to_alcotest prop_incremental_critical_set_matches;
          tc "shrink and grow" `Quick test_incremental_shrink_and_grow ] );
      ( "balance",
        [ QCheck_alcotest.to_alcotest prop_balance_valid;
          QCheck_alcotest.to_alcotest prop_theorem1_displacement;
          QCheck_alcotest.to_alcotest prop_theorem2_path_invariance;
          tc "unsafe rejected" `Quick test_balance_unsafe_rejected ] );
      ( "tolerance",
        [ tc "meets" `Quick test_tolerance_meets;
          tc "safe" `Quick test_tolerance_safe;
          tc "transistor-scale disagreement" `Quick
            test_tolerance_transistor_disagreement;
          tc "in_box" `Quick test_tolerance_in_box;
          tc "budget_met" `Quick test_tolerance_budget_met;
          tc "critical_rel" `Quick test_tolerance_critical_rel ] ) ]
