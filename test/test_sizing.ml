(* Tests for the sizing engines: TILOS, W-phase minimality, D-phase
   feasibility/optimality structure, and the full MINFLOTRANSIT loop. *)

module Gen = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Tilos = Minflo_sizing.Tilos
module Wphase = Minflo_sizing.Wphase
module Dphase = Minflo_sizing.Dphase
module Sensitivity = Minflo_sizing.Sensitivity
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Rng = Minflo_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let tech = Tech.default_130nm

let model_of nl = Elmore.of_netlist tech nl

let random_model seed =
  model_of (Gen.random_dag ~gates:35 ~inputs:6 ~outputs:4 ~seed ())

(* ---------- TILOS ---------- *)

let test_tilos_meets_target () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let r = Tilos.size model ~target:(0.6 *. d0) in
  check bool "met" true r.met;
  check bool "cp within target" true
    (Tolerance.meets ~target:(0.6 *. d0) r.final_cp);
  check bool "bumped something" true (r.bumps > 0);
  check bool "sizes within bounds" true (Result.is_ok (DM.check_sizes model r.sizes))

let test_tilos_trivial_target () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let r = Tilos.size model ~target:(2.0 *. d0) in
  check bool "met with no bumps" true (r.met && r.bumps = 0);
  check (Alcotest.float 1e-9) "area is minimal" (Sweep.min_area model) r.area

let test_tilos_impossible_target () =
  let model = model_of (Gen.c17 ()) in
  let r = Tilos.size model ~target:1.0 in
  check bool "not met" false r.met

let prop_tilos_monotone_area =
  QCheck.Test.make ~name:"TILOS: tighter targets cost no less area" ~count:20
    QCheck.small_nat (fun seed ->
      let model = random_model (seed + 41) in
      let d0 = Sweep.dmin model in
      let loose = Tilos.size model ~target:(0.8 *. d0) in
      let tight = Tilos.size model ~target:(0.6 *. d0) in
      (not (loose.met && tight.met)) || tight.area >= loose.area -. 1e-9)

(* The TILOS loop as it ran before sensitivities were cached: every bump
   walks the critical set with the recursive reference traversal, rescans
   each critical vertex's fanins for its critical fanin and recomputes
   every sensitivity, through the public engine API only — never the
   engine's certified buffer or its touched log. The cached [Tilos.size]
   must retrace it bump for bump. *)
let reference_tilos ?(bump = 1.1) (model : DM.t) ~target =
  let module Inc = Minflo_timing.Incremental in
  let sensitivity eng i =
    let old_xi = Inc.size eng i in
    let new_xi = min (old_xi *. bump) model.max_size in
    if new_xi <= old_xi then neg_infinity
    else begin
      let d_new =
        let acc = ref model.b.(i) in
        for c = model.coeff_off.(i) to model.coeff_off.(i + 1) - 1 do
          acc := !acc +. (model.coeff_a.(c) *. Inc.size eng model.coeff_j.(c))
        done;
        model.a_self.(i) +. (!acc /. new_xi)
      in
      let own_gain = Inc.delay eng i -. d_new in
      let best = ref (-1) and best_f = ref neg_infinity in
      for c = model.fanin_off.(i) to model.fanin_off.(i + 1) - 1 do
        let k = model.fanin.(c) in
        let f = Inc.finish eng k in
        if f > !best_f then begin
          best_f := f;
          best := k
        end
      done;
      let fanin_penalty =
        if !best < 0 then 0.0
        else begin
          let k = !best in
          let a_ki = ref 0.0 in
          for c = model.coeff_off.(k) to model.coeff_off.(k + 1) - 1 do
            if model.coeff_j.(c) = i then a_ki := !a_ki +. model.coeff_a.(c)
          done;
          !a_ki *. (new_xi -. old_xi) /. Inc.size eng k
        end
      in
      (own_gain -. fanin_penalty) /. (model.area_weight.(i) *. (new_xi -. old_xi))
    end
  in
  let eng = Inc.create model ~sizes:(DM.uniform_sizes model model.min_size) in
  let bumps = ref 0 and finished = ref false in
  while not !finished do
    if Inc.critical_path eng <= target then finished := true
    else begin
      let crit =
        Critical_reference.critical_set ~eps_rel:Tolerance.critical_rel model
          eng
      in
      let best = ref (-1) and best_s = ref 0.0 in
      List.iter
        (fun i ->
          let s = sensitivity eng i in
          if s > !best_s then begin
            best_s := s;
            best := i
          end)
        crit;
      if !best < 0 then begin
        let best_v = ref (Inc.total_violation eng ~target) in
        List.iter
          (fun i ->
            let old_xi = Inc.size eng i in
            let new_xi = min (old_xi *. bump) model.max_size in
            if new_xi > old_xi then begin
              Inc.set_size eng i new_xi;
              let v = Inc.total_violation eng ~target in
              Inc.set_size eng i old_xi;
              if v < !best_v -. 1e-9 then begin
                best_v := v;
                best := i
              end
            end)
          crit
      end;
      if !best < 0 then finished := true
      else begin
        Inc.set_size eng !best (min (Inc.size eng !best *. bump) model.max_size);
        incr bumps
      end
    end
  done;
  (!bumps, Inc.sizes eng)

let hex_sizes x = Array.to_list (Array.map (Printf.sprintf "%h") x)

let test_tilos_matches_uncached_loop () =
  let same what model ~target =
    let r = Tilos.size model ~target in
    let bumps, sizes = reference_tilos model ~target in
    check Alcotest.int (what ^ " bumps") bumps r.bumps;
    check (Alcotest.list Alcotest.string) (what ^ " sizes") (hex_sizes sizes)
      (hex_sizes r.sizes)
  in
  for seed = 0 to 49 do
    let model =
      model_of
        (Gen.random_dag ~gates:(20 + (seed mod 40)) ~inputs:5 ~outputs:4
           ~seed:(seed + 7100) ())
    in
    let rng = Rng.create (seed + 31) in
    let target = (0.35 +. Rng.float rng 0.6) *. Sweep.dmin model in
    same (Printf.sprintf "seed %d" seed) model ~target
  done;
  (* ripple adders: the critical set persists across most bumps, so the
     engine reuses its buffer and TILOS picks from its tree, and the
     identical cells tie sensitivities everywhere *)
  List.iter
    (fun bits ->
      let model = model_of (Gen.ripple_carry_adder ~bits ()) in
      same (Printf.sprintf "rca%d" bits) model
        ~target:(0.6 *. Sweep.dmin model))
    [ 8; 16; 32 ]

(* bump counts and exact areas at 0.6 Dmin, as the uncached loop produced
   them *)
let test_tilos_pins () =
  List.iter
    (fun (name, build, bumps, area) ->
      let model = build () in
      let r = Tilos.size model ~target:(0.6 *. Sweep.dmin model) in
      check Alcotest.int (name ^ " bumps") bumps r.bumps;
      check Alcotest.string (name ^ " area") area (Printf.sprintf "%h" r.area))
    [ ( "c432",
        (fun () -> model_of (Iscas85.circuit "c432")),
        317,
        "0x1.3aa29d1a56b7p+10" );
      ( "c6288",
        (fun () -> model_of (Iscas85.circuit "c6288")),
        11170,
        "0x1.00b372d0ce29fp+14" );
      ( "rca64",
        (fun () -> model_of (Gen.ripple_carry_adder ~bits:64 ())),
        948,
        "0x1.757858bae1af1p+11" );
      ( "c432-transistor",
        (fun () ->
          Transistor.of_netlist tech
            (Transform.to_nand_inv (Iscas85.circuit "c432"))),
        1666,
        "0x1.e0141d2e3537cp+10" ) ]

(* ---------- W-phase ---------- *)

let prop_wphase_meets_budgets =
  QCheck.Test.make ~name:"W-phase sizes satisfy every delay budget" ~count:60
    QCheck.small_nat (fun seed ->
      let model = random_model (seed + 301) in
      let rng = Rng.create (seed + 1) in
      (* budgets: delays of a random feasible sizing, slightly relaxed *)
      let x0 =
        Array.init (DM.num_vertices model) (fun _ -> 1.0 +. Rng.float rng 4.0)
      in
      let budgets = Array.map (fun d -> d *. 1.05) (DM.delays model x0) in
      match Wphase.solve model ~budgets with
      | Error _ -> false
      | Ok w ->
        w.feasible
        && Array.for_all2
             (fun d budget -> d <= budget +. 1e-6 *. budget)
             (DM.delays model w.sizes) budgets)

let prop_wphase_minimal =
  QCheck.Test.make
    ~name:"W-phase least fixpoint is pointwise below any feasible sizing"
    ~count:60 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 3001) in
      let rng = Rng.create (seed + 2) in
      let x0 =
        Array.init (DM.num_vertices model) (fun _ -> 1.0 +. Rng.float rng 6.0)
      in
      let budgets = DM.delays model x0 in
      match Wphase.solve model ~budgets with
      | Error _ -> true (* some random budget fell below intrinsic: skip *)
      | Ok w ->
        (* x0 is feasible for its own delays, so the LFP is <= x0 *)
        Array.for_all2 (fun xw x -> xw <= x +. 1e-6) w.sizes x0)

let test_wphase_rejects_impossible_budget () =
  let model = model_of (Gen.c17 ()) in
  let budgets = Array.make (DM.num_vertices model) 1e-9 in
  check bool "error" true (Result.is_error (Wphase.solve model ~budgets))

(* ---------- sensitivity ---------- *)

let prop_sensitivity_positive =
  QCheck.Test.make ~name:"sensitivity weights are strictly positive" ~count:40
    QCheck.small_nat (fun seed ->
      let model = random_model (seed + 87) in
      let rng = Rng.create (seed + 3) in
      let x = Array.init (DM.num_vertices model) (fun _ -> 1.0 +. Rng.float rng 3.0) in
      let delays = DM.delays model x in
      let w = Sensitivity.weights model ~sizes:x ~delays in
      Array.for_all (fun c -> c > 0.0) w)

let prop_sensitivity_predicts_area_direction =
  QCheck.Test.make
    ~name:"first-order model: relaxing one budget shrinks the W-phase area"
    ~count:30 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 57) in
      let rng = Rng.create (seed + 4) in
      let x = Array.init (DM.num_vertices model) (fun _ -> 2.0 +. Rng.float rng 3.0) in
      let budgets = DM.delays model x in
      match Wphase.solve model ~budgets with
      | Error _ -> true
      | Ok base ->
        let i = Rng.int rng (DM.num_vertices model) in
        let relaxed = Array.copy budgets in
        relaxed.(i) <- relaxed.(i) *. 1.10;
        (match Wphase.solve model ~budgets:relaxed with
        | Error _ -> true
        | Ok better ->
          (* relaxing a budget can only reduce the minimal area *)
          DM.area model better.sizes <= DM.area model base.sizes +. 1e-6))

(* ---------- D-phase ---------- *)

let dphase_setup seed =
  let model = random_model (seed + 761) in
  let d0 = Sweep.dmin model in
  let target = 0.7 *. d0 in
  let t = Tilos.size model ~target in
  if t.met then Some (model, target, t) else None

let prop_dphase_budgets_feasible =
  QCheck.Test.make
    ~name:"D-phase budgets keep every full path within the deadline"
    ~count:40 QCheck.small_nat (fun seed ->
      match dphase_setup seed with
      | None -> true
      | Some (model, target, t) -> (
        let delays = DM.delays model t.sizes in
        match Dphase.solve model ~sizes:t.sizes ~delays ~deadline:target with
        | Error _ -> false
        | Ok d ->
          (* treating budgets as vertex delays, the longest path must fit *)
          Tolerance.meets ~target
            (Sta.critical_path_only model ~delays:d.budgets)))

let prop_dphase_nonnegative_objective =
  QCheck.Test.make
    ~name:"D-phase predicted gain is non-negative (r = 0 is feasible)"
    ~count:40 QCheck.small_nat (fun seed ->
      match dphase_setup (seed + 1000) with
      | None -> true
      | Some (model, target, t) -> (
        let delays = DM.delays model t.sizes in
        match Dphase.solve model ~sizes:t.sizes ~delays ~deadline:target with
        | Error _ -> false
        | Ok d -> d.objective >= -1e-6))

let prop_dphase_solver_agreement =
  QCheck.Test.make ~name:"D-phase via simplex and SSP agree on the objective"
    ~count:15 QCheck.small_nat (fun seed ->
      match dphase_setup (seed + 2000) with
      | None -> true
      | Some (model, target, t) -> (
        let delays = DM.delays model t.sizes in
        let run solver =
          Dphase.solve
            ~options:{ Dphase.default_options with solver }
            model ~sizes:t.sizes ~delays ~deadline:target
        in
        match (run `Simplex, run `Ssp) with
        | Ok a, Ok b -> a.lp_objective = b.lp_objective
        | _ -> false))

(* The displacement LP at fixed sizes, digested in arc order: FNV-1a over
   the node count, every arc's endpoints, capacity and cost, then the
   supplies. A change to the builder that reorders arcs or moves a supply
   fails here instead of only on the ISCAS grid. *)
let displacement_digest model =
  let sizes =
    Array.init (DM.num_vertices model) (fun i ->
        Float.min model.DM.max_size
          (model.DM.min_size +. (0.5 *. float_of_int (i mod 5))))
  in
  let delays = DM.delays model sizes in
  let deadline = 1.05 *. Sta.critical_path_only model ~delays in
  match Dphase.displacement_problem model ~sizes ~delays ~deadline with
  | Error e -> Alcotest.fail (Minflo_robust.Diag.to_string e)
  | Ok p ->
    let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) 0x100000001b3L in
    let h = mix 0xcbf29ce484222325L p.num_nodes in
    let h =
      Array.fold_left
        (fun h (a : Minflo_flow.Mcf.arc) ->
          mix (mix (mix (mix h a.src) a.dst) a.cap) a.cost)
        h p.arcs
    in
    Printf.sprintf "%016Lx" (Array.fold_left mix h p.supply)

let test_displacement_problem_pin () =
  List.iter
    (fun (name, build, expect) ->
      check Alcotest.string (name ^ " LP digest") expect
        (displacement_digest (build ())))
    [ ("c432", (fun () -> model_of (Iscas85.circuit "c432")), "aa1463f877116268");
      ( "c432-transistor",
        (fun () ->
          Transistor.of_netlist tech
            (Transform.to_nand_inv (Iscas85.circuit "c432"))),
        "9f74a62804a7501f" ) ]

(* ---------- MINFLOTRANSIT ---------- *)

let prop_minflo_improves_and_meets =
  QCheck.Test.make
    ~name:"MINFLOTRANSIT never exceeds the target and never beats TILOS on \
           area upward"
    ~count:25 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 5001) in
      let d0 = Sweep.dmin model in
      let r = Minflotransit.optimize model ~target:(0.65 *. d0) in
      if not r.met then r.iterations = 0
      else
        r.cp <= 0.65 *. d0 *. (1.0 +. 1e-6)
        && r.area <= r.tilos.area +. 1e-9
        && Result.is_ok (DM.check_sizes model r.sizes))

let prop_minflo_area_trace_monotone =
  QCheck.Test.make ~name:"accepted iterations decrease area monotonically"
    ~count:20 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 6001) in
      let d0 = Sweep.dmin model in
      let r = Minflotransit.optimize model ~target:(0.7 *. d0) in
      let rec decreasing : Minflotransit.iteration list -> bool = function
        | a :: (b :: _ as rest) -> a.area >= b.area -. 1e-9 && decreasing rest
        | _ -> true
      in
      decreasing r.trace)

let test_minflo_c17_saves_area () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let r = Minflotransit.optimize model ~target:(0.5 *. d0) in
  check bool "met" true r.met;
  check bool "saves area" true (r.area_saving_pct > 0.0)

let test_minflo_figure6_intuition () =
  (* the paper's qualitative example: A drives both B and C; both paths are
     critical. The optimizer should exploit the shared driver A. *)
  let nl = Minflo_netlist.Netlist.create ~name:"fig6" () in
  let i = Minflo_netlist.Netlist.add_input nl "i" in
  let a = Minflo_netlist.Netlist.add_gate nl "A" Minflo_netlist.Gate.Not [ i ] in
  let b = Minflo_netlist.Netlist.add_gate nl "B" Minflo_netlist.Gate.Not [ a ] in
  let c = Minflo_netlist.Netlist.add_gate nl "C" Minflo_netlist.Gate.Not [ a ] in
  Minflo_netlist.Netlist.mark_output nl b;
  Minflo_netlist.Netlist.mark_output nl c;
  Minflo_netlist.Netlist.validate nl;
  let model = model_of nl in
  let d0 = Sweep.dmin model in
  let r = Minflotransit.optimize model ~target:(0.55 *. d0) in
  check bool "met" true r.met;
  check bool "improves on TILOS" true (r.area < r.tilos.area +. 1e-9)

let test_minflo_transistor_level () =
  (* true transistor sizing end-to-end on c17 *)
  let model = Transistor.of_netlist tech (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let r = Minflotransit.optimize model ~target:(0.6 *. d0) in
  check bool "met" true r.met;
  check bool "area no worse than TILOS" true (r.area <= r.tilos.area +. 1e-9)

let test_minflo_wire_sizing () =
  (* simultaneous gate + wire sizing end-to-end (Section 2.1) *)
  let model = Elmore.with_wires tech (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let r = Minflotransit.optimize model ~target:(0.6 *. d0) in
  check bool "met" true r.met;
  check bool "no worse than TILOS" true (r.area <= r.tilos.area +. 1e-9)

let test_refine_equals_optimize_tail () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let target = 0.6 *. d0 in
  let t = Tilos.size model ~target in
  let r = Minflotransit.refine_from model ~target ~init:t.sizes ~tilos:t in
  check bool "met" true r.met;
  check bool "no worse" true (r.area <= t.area +. 1e-9);
  let o = Minflotransit.optimize model ~target in
  check (Alcotest.float 0.0) "same area as optimize" o.area r.area;
  check Alcotest.int "same iterations as optimize" o.iterations r.iterations

(* The default engine reuses the simplex basis across D-phases, and its
   canonical duals put it on the cold raw-dual trajectory: the same area
   and iteration count on each of these Table 1 rows at its delay spec. *)
let test_default_engine_is_warm_and_matches_cold () =
  let cold =
    { Minflotransit.default_options with
      warm_start = false;
      canonical_duals = false }
  in
  List.iter
    (fun name ->
      let info = List.find (fun i -> i.Iscas85.name = name) Iscas85.suite in
      let model = model_of (Iscas85.circuit name) in
      let target = info.delay_spec *. Sweep.dmin model in
      let before = Minflo_robust.Perf.snapshot () in
      let w = Minflotransit.optimize model ~target in
      let perf =
        Minflo_robust.Perf.diff before (Minflo_robust.Perf.snapshot ())
      in
      if name = "c432" then
        check bool "c432: the default reuses a basis" true (perf.warm_starts > 0);
      let c = Minflotransit.optimize ~options:cold model ~target in
      check Alcotest.string (name ^ " area")
        (Printf.sprintf "%.9f" c.area)
        (Printf.sprintf "%.9f" w.area);
      check Alcotest.int (name ^ " iterations") c.iterations w.iterations)
    [ "c432"; "c499"; "c880"; "c1908" ]

(* ---------- optimality probe ---------- *)

let test_optimality_probe_converged () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let target = 0.5 *. d0 in
  let r = Minflotransit.optimize model ~target in
  check bool "met" true r.met;
  let p =
    Minflo_sizing.Optimality.probe ~trials:120 ~seed:5 model ~target ~sizes:r.sizes
  in
  (* Theorem 3: a converged solution admits (essentially) no improving
     perturbation *)
  check bool "no significant improvement" true (p.best_gain_pct < 0.2)

let prop_probe_never_breaks_timing =
  QCheck.Test.make
    ~name:"every improvement found by the probe still meets the deadline"
    ~count:10 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 9001) in
      let d0 = Sweep.dmin model in
      let target = 0.7 *. d0 in
      let t = Tilos.size model ~target in
      if not t.met then true
      else begin
        let p =
          Minflo_sizing.Optimality.probe ~trials:40 ~seed model ~target
            ~sizes:t.sizes
        in
        match p.best_sizes with
        | None -> true
        | Some x ->
          Sta.critical_path_only model ~delays:(DM.delays model x)
          <= target *. (1.0 +. 1e-6)
      end)

(* ---------- Lagrangian baseline ---------- *)

let test_lagrangian_feasible_and_no_worse () =
  let model = model_of (Gen.c17 ()) in
  let d0 = Sweep.dmin model in
  let target = 0.5 *. d0 in
  let tilos = Tilos.size model ~target in
  let lr = Minflo_sizing.Lagrangian.size model ~target in
  check bool "met" true lr.met;
  check bool "cp within target" true (Tolerance.meets ~target lr.cp);
  check bool "never worse than the TILOS seed" true (lr.area <= tilos.area +. 1e-9);
  check bool "sizes in bounds" true (Result.is_ok (DM.check_sizes model lr.sizes))

let test_lagrangian_beats_tilos_on_c432 () =
  let model = model_of (Iscas85.circuit "c432") in
  let target = 0.4 *. Sweep.dmin model in
  let tilos = Tilos.size model ~target in
  let lr =
    Minflo_sizing.Lagrangian.size
      ~options:{ Minflo_sizing.Lagrangian.default_options with iterations = 20 }
      model ~target
  in
  check bool "lr met" true lr.met;
  check bool "strictly better than TILOS" true (lr.area < tilos.area)

let prop_lagrangian_always_feasible =
  QCheck.Test.make ~name:"Lagrangian results always respect the deadline"
    ~count:10 QCheck.small_nat (fun seed ->
      let model = random_model (seed + 7001) in
      let d0 = Sweep.dmin model in
      let target = 0.6 *. d0 in
      let lr =
        Minflo_sizing.Lagrangian.size
          ~options:{ Minflo_sizing.Lagrangian.default_options with iterations = 5 }
          model ~target
      in
      (not lr.met) || lr.cp <= target *. (1.0 +. 1e-6))

(* ---------- sweep ---------- *)

let test_sweep_curve_monotone () =
  let model = model_of (Gen.ripple_carry_adder ~bits:4 ()) in
  let points = Sweep.curve model ~factors:[ 0.5; 0.7; 0.9 ] in
  let ratios =
    List.filter_map
      (fun (p : Sweep.point) ->
        if p.tilos_met then Some p.minflo_area_ratio else None)
      points
  in
  check bool "all met" true (List.length ratios = 3);
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  check bool "looser target, smaller area" true (non_increasing ratios);
  check bool "minflo <= tilos pointwise" true
    (List.for_all
       (fun (p : Sweep.point) ->
         (not p.tilos_met) || p.minflo_area_ratio <= p.tilos_area_ratio +. 1e-9)
       points)

let test_iscas_row_shape () =
  (* one real Table 1 row end-to-end (small circuit to stay fast) *)
  let model = model_of (Iscas85.circuit "c432") in
  let p = Sweep.at_factor model ~factor:0.4 in
  check bool "tilos met" true p.tilos_met;
  check bool "minflo met" true p.minflo_met;
  check bool "positive saving" true (p.saving_pct > 0.0);
  check bool "few tens of iterations" true (p.iterations <= 100)

let test_table1_factor () =
  (* c432's spec already puts TILOS above the band and is kept; c880's
     barely stresses it, so the rule tightens twice by 7 % *)
  let factor name =
    Sweep.table1_factor (model_of (Iscas85.circuit name)) ~spec:0.4
  in
  check (Alcotest.float 0.0) "c432 keeps its spec" 0.4 (factor "c432");
  check (Alcotest.float 0.0) "c880 tightens twice" (0.4 *. 0.93 *. 0.93)
    (factor "c880")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sizing"
    [ ( "tilos",
        [ tc "meets target" `Quick test_tilos_meets_target;
          tc "trivial target" `Quick test_tilos_trivial_target;
          tc "impossible target" `Quick test_tilos_impossible_target;
          QCheck_alcotest.to_alcotest prop_tilos_monotone_area;
          tc "cached equals uncached loop" `Quick test_tilos_matches_uncached_loop;
          tc "bump and area pins" `Quick test_tilos_pins ] );
      ( "wphase",
        [ QCheck_alcotest.to_alcotest prop_wphase_meets_budgets;
          QCheck_alcotest.to_alcotest prop_wphase_minimal;
          tc "impossible budget" `Quick test_wphase_rejects_impossible_budget ] );
      ( "sensitivity",
        [ QCheck_alcotest.to_alcotest prop_sensitivity_positive;
          QCheck_alcotest.to_alcotest prop_sensitivity_predicts_area_direction ] );
      ( "dphase",
        [ QCheck_alcotest.to_alcotest prop_dphase_budgets_feasible;
          QCheck_alcotest.to_alcotest prop_dphase_nonnegative_objective;
          QCheck_alcotest.to_alcotest prop_dphase_solver_agreement;
          tc "displacement LP pin, c432" `Quick test_displacement_problem_pin ] );
      ( "minflotransit",
        [ QCheck_alcotest.to_alcotest prop_minflo_improves_and_meets;
          QCheck_alcotest.to_alcotest prop_minflo_area_trace_monotone;
          tc "c17 saves area" `Quick test_minflo_c17_saves_area;
          tc "figure 6 intuition" `Quick test_minflo_figure6_intuition;
          tc "transistor level" `Slow test_minflo_transistor_level;
          tc "wire sizing" `Quick test_minflo_wire_sizing;
          tc "refine" `Quick test_refine_equals_optimize_tail;
          tc "default engine is warm, = cold raw duals" `Quick
            test_default_engine_is_warm_and_matches_cold ] );
      ( "optimality",
        [ tc "converged solution stable" `Quick test_optimality_probe_converged;
          QCheck_alcotest.to_alcotest prop_probe_never_breaks_timing ] );
      ( "lagrangian",
        [ tc "feasible, no worse" `Quick test_lagrangian_feasible_and_no_worse;
          tc "beats TILOS on c432" `Slow test_lagrangian_beats_tilos_on_c432;
          QCheck_alcotest.to_alcotest prop_lagrangian_always_feasible ] );
      ( "sweep",
        [ tc "curve monotone" `Slow test_sweep_curve_monotone;
          tc "table row shape" `Slow test_iscas_row_shape;
          tc "table1 row selection" `Quick test_table1_factor ] ) ]
