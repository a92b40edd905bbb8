(* Tests for the pre-solve interval bound analysis (MF201-MF204): box
   soundness of the per-vertex and circuit-delay intervals against
   brute-force delay evaluation, validity of the MF201 witness path,
   agreement between the static infeasibility verdict and the engine, the
   pinned/irrelevant gate sets, and the MF204 technology probe. *)

module Gen = Minflo_netlist.Generators
module Tech = Minflo_tech.Tech
module Elmore = Minflo_tech.Elmore
module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Sweep = Minflo_sizing.Sweep
module Minflotransit = Minflo_sizing.Minflotransit
module Bounds = Minflo_lint.Bounds
module Finding = Minflo_lint.Finding
module Rule = Minflo_lint.Rule
module Rng = Minflo_util.Rng
module Gen_mut = Minflo_fuzz.Gen_mut
module Diag = Minflo_robust.Diag

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let model_of nl = Elmore.of_netlist Tech.default_130nm nl

let count id findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.rule.Rule.id = id) findings)

let random_sizes rng (m : Delay_model.t) =
  Array.init (Delay_model.num_vertices m) (fun _ ->
      m.Delay_model.min_size
      +. Rng.float rng (m.Delay_model.max_size -. m.Delay_model.min_size))

(* every feasible sizing must land inside the per-vertex and circuit
   intervals; [name] tags the sizing under test in failure messages *)
let assert_contained name (m : Delay_model.t) (b : Bounds.t) sizes =
  let slack lo = lo -. (1e-9 *. Float.max 1.0 (abs_float lo)) in
  let bulge hi = hi +. (1e-9 *. Float.max 1.0 (abs_float hi)) in
  let delays = Delay_model.delays m sizes in
  Array.iteri
    (fun i d ->
      if d < slack b.Bounds.d_lo.(i) || d > bulge b.Bounds.d_hi.(i) then
        Alcotest.failf "%s: vertex %d delay %.17g outside [%.17g, %.17g]"
          name i d b.Bounds.d_lo.(i) b.Bounds.d_hi.(i))
    delays;
  let cp = Sta.critical_path_only m ~delays in
  if cp < slack b.Bounds.cp_lo || cp > bulge b.Bounds.cp_hi then
    Alcotest.failf "%s: cp %.17g outside [%.17g, %.17g]" name cp b.Bounds.cp_lo
      b.Bounds.cp_hi

let soundness_circuits () =
  [ ("c17", Gen.c17 ());
    ("ripple8", Gen.ripple_carry_adder ~bits:8 ());
    ("kogge8", Gen.kogge_stone_adder ~bits:8 ());
    ("random-dag", Gen.random_dag ~gates:60 ~inputs:8 ~outputs:4 ~seed:7 ()) ]

let test_box_soundness () =
  List.iter
    (fun (name, nl) ->
      let m = model_of nl in
      let b = Bounds.compute m in
      check bool (name ^ " interval sane") true (b.Bounds.cp_lo <= b.Bounds.cp_hi);
      assert_contained (name ^ "/all-min") m b
        (Delay_model.uniform_sizes m m.Delay_model.min_size);
      assert_contained (name ^ "/all-max") m b
        (Delay_model.uniform_sizes m m.Delay_model.max_size);
      let rng = Rng.create 42 in
      for k = 1 to 20 do
        assert_contained
          (Printf.sprintf "%s/random-%d" name k)
          m b (random_sizes rng m)
      done)
    (soundness_circuits ())

(* the floor is not just a bound — the witness must be a real source-rooted
   path of the timing graph whose best-case delays sum to exactly cp_lo *)
let test_witness_path () =
  List.iter
    (fun (name, nl) ->
      let m = model_of nl in
      let b = Bounds.compute m in
      let path = Bounds.witness_path m b in
      check bool (name ^ " non-empty") true (path <> []);
      check bool (name ^ " starts at a source") true
        (Delay_model.is_source m (List.hd path));
      let succ i =
        List.init
          (m.Delay_model.fanout_off.(i + 1) - m.Delay_model.fanout_off.(i))
          (fun k -> m.Delay_model.fanout.(m.Delay_model.fanout_off.(i) + k))
      in
      let rec edges_ok = function
        | i :: (j :: _ as rest) -> List.mem j (succ i) && edges_ok rest
        | _ -> true
      in
      check bool (name ^ " consecutive edges exist") true (edges_ok path);
      let sum =
        List.fold_left (fun acc i -> acc +. b.Bounds.d_lo.(i)) 0.0 path
      in
      check bool (name ^ " achieves the floor") true
        (abs_float (sum -. b.Bounds.cp_lo)
        <= 1e-9 *. Float.max 1.0 b.Bounds.cp_lo))
    (soundness_circuits ())

let test_mf201_fires_and_engine_agrees () =
  let m = model_of (Gen.c17 ()) in
  let dmin = Sweep.dmin m in
  let target = 0.05 *. dmin in
  let b = Bounds.compute m in
  check bool "statically infeasible" true (Bounds.infeasible b ~target);
  let fs = Bounds.check m ~target in
  check int "MF201 once" 1 (count "MF201" fs);
  check int "MF202 suppressed" 0 (count "MF202" fs);
  check int "MF203 suppressed" 0 (count "MF203" fs);
  (match Bounds.infeasible_target_error m b ~target with
  | Some (Diag.Infeasible_target { target = t; lower_bound; witness }) ->
    check bool "error carries target" true (t = target);
    check bool "bound above target" true (lower_bound > target);
    check bool "witness labels present" true (witness <> [])
  | Some e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | None -> Alcotest.fail "no typed error");
  (* the engine must agree: no solver can meet a target below the floor *)
  let r = Minflotransit.optimize m ~target in
  check bool "engine cannot meet it" false r.Minflotransit.met

let test_feasible_target_is_clean () =
  let m = model_of (Gen.c17 ()) in
  let dmin = Sweep.dmin m in
  let b = Bounds.compute m in
  check bool "dmin not infeasible" false (Bounds.infeasible b ~target:dmin);
  check int "no MF201 at 2*dmin" 0 (count "MF201" (Bounds.check m ~target:(2.0 *. dmin)))

let test_pinned_and_irrelevant () =
  let m = model_of (Gen.ripple_carry_adder ~bits:8 ()) in
  let n = Delay_model.num_vertices m in
  let b = Bounds.compute m in
  (* at target = cp_lo every witness vertex has zero freedom *)
  let pinned = Bounds.pinned m b ~target:b.Bounds.cp_lo in
  check bool "witness is pinned at the floor" true
    (List.for_all
       (fun i -> List.mem i pinned)
       (Bounds.witness_path m b));
  (* a target nobody can miss makes every gate slack-irrelevant *)
  let loose = Bounds.irrelevant m b ~target:(2.0 *. b.Bounds.cp_hi) in
  check int "all gates irrelevant under a loose target" n (List.length loose);
  (* determinism: same model, same verdicts *)
  let b' = Bounds.compute m in
  check bool "pinned deterministic" true
    (Bounds.pinned m b' ~target:b.Bounds.cp_lo = pinned);
  check bool "irrelevant deterministic" true
    (Bounds.irrelevant m b' ~target:(2.0 *. b.Bounds.cp_hi) = loose);
  (* the finding-producing entry point reports them under MF202/MF203 *)
  let fs = Bounds.check m ~target:(2.0 *. b.Bounds.cp_hi) in
  check bool "MF203 findings" true (count "MF203" fs > 0);
  check int "no MF201" 0 (count "MF201" fs)

let test_mf204_tech_probe () =
  check int "stock technology is monotone" 0
    (count "MF204" (Bounds.check_tech Tech.default_130nm));
  let broken =
    { Tech.default_130nm with Tech.c_gate = -.Tech.default_130nm.Tech.c_gate }
  in
  check bool "negative gate capacitance caught" true
    (count "MF204" (Bounds.check_tech broken) > 0)

(* 50-seed differential: on fuzz cases, the static verdict and the full
   engine must agree — whenever MF201 says the target is unmeetable, the
   engine must come back unmet (the converse is not implied: the bounds
   are necessary conditions only) *)
let test_fuzz_differential () =
  let fired = ref 0 in
  for seed = 0 to 49 do
    match
      try
        let nl = Gen_mut.case ~seed () in
        Some (model_of nl)
      with _ -> None
    with
    | None -> ()
    | Some m ->
      let dmin = Sweep.dmin m in
      let factor = [| 0.02; 0.3; 0.9 |].(seed mod 3) in
      let target = factor *. dmin in
      let b = Bounds.compute m in
      if Bounds.infeasible b ~target then begin
        incr fired;
        let r = Minflotransit.optimize m ~target in
        if r.Minflotransit.met then
          Alcotest.failf
            "seed %d: engine met target %.17g below static floor %.17g" seed
            target b.Bounds.cp_lo
      end
  done;
  check bool "differential exercised the infeasible verdict" true (!fired > 0)

let () =
  Alcotest.run "bounds"
    [ ( "soundness",
        [ Alcotest.test_case "box containment vs brute force" `Quick
            test_box_soundness;
          Alcotest.test_case "witness path validity" `Quick test_witness_path ] );
      ( "verdicts",
        [ Alcotest.test_case "MF201 fires and the engine agrees" `Quick
            test_mf201_fires_and_engine_agrees;
          Alcotest.test_case "feasible targets stay clean" `Quick
            test_feasible_target_is_clean;
          Alcotest.test_case "pinned and irrelevant gates" `Quick
            test_pinned_and_irrelevant;
          Alcotest.test_case "MF204 technology probe" `Quick
            test_mf204_tech_probe ] );
      ( "differential",
        [ Alcotest.test_case "50-seed engine agreement" `Slow
            test_fuzz_differential ] ) ]
