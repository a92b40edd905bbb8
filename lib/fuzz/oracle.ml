module Diag = Minflo_robust.Diag
module Budget = Minflo_robust.Budget
module Fault = Minflo_robust.Fault
module Netlist = Minflo_netlist.Netlist
module Raw = Minflo_netlist.Raw
module Bench_format = Minflo_netlist.Bench_format
module Transform = Minflo_netlist.Transform
module Cnf = Minflo_sat.Cnf
module Tech = Minflo_tech.Tech
module Elmore = Minflo_tech.Elmore
module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Incremental = Minflo_timing.Incremental
module Rng = Minflo_util.Rng
module Dphase = Minflo_sizing.Dphase
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module Cost_scaling = Minflo_flow.Cost_scaling
module Lint = Minflo_lint.Lint
module Audit = Minflo_lint.Audit
module Rule = Minflo_lint.Rule
module Trace = Minflo_lint.Trace
module Job = Minflo_runner.Job
module Differential = Minflo_runner.Differential

type config = {
  target_factor : float;
  dw_iterations : int;
  budget_iterations : int;
  budget_pivots : int;
  solvers : Dphase.solver list;
  differential : bool;
  fault_site : string option;
  fault_seed : int;
}

let default_config =
  { target_factor = 0.6;
    dw_iterations = 12;
    budget_iterations = 4000;
    budget_pivots = 2_000_000;
    solvers = [ `Simplex; `Ssp ];
    differential = true;
    fault_site = None;
    fault_seed = 0 }

type failure = {
  fingerprint : Fingerprint.t;
  info : string;
}

type outcome = {
  failures : failure list;
  gates : int;
  met : bool;
  area : float;
}

let fingerprints o =
  List.fold_left
    (fun acc f ->
      if List.exists (Fingerprint.equal f.fingerprint) acc then acc
      else f.fingerprint :: acc)
    [] o.failures
  |> List.rev

(* ---------- failure accumulation ---------- *)

type sink = failure list ref

let flag (sink : sink) fingerprint fmt =
  Printf.ksprintf (fun info -> sink := { fingerprint; info } :: !sink) fmt

let flag_error sink ~phase e =
  flag sink (Fingerprint.of_error ~phase e) "%s" (Diag.to_string e)

(* every stage runs under this guard: a raise is itself a finding, and can
   never take the oracle (or the campaign driver) down *)
let guard sink ~phase body =
  match body () with
  | v -> Some v
  | exception Diag.Error_exn e ->
    flag_error sink ~phase e;
    None
  | exception exn ->
    flag sink
      (Fingerprint.make ~phase ~code:"crash" ~detail:(Printexc.to_string exn)
         ())
      "uncaught exception: %s" (Printexc.to_string exn);
    None

(* ---------- fault plumbing ---------- *)

let is_engine_site s = not (String.length s >= 6 && String.sub s 0 6 = "audit.")

(* make sure the leg list actually visits the faulted site *)
let effective_solvers cfg =
  let faulted s = cfg.fault_site = Some ("dphase." ^ Dphase.solver_name s) in
  match List.find_opt faulted [ `Simplex; `Ssp; `Bellman_ford ] with
  | Some s when not (List.mem s cfg.solvers) -> cfg.solvers @ [ s ]
  | _ -> cfg.solvers

let make_plan cfg =
  match cfg.fault_site with
  | None -> None
  | Some site ->
    let plan = Fault.create ~seed:cfg.fault_seed () in
    let action =
      if is_engine_site site then Fault.Fail (Diag.Fault_injected { site })
      else Fault.Perturb 1.0
    in
    Fault.arm plan ~site action;
    Some plan

(* ---------- stages ---------- *)

let roundtrip_stage sink nl =
  ignore
    (guard sink ~phase:"parse" (fun () ->
         match Bench_format.parse_string (Bench_format.to_string nl) with
         | Error e -> flag_error sink ~phase:"parse" e
         | Ok nl' ->
           if
             Netlist.gate_count nl' <> Netlist.gate_count nl
             || Netlist.input_count nl' <> Netlist.input_count nl
             || List.length (Netlist.outputs nl')
                <> List.length (Netlist.outputs nl)
           then
             flag sink
               (Fingerprint.make ~phase:"parse" ~code:"roundtrip-mismatch" ())
               "print/reparse changed shape: %d/%d/%d -> %d/%d/%d"
               (Netlist.gate_count nl) (Netlist.input_count nl)
               (List.length (Netlist.outputs nl))
               (Netlist.gate_count nl') (Netlist.input_count nl')
               (List.length (Netlist.outputs nl'))))

(* the two transforms production reaches — transistor granularity maps
   onto NAND/NOT, and the c1355 stand-in expands XORs — must keep the
   function: a SAT miter proves each result equivalent to the case *)
let equivalence_stage sink nl =
  List.iter
    (fun (name, transform) ->
      ignore
        (guard sink ~phase:"equivalence" (fun () ->
             let fp code = Fingerprint.make ~phase:"equivalence" ~code ~detail:name () in
             match Cnf.equivalent nl (transform nl) with
             | Cnf.Equivalent -> ()
             | Cnf.Differ { output_index; _ } ->
               flag sink (fp "differ") "%s changes primary output %d" name
                 output_index
             | Cnf.Interface_mismatch ->
               flag sink (fp "interface") "%s changes the interface" name)))
    [ ("to_nand_inv", Transform.to_nand_inv); ("expand_xor", Transform.expand_xor) ]

let lint_stage sink nl =
  ignore
    (guard sink ~phase:"lint" (fun () ->
         (* tech coverage (MF008) is off: mutated cases legally exceed the
            stack bound; structural errors are the generator contract *)
         let config = { Lint.fanout_bound = None; tech = None } in
         Lint.check ~config (Raw.of_netlist nl)
         |> List.iter (fun (f : Minflo_lint.Finding.t) ->
                if f.rule.Rule.severity = Rule.Error then
                  flag sink
                    (Fingerprint.make ~phase:"lint" ~code:f.rule.Rule.id ())
                    "%s" f.message)))

(* the engine's critical set — possibly its reused buffer — against a fresh
   engine's walk at the same sizes; returns the engine's members *)
let check_critical_set sink model eng =
  let members e =
    List.init
      (Incremental.critical_set ~eps_rel:Tolerance.critical_rel e)
      (Incremental.critical_vertex e)
  in
  let mine = members eng in
  let fresh =
    members (Incremental.create model ~sizes:(Incremental.sizes eng))
  in
  if mine <> fresh then
    flag sink
      (Fingerprint.make ~phase:"sta" ~code:"incremental-mismatch"
         ~detail:"critical-set" ())
      "incremental critical set differs from a fresh engine's (%d vs %d \
       members)"
      (List.length mine) (List.length fresh);
  mine

(* the engine's critical fanin of each of [vs] against the first-max fanin
   of the batch arrivals; flags the last mismatch *)
let check_fanins sink (model : Delay_model.t) eng ~at_ref ~d_ref vs =
  let bad_fanin = ref None in
  List.iter
    (fun v ->
      let best = ref (-1) and best_f = ref neg_infinity in
      for c = model.fanin_off.(v) to model.fanin_off.(v + 1) - 1 do
        let u = model.fanin.(c) in
        if at_ref.(u) +. d_ref.(u) > !best_f then begin
          best_f := at_ref.(u) +. d_ref.(u);
          best := u
        end
      done;
      if Incremental.critical_fanin eng v <> !best then
        bad_fanin := Some (v, !best))
    vs;
  match !bad_fanin with
  | Some (v, expect) ->
    flag sink
      (Fingerprint.make ~phase:"sta" ~code:"incremental-mismatch"
         ~detail:"critical-fanin" ())
      "critical fanin of vertex %d is %d, batch arrivals give %d" v
      (Incremental.critical_fanin eng v)
      expect
  | None -> ()

(* The stop test at [target], the critical set and its members' critical
   fanins against a batch pass, reading nothing that settles first;
   returns the engine's members *)
let check_decisions sink model eng ~target =
  let d_ref = Delay_model.delays model (Incremental.sizes eng) in
  let at_ref = Sta.arrivals model ~delays:d_ref in
  let cp = Sta.critical_path_only model ~delays:d_ref in
  let above = Incremental.above eng ~target in
  if above <> not (cp <= target) then
    flag sink
      (Fingerprint.make ~phase:"sta" ~code:"incremental-mismatch"
         ~detail:"stop-test" ())
      "incremental stop test says %b at target %h, batch critical path %h"
      above target cp;
  let members = check_critical_set sink model eng in
  check_fanins sink model eng ~at_ref ~d_ref members;
  members

(* Incremental-vs-batch STA differential. The arena-backed incremental
   engine claims bit-identity with a from-scratch batch pass after any
   mutation sequence (the property TILOS and the W-phase hot paths lean
   on); drive it through a schedule derived deterministically from the
   case itself and compare with exact float [=] — one ulp of drift in any
   delay, arrival or the critical path is a finding. So is a critical
   fanin other than the first-max fanin of the batch arrivals, or a
   critical set (members and order) other than a fresh engine's. The
   decisions TILOS reads — the critical path, the critical set and its
   members' critical fanins — are checked first: reading an arrival
   settles every vertex the engine deferred and would hide a deferral
   bug. A second schedule of TILOS-style 1.1 bumps from uniform minimum
   sizes keeps many finishes bitwise tied, where the first-max rule and
   the set's order matter. *)
let check_incremental sink model eng =
  let n = Delay_model.num_vertices model in
  let d_ref = Delay_model.delays model (Incremental.sizes eng) in
  let at_ref = Sta.arrivals model ~delays:d_ref in
  let cp = Sta.critical_path_only model ~delays:d_ref in
  if Incremental.critical_path eng <> cp then
    flag sink
      (Fingerprint.make ~phase:"sta" ~code:"incremental-mismatch"
         ~detail:"critical-path" ())
      "incremental critical path %h, batch %h"
      (Incremental.critical_path eng)
      cp;
  let members = check_critical_set sink model eng in
  check_fanins sink model eng ~at_ref ~d_ref members;
  let bad = ref None in
  for v = n - 1 downto 0 do
    if
      Incremental.delay eng v <> d_ref.(v)
      || Incremental.arrival eng v <> at_ref.(v)
    then bad := Some v
  done;
  (match !bad with
  | Some v ->
    flag sink
      (Fingerprint.make ~phase:"sta" ~code:"incremental-mismatch"
         ~detail:"vertex" ())
      "incremental engine drifted from batch STA at vertex %d: delay %h vs \
       %h, arrival %h vs %h"
      v (Incremental.delay eng v) d_ref.(v) (Incremental.arrival eng v)
      at_ref.(v)
  | None -> ());
  check_fanins sink model eng ~at_ref ~d_ref (List.init n Fun.id)

let incremental_stage sink model =
  ignore
    (guard sink ~phase:"sta" (fun () ->
         let n = Delay_model.num_vertices model in
         if n > 0 then begin
           let rng = Rng.create ((n * 31) + 5) in
           let x0 =
             Array.init n (fun _ ->
                 model.Delay_model.min_size +. Rng.float rng 4.0)
           in
           let eng = Incremental.create model ~sizes:x0 in
           for _ = 1 to 12 do
             let v = Rng.int rng n in
             let s =
               if Rng.bool rng then
                 Incremental.size eng v *. (1.0 +. Rng.float rng 0.4)
               else model.Delay_model.min_size +. Rng.float rng 6.0
             in
             Incremental.set_size eng v s
           done;
           check_incremental sink model eng;
           let tied =
             Incremental.create model
               ~sizes:(Delay_model.uniform_sizes model model.Delay_model.min_size)
           in
           (* TILOS-shaped: bump a member of the last critical set (a
              random vertex one time in five, so an anchor also sees
              resizes of non-members and deferred vertices) and query the
              stop test, the critical set and its members' critical fanins
              after every bump, before any arrival read, so the engine
              reuses its certified buffer between walks and decides from a
              deferred chain anchor where it can *)
           let target = 0.6 *. Incremental.critical_path tied in
           let members = ref [] in
           for _ = 1 to 12 do
             let r = Rng.int rng n in
             let v =
               match !members with
               | ms when ms <> [] && r mod 5 > 0 ->
                 List.nth ms (r / 5 mod List.length ms)
               | _ -> r
             in
             Incremental.set_size tied v (Incremental.size tied v *. 1.1);
             members := check_decisions sink model tied ~target
           done;
           check_incremental sink model tied
         end))

type leg = {
  leg_solver : Dphase.solver;
  leg_result : Minflotransit.result;
}

let engine_leg sink cfg ?fault model ~target solver =
  guard sink ~phase:"engine" (fun () ->
      let options =
        { Minflotransit.default_options with
          solver;
          max_iterations = cfg.dw_iterations;
          limits =
            Budget.limits ~max_iterations:cfg.budget_iterations
              ~max_pivots:cfg.budget_pivots () }
      in
      let steps = ref [] in
      let result =
        Minflotransit.optimize ~options ?fault
          ~on_step:(fun s -> steps := s :: !steps)
          model ~target
      in
      (* the run must be sane however it ended: every accepted step and the
         result, audited the way [minflo size --check] does *)
      let name = Dphase.solver_name solver in
      List.iter
        (fun (f : Minflo_lint.Finding.t) ->
          flag sink
            (Fingerprint.make ~phase:"check" ~code:f.rule.Rule.id ~detail:name
               ())
            "[%s] %s" name f.message)
        (Trace.check_run model ~target ~steps:(List.rev !steps) result);
      { leg_solver = solver; leg_result = result })

let engine_differential sink legs =
  let leg { leg_solver; leg_result = r } =
    (leg_solver, r.Minflotransit.met, r.area, r.iterations)
  in
  match legs with
  | a :: rest when not a.leg_result.Minflotransit.budget_exhausted ->
    List.iter
      (fun b ->
        if not b.leg_result.Minflotransit.budget_exhausted then
          Result.iter_error
            (flag_error sink ~phase:"differential")
            (Differential.compare ~job:"engine legs" (leg a) (leg b)))
      rest
  | _ -> ()

(* LP-level differential: the displacement problem at the TILOS seed,
   solved by all three independent MCF solvers and by the engine's own
   entry point (a fresh-state [solve_warm], which pivots from the crash
   basis rather than the all-artificial one), objectives compared exactly,
   each certificate independently audited. This is also where the audit.*
   fault sites corrupt a certificate (mirroring the CLI's audit-cert
   --inject-fault); the crash leg has no site of its own. *)
let lp_differential sink cfg ?fault model ~target (tilos : Minflo_sizing.Tilos.result) =
  ignore
    (guard sink ~phase:"audit" (fun () ->
         let delays = Delay_model.delays model tilos.sizes in
         match
           Dphase.displacement_problem model ~sizes:tilos.sizes ~delays
             ~deadline:target
         with
         | Error e -> flag_error sink ~phase:"audit" e
         | Ok problem ->
           let solve_with name solve =
             let budget = Budget.start (Budget.limits ~max_pivots:cfg.budget_pivots ()) in
             (name, solve ?budget:(Some budget) problem)
           in
           let sols =
             [ solve_with "simplex" Network_simplex.solve;
               solve_with "ssp" Ssp.solve;
               solve_with "cost-scaling" Cost_scaling.solve;
               solve_with "simplex-crash" (fun ?budget p ->
                   Network_simplex.solve_warm ?budget
                     (Network_simplex.make_state ()) p) ]
           in
           (* objectives of exact optimal solutions agree exactly *)
           (match
              List.filter (fun (_, s) -> s.Mcf.status = Mcf.Optimal) sols
            with
           | (na, sa) :: rest ->
             List.iter
               (fun (nb, sb) ->
                 if sb.Mcf.objective <> sa.Mcf.objective then
                   flag sink
                     (Fingerprint.make ~phase:"differential"
                        ~code:"differential-mismatch"
                        ~detail:("lp-" ^ na ^ "-" ^ nb) ())
                     "LP objectives diverge: %s=%d %s=%d" na sa.Mcf.objective
                     nb sb.Mcf.objective)
               rest
           | [] -> ());
           List.iter
             (fun (tag, sol) ->
               if sol.Mcf.status <> Mcf.Aborted then begin
                 (* audit.* fault sites corrupt the certificate pre-audit *)
                 let site = "audit." ^ tag in
                 (match fault with
                 | Some plan when List.mem site Fault.all_points -> (
                   match Fault.fire plan ~site with
                   | Some (Fault.Perturb _) | Some (Fault.Fail _) ->
                     if Array.length sol.Mcf.flow > 0 then
                       sol.Mcf.flow.(0) <- sol.Mcf.flow.(0) + 1
                   | None -> ())
                 | _ -> ());
                 Audit.check problem sol
                 |> List.iter (fun (f : Minflo_lint.Finding.t) ->
                        flag sink
                          (Fingerprint.make ~phase:"audit"
                             ~code:f.rule.Rule.id ~detail:tag ())
                          "[%s] %s" tag f.message)
               end)
             sols))

(* Warm-vs-cold leg: prime a simplex basis on the displacement LP at the
   TILOS seed, perturb the arc costs deterministically (the shape of a D/W
   iteration: same network, moved costs), and solve the perturbed LP both
   cold and through the retained basis. An exact objective mismatch, a
   status disagreement, or an audit finding on either certificate is the
   warm-start machinery corrupting a solve. *)
let warm_cold_stage sink cfg model ~target (tilos : Minflo_sizing.Tilos.result) =
  ignore
    (guard sink ~phase:"dphase" (fun () ->
         let delays = Delay_model.delays model tilos.sizes in
         match
           Dphase.displacement_problem model ~sizes:tilos.sizes ~delays
             ~deadline:target
         with
         | Error e -> flag_error sink ~phase:"dphase" e
         | Ok problem ->
           let budget () =
             Budget.start (Budget.limits ~max_pivots:cfg.budget_pivots ())
           in
           let st = Network_simplex.make_state () in
           let seed = Network_simplex.solve_warm ~budget:(budget ()) st problem in
           if seed.Mcf.status = Mcf.Optimal then begin
             let perturbed =
               { problem with
                 Mcf.arcs =
                   Array.mapi
                     (fun i (a : Mcf.arc) ->
                       if i mod 3 = 0 then { a with Mcf.cost = a.cost + 1 }
                       else a)
                     problem.Mcf.arcs }
             in
             let cold = Network_simplex.solve ~budget:(budget ()) perturbed in
             let warm =
               Network_simplex.solve_warm ~budget:(budget ()) st perturbed
             in
             if cold.Mcf.status <> warm.Mcf.status then
               flag sink
                 (Fingerprint.make ~phase:"dphase" ~code:"warm-cold-mismatch"
                    ~detail:"status" ())
                 "warm/cold status diverge on perturbed LP: cold=%s warm=%s"
                 (Mcf.status_to_string cold.Mcf.status)
                 (Mcf.status_to_string warm.Mcf.status)
             else if
               cold.Mcf.status = Mcf.Optimal
               && cold.Mcf.objective <> warm.Mcf.objective
             then
               flag sink
                 (Fingerprint.make ~phase:"dphase" ~code:"warm-cold-mismatch" ())
                 "warm objective %d <> cold objective %d on perturbed LP"
                 warm.Mcf.objective cold.Mcf.objective;
             List.iter
               (fun (tag, sol) ->
                 if sol.Mcf.status <> Mcf.Aborted then
                   Audit.check perturbed sol
                   |> List.iter (fun (f : Minflo_lint.Finding.t) ->
                          flag sink
                            (Fingerprint.make ~phase:"dphase"
                               ~code:"warm-cold-mismatch"
                               ~detail:(tag ^ "-" ^ f.rule.Rule.id) ())
                            "[%s] %s" tag f.message))
               [ ("cold", cold); ("warm", warm) ]
           end))

(* Static-vs-solver feasibility oracle. The interval-bound analysis
   (MF201) claims a target below the static delay floor is unmeetable by
   ANY sizing in the box — so a solver leg reporting met=true on such a
   target means either the bounds are unsound or the solver lies about
   feasibility; both are findings. In the other direction, every leg's
   final critical path must land inside [cp_lo, cp_hi] (its sizes are in
   the box, and the bounds claim to contain every in-box sizing), and the
   infeasibility witness must be a real path that achieves the floor. *)
let bounds_stage sink model ~target legs =
  ignore
    (guard sink ~phase:"bounds" (fun () ->
         let module Bounds = Minflo_lint.Bounds in
         let b = Bounds.compute model in
         List.iter
           (fun { leg_solver; leg_result } ->
             let cp = leg_result.Minflotransit.cp in
             if
               cp < b.Bounds.cp_lo *. (1. -. 1e-9)
               || cp > b.Bounds.cp_hi *. (1. +. 1e-9)
             then
               flag sink
                 (Fingerprint.make ~phase:"bounds"
                    ~code:"solver-feasibility-mismatch"
                    ~detail:(Dphase.solver_name leg_solver ^ "-containment") ())
                 "[%s] final cp %.17g escapes the static interval [%.17g, \
                  %.17g]"
                 (Dphase.solver_name leg_solver) cp b.Bounds.cp_lo
                 b.Bounds.cp_hi)
           legs;
         if Bounds.infeasible b ~target then begin
           List.iter
             (fun { leg_solver; leg_result } ->
               if leg_result.Minflotransit.met then
                 flag sink
                   (Fingerprint.make ~phase:"bounds"
                      ~code:"solver-feasibility-mismatch"
                      ~detail:(Dphase.solver_name leg_solver) ())
                   "[%s] claims to meet target %.17g below the static floor \
                    %.17g"
                   (Dphase.solver_name leg_solver) target b.Bounds.cp_lo)
             legs;
           let path = Bounds.witness_path model b in
           let edge i j =
             let rec scan c =
               c < model.Delay_model.fanout_off.(i + 1)
               && (model.Delay_model.fanout.(c) = j || scan (c + 1))
             in
             scan model.Delay_model.fanout_off.(i)
           in
           let rec edges_ok = function
             | i :: (j :: _ as rest) -> edge i j && edges_ok rest
             | _ -> true
           in
           let plen =
             List.fold_left
               (fun acc i -> acc +. b.Bounds.d_lo.(i))
               0.0 path
           in
           if not (edges_ok path) then
             flag sink
               (Fingerprint.make ~phase:"bounds" ~code:"witness-invalid" ())
               "MF201 witness is not a path of the timing graph"
           else if
             abs_float (plen -. b.Bounds.cp_lo)
             > 1e-9 *. Float.max 1.0 b.Bounds.cp_lo
           then
             flag sink
               (Fingerprint.make ~phase:"bounds" ~code:"witness-invalid" ())
               "MF201 witness path sums to %.17g, not the claimed floor %.17g"
               plen b.Bounds.cp_lo
         end))

let fired_stage sink fault =
  match fault with
  | None -> ()
  | Some plan ->
    List.iter
      (fun site ->
        let n = Fault.fired plan ~site in
        if n > 0 then
          flag sink
            (Fingerprint.make
               ~phase:(if is_engine_site site then "engine" else "audit")
               ~code:"fault-injected" ~detail:site ())
            "armed fault at %s fired %d time(s)" site n)
      (Fault.sites plan)

(* ---------- the oracle ---------- *)

let run cfg nl =
  let sink : sink = ref [] in
  let gates = Netlist.gate_count nl in
  roundtrip_stage sink nl;
  equivalence_stage sink nl;
  lint_stage sink nl;
  let met, area =
    match
      guard sink ~phase:"model" (fun () ->
          let model = Elmore.of_netlist Tech.default_130nm nl in
          let dmin = Sweep.dmin model in
          (model, cfg.target_factor *. dmin))
    with
    | None -> (false, nan)
    | Some (model, target) ->
      incremental_stage sink model;
      let fault = make_plan cfg in
      let legs =
        List.filter_map
          (fun s -> engine_leg sink cfg ?fault model ~target s)
          (effective_solvers cfg)
      in
      (* an engine-site fault deliberately skews one leg; differential
         comparison is only meaningful on clean runs *)
      let engine_faulted =
        match cfg.fault_site with
        | Some s -> is_engine_site s
        | None -> false
      in
      if not engine_faulted then begin
        engine_differential sink legs;
        bounds_stage sink model ~target legs
      end;
      (if cfg.differential then
         match legs with
         | { leg_result; _ } :: _ when leg_result.Minflotransit.tilos.met ->
           lp_differential sink cfg ?fault model ~target
             leg_result.Minflotransit.tilos;
           warm_cold_stage sink cfg model ~target
             leg_result.Minflotransit.tilos
         | _ -> ());
      fired_stage sink fault;
      (match legs with
      | { leg_result; _ } :: _ ->
        (leg_result.Minflotransit.met, leg_result.Minflotransit.area)
      | [] -> (false, nan))
  in
  { failures = List.rev !sink; gates; met; area }
