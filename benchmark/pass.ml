(* One benchmark pass: set up and size every job of a workload, check each
   result independently of the engine, and (traced pass only) audit every
   certificate and replay every accepted step through the layers' public
   functions. Runs inside a freshly forked child (see [Run.in_child]). *)

module Perf = Minflo_robust.Perf
module Mono = Minflo_robust.Mono
module Tech = Minflo_tech.Tech
module Delay_model = Minflo_tech.Delay_model
module Model_cache = Minflo_tech.Model_cache
module Transistor = Minflo_tech.Transistor
module Sta = Minflo_timing.Sta
module Balance = Minflo_timing.Balance
module Sweep = Minflo_sizing.Sweep
module Tilos = Minflo_sizing.Tilos
module Dphase = Minflo_sizing.Dphase
module Sensitivity = Minflo_sizing.Sensitivity
module Wphase = Minflo_sizing.Wphase
module Minflotransit = Minflo_sizing.Minflotransit
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Audit = Minflo_lint.Audit

type job_result = {
  id : string;
  factor : float;
  vertices : int;
  area : float;
  iterations : int;
  model_s : float;
  dmin_s : float;
  tilos_s : float;
  refine_s : float;
  tilos_perf : Perf.counters;
  refine_perf : Perf.counters;
  minor_words : float;  (** allocated from set-up to the end of refine. *)
  failures : string list;
}

type span = {
  sid : int;
  name : string;
  job : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a root span. *)
}

(* what the traced pass alone measures, summed over its jobs *)
type replay = {
  certs : int;
  findings : int;
  dphase_solves : int;  (** of the traced pass, the coverage base. *)
  replayed : int;
  arcs : int;
  nodes : int;
  wphase_sweeps : int;
}

type t = {
  jobs : job_result list;
  calibration_s : float list;
      (** {!Calibration.time} before and after the jobs. *)
  top_heap_words : int;
  major_collections : int;
  live_words : int;  (** after a full major collection at the end. *)
  spans : span list;  (** [[]] unless traced. *)
  replay : replay option;  (** [None] unless traced. *)
}

(* ---------- spans ---------- *)

let tracing = ref false
let spans = ref []
let next_sid = ref 0

let fresh_sid () =
  let sid = !next_sid in
  incr next_sid;
  sid

let record ~sid ~parent ~job name start stop =
  if !tracing then spans := { sid; name; job; start; stop; parent } :: !spans

(* [span ~job name f] runs [f sid] and returns its value with the elapsed
   wall seconds; when tracing, the interval is also kept as span [sid], so
   calls made inside [f] can name it as their parent. *)
let span ?(parent = -1) ~job name f =
  let sid = fresh_sid () in
  let start = Mono.now () in
  let v = f sid in
  let stop = Mono.now () in
  record ~sid ~parent ~job name start stop;
  (v, stop -. start)

(* ---------- correctness ---------- *)

(* Checks that need nothing from the engine but its answer: the final sizes
   are re-timed and re-costed from the delay model. *)
let check_result model ~target ~(tilos : Tilos.result)
    (r : Minflotransit.result) ~expected =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not r.met then fail "engine reports the target unmet";
  let cp = Sta.critical_path_only model ~delays:(Delay_model.delays model r.sizes) in
  if not (cp <= target *. (1.0 +. 1e-9)) then
    fail "critical path %.9g exceeds target %.9g" cp target;
  let lo = model.Delay_model.min_size -. 1e-9
  and hi = model.Delay_model.max_size +. 1e-9 in
  (match
     Array.find_opt (fun x -> not (x >= lo && x <= hi)) r.sizes
   with
  | Some x -> fail "size %g outside [min_size, max_size]" x
  | None -> ());
  let area = Delay_model.area model r.sizes in
  if Float.abs (area -. r.area) > 1e-9 *. Float.abs area then
    fail "reported area %.9f but the sizes cost %.9f" r.area area;
  if r.area > tilos.area then
    fail "area %.9f exceeds the TILOS seed's %.9f" r.area tilos.area;
  (match expected with
  | None -> ()
  | Some None -> fail "no row in expected.json"
  | Some (Some (e_area, e_iters)) ->
    let got = Printf.sprintf "%.9f" r.area
    and want = Printf.sprintf "%.9f" e_area in
    if got <> want then fail "area %s, expected %s" got want;
    if r.iterations <> e_iters then
      fail "%d iterations, expected %d" r.iterations e_iters);
  List.rev !failures

(* ---------- replay of one accepted step ---------- *)

(* Re-run, outside the timed span, each layer call the engine made for one
   accepted D/W pass, on the engine's own inputs: the sizes it started the
   pass from and the trust region it used. The rebuilt LP must equal the
   certificate's arc for arc and the flow duals must match, so the replay
   provably times the LP the engine solved. *)
let replay_step model ~job ~target ~canonical ~warm_state ~sizes
    (s : Minflotransit.step) (cert : Dphase.certificate) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let sweeps = ref 0 in
  let (), _ =
    span ~job "replay" (fun parent ->
        let span name f = fst (span ~parent ~job name (fun _ -> f ())) in
        let delays = Delay_model.delays model sizes in
        let sta =
          span "timing.sta" (fun () -> Sta.analyze model ~delays ~deadline:target)
        in
        ignore
          (span "timing.balance" (fun () ->
               Balance.balance ~mode:`Alap ~sta model ~delays ~deadline:target));
        ignore
          (span "sizing.sensitivity" (fun () ->
               Sensitivity.weights model ~sizes ~delays));
        let options =
          { Dphase.default_options with
            eta = s.step_eta;
            solver = `Simplex;
            canonical_duals = canonical }
        in
        match
          span "dphase.displacement_problem" (fun () ->
              Dphase.displacement_problem ~options model ~sizes ~delays
                ~deadline:target)
        with
        | Error e ->
          fail "step %d: LP rebuild failed: %s" s.step_iter
            (Minflo_robust.Diag.to_string e)
        | Ok p ->
          if p <> cert.problem then
            fail "step %d: rebuilt LP differs from the certificate's" s.step_iter;
          let sol =
            span "flow.mcf" (fun () ->
                if canonical then Network_simplex.solve_warm warm_state p
                else Network_simplex.solve p)
          in
          (* the cold engine never canonicalizes; the call is still timed,
             as the cost canonical duals would add, but not attributed *)
          let pot =
            span "flow.canonical" (fun () -> Mcf.canonical_potentials p sol)
          in
          if (if canonical then pot else sol.potential)
             <> cert.solution.potential
          then fail "step %d: replayed duals differ from the certificate's" s.step_iter;
          (match
             span "wphase" (fun () -> Wphase.solve model ~budgets:s.step_budgets)
           with
          | Error e ->
            fail "step %d: W-phase replay failed: %s" s.step_iter
              (Minflo_robust.Diag.to_string e)
          | Ok w ->
            sweeps := w.sweeps;
            if w.sizes <> s.step_sizes then
              fail "step %d: replayed W-phase sizes differ" s.step_iter))
  in
  (List.rev !failures, !sweeps)

(* ---------- one job ---------- *)

let build_model (j : Workloads.job) =
  match j.granularity with
  | Workloads.Gate -> Model_cache.model ~tech:Tech.default_130nm j.netlist
  | Workloads.Transistor -> Transistor.of_netlist Tech.default_130nm j.netlist

(* the engine canonicalizes its flow duals exactly in this case *)
let canonical (o : Minflotransit.options) = o.canonical_duals || o.warm_start

let dphase_solves (j : job_result) =
  j.refine_perf.warm_starts + j.refine_perf.cold_starts

let run_job (options : Minflotransit.options) (j : Workloads.job) ~expected =
  let job = j.id in
  Model_cache.clear ();
  let minor0 = Gc.minor_words () in
  let (model, target, model_s, dmin_s), _ =
    span ~job "setup" (fun parent ->
        let model, model_s =
          span ~parent ~job "tech.model" (fun _ -> build_model j)
        in
        let dmin, dmin_s =
          span ~parent ~job "sweep.dmin" (fun _ -> Sweep.dmin model)
        in
        (model, j.factor *. dmin, model_s, dmin_s))
  in
  let steps = ref [] in
  let p0 = Perf.snapshot () in
  let (tilos, tilos_s, p1, result, refine_s), _ =
    span ~job "size" (fun parent ->
        let tilos, tilos_s =
          span ~parent ~job "tilos" (fun _ ->
              Tilos.size ~bump:options.tilos_bump model ~target)
        in
        let p1 = Perf.snapshot () in
        let result, refine_s =
          span ~parent ~job "refine" (fun parent ->
              if not tilos.met then None
              else
                (* each accepted iteration is the interval between two
                   consecutive [on_step] calls *)
                let on_step =
                  if not !tracing then None
                  else
                    let last = ref (Mono.now ()) in
                    Some
                      (fun (s : Minflotransit.step) ->
                        let now = Mono.now () in
                        record ~sid:(fresh_sid ()) ~parent ~job "iteration"
                          !last now;
                        last := now;
                        steps := s :: !steps)
                in
                Some
                  (Minflotransit.refine_from ~options ?on_step model ~target
                     ~init:tilos.sizes ~tilos))
        in
        (tilos, tilos_s, p1, result, refine_s))
  in
  let p2 = Perf.snapshot () in
  let minor_words = Gc.minor_words () -. minor0 in
  let failures, area, iterations =
    match result with
    | None -> ([ "TILOS could not meet the target" ], tilos.area, 0)
    | Some r -> (check_result model ~target ~tilos r ~expected, r.area, r.iterations)
  in
  let refine_perf = Perf.diff p1 p2 in
  let jr =
    { id = job;
      factor = j.factor;
      vertices = Delay_model.num_vertices model;
      area;
      iterations;
      model_s;
      dmin_s;
      tilos_s;
      refine_s;
      tilos_perf = Perf.diff p0 p1;
      refine_perf;
      minor_words;
      failures }
  in
  (jr, model, target, tilos, List.rev !steps)

(* Audit and replay one traced job, after its timed span. *)
let verify_job options (jr : job_result) model ~target ~(tilos : Tilos.result)
    steps =
  let job = jr.id and canonical = canonical options in
  let warm_state = Network_simplex.make_state () in
  let acc = ref [] and findings = ref 0 and certs = ref 0 and replayed = ref 0 in
  let sweeps = ref 0 and shape = ref (0, 0) in
  ignore
    (List.fold_left
       (fun sizes (s : Minflotransit.step) ->
         (match s.step_certificate with
         | None -> acc := Printf.sprintf "step %d has no certificate" s.step_iter :: !acc
         | Some cert ->
           incr certs;
           let found, _ =
             span ~job "audit" (fun _ -> Audit.check cert.problem cert.solution)
           in
           if found <> [] then begin
             findings := !findings + List.length found;
             acc :=
               Printf.sprintf "step %d: %d audit findings" s.step_iter
                 (List.length found)
               :: !acc
           end;
           let fails, sw =
             replay_step model ~job ~target ~canonical ~warm_state ~sizes s cert
           in
           incr replayed;
           sweeps := !sweeps + sw;
           shape := (Array.length cert.problem.arcs, cert.problem.num_nodes);
           acc := List.rev_append fails !acc);
         s.step_sizes)
       tilos.sizes steps);
  ( List.rev !acc,
    { certs = !certs;
      findings = !findings;
      dphase_solves = dphase_solves jr;
      replayed = !replayed;
      arcs = fst !shape;
      nodes = snd !shape;
      wphase_sweeps = !sweeps } )

let add_replay a b =
  { certs = a.certs + b.certs;
    findings = a.findings + b.findings;
    dphase_solves = a.dphase_solves + b.dphase_solves;
    replayed = a.replayed + b.replayed;
    arcs = a.arcs + b.arcs;
    nodes = a.nodes + b.nodes;
    wphase_sweeps = a.wphase_sweeps + b.wphase_sweeps }

(* ---------- one pass ---------- *)

(* [expected] maps a job id to its pinned (area, iterations); [None] skips
   the comparison (any seed but 0). The inputs are generated here, in the
   child, so the parent never grows a heap that every child would inherit. *)
let run (w : Workloads.t) ~seed ~smoke ~expected ~trace =
  tracing := trace;
  let jobs = w.jobs ~seed ~smoke in
  (* every child starts its measured work from an empty minor heap and a
     finished major cycle, whatever the parent allocated before the fork *)
  Gc.full_major ();
  let calib_before = Calibration.time () in
  let gc0 = Gc.quick_stat () in
  let results, replay =
    List.fold_left
      (fun (results, replay) (j : Workloads.job) ->
        let expected = Option.map (fun f -> f j.id) expected in
        let jr, model, target, tilos, steps = run_job w.options j ~expected in
        if not trace then (jr :: results, replay)
        else
          let fails, r = verify_job w.options jr model ~target ~tilos steps in
          let jr = { jr with failures = jr.failures @ fails } in
          ( jr :: results,
            Some (match replay with None -> r | Some acc -> add_replay acc r) ))
      ([], None) jobs
  in
  let gc1 = Gc.quick_stat () in
  let calib_after = Calibration.time () in
  Gc.full_major ();
  { jobs = List.rev results;
    calibration_s = [ calib_before; calib_after ];
    top_heap_words = gc1.top_heap_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    live_words = (Gc.stat ()).live_words;
    spans = List.rev !spans;
    replay }
