(* The repository benchmark: four sizing workloads, end-to-end metrics
   (wall, set-up, peak heap, area) and an outside-in per-layer trace.

     dune exec benchmark/run.exe -- --seed 0                 # all workloads
     dune exec benchmark/run.exe -- --workload dag_bulk --seed 3 \
       --seconds 30 --trace 1                                 # one, traced

   Every pass runs in a freshly forked child, one at a time (a closed loop:
   a pass sizes its jobs one after another), so no pass inherits another's
   heap, caches or GC state. With --trace 0 the last stdout line carries
   the end-to-end metrics; with --trace 1 one extra traced pass runs and
   the line carries the per-layer metrics instead. The full report goes to
   benchmark/out/<workload>-seed<N>.json, spans to *.spans.jsonl.
   README.md documents every metric. *)

module Json = Minflo_util.Json
module Stats = Minflo_util.Stats
module Mono = Minflo_robust.Mono

let out_dir = "benchmark/out"
let expected_file = "benchmark/expected.json"

(* fewest untraced passes per run: a median, and two passes for the
   determinism check to compare *)
let min_passes = 3

(* ---------- process isolation ---------- *)

(* Runs [f] in a forked child and returns its marshalled result. The parent
   does no sizing work, so every child starts from the same heap. *)
let in_child (f : unit -> Pass.t) : (Pass.t, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let v = f () in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      with e ->
        prerr_endline ("benchmark pass raised " ^ Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v : Pass.t option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (match (status, v) with
    | Unix.WEXITED 0, Some v -> Ok v
    | Unix.WEXITED c, _ -> Error (Printf.sprintf "pass exited with code %d" c)
    | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "pass killed by signal %d" s))

(* ---------- expected rows ---------- *)

let load_expected () =
  let fail msg =
    prerr_endline ("benchmark: " ^ expected_file ^ ": " ^ msg);
    exit 2
  in
  match In_channel.with_open_bin expected_file In_channel.input_all with
  | exception Sys_error msg -> fail msg
  | text -> (
    match Json.parse text with
    | Error msg -> fail msg
    | Ok doc ->
      fun workload id ->
        Option.bind (Json.member workload doc) (fun rows ->
            Option.bind (Json.member id rows) (fun row ->
                match (Json.num_field "area" row, Json.int_field "iterations" row) with
                | Some a, Some i -> Some (a, i)
                | _ -> None)))

(* ---------- statistics ---------- *)

let median xs = Stats.median (Array.of_list xs)
let quartiles xs =
  let a = Array.of_list xs in
  (Stats.percentile a 25.0, Stats.percentile a 75.0)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let size_wall (p : Pass.t) =
  sum (fun (j : Pass.job_result) -> j.tilos_s +. j.refine_s) p.jobs

let setup_wall (p : Pass.t) =
  sum (fun (j : Pass.job_result) -> j.model_s +. j.dmin_s) p.jobs

let calibration passes =
  median (List.concat_map (fun (p : Pass.t) -> p.calibration_s) passes)

(* A median wall time of [passes], rescaled to the nominal machine speed
   (calibration.ml explains why). *)
let calibrated f passes =
  median (List.map f passes) *. Calibration.nominal_s /. calibration passes

let peak_heap_mb (p : Pass.t) = mb_of_words p.top_heap_words

(* ---------- determinism ---------- *)

(* Every pass of a run sizes identical inputs in an identical fresh
   process, so these must repeat exactly; a difference is a failure. *)
let fingerprint (j : Pass.job_result) =
  ( Printf.sprintf "%.17g" j.area,
    j.iterations,
    j.tilos_perf.bumps,
    j.tilos_perf.incr_updates,
    j.refine_perf.pivots,
    Pass.dphase_solves j,
    j.minor_words )

let determinism_failures (first : Pass.t) (p : Pass.t) ~traced =
  List.map2
    (fun (a : Pass.job_result) (b : Pass.job_result) ->
      let same =
        if traced then (a.area, a.iterations) = (b.area, b.iterations)
        else fingerprint a = fingerprint b
      in
      if same then []
      else [ Printf.sprintf "%s: counters differ from the first pass" b.id ])
    first.jobs p.jobs

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let metric_obj x =
  (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ])

let end_to_end untraced ~area_sum =
  [ m "size_s" "s" (calibrated size_wall untraced);
    m "setup_s" "s" (calibrated setup_wall untraced);
    m "peak_heap_mb" "MB" (median (List.map peak_heap_mb untraced));
    m "area_sum" "area" area_sum ]

(* self time: a span's duration minus the part its children cover *)
let self_times (spans : Pass.span list) =
  let dur (s : Pass.span) = s.stop -. s.start in
  let child = Hashtbl.create 64 in
  List.iter
    (fun (s : Pass.span) ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Pass.span) ->
      let self =
        dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid)
      in
      let n, t =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    spans;
  by_name

let per_layer untraced (traced : Pass.t) ~canonical =
  let first = List.hd untraced in
  let jobs f = sum f first.Pass.jobs and counts f = isum f first.Pass.jobs in
  let med f = median (List.map (fun (p : Pass.t) -> sum f p.jobs) untraced) in
  let tilos_s = med (fun j -> j.tilos_s) and refine_s = med (fun j -> j.refine_s) in
  let bumps = counts (fun j -> j.tilos_perf.bumps) in
  let solves = counts Pass.dphase_solves in
  let pivots = counts (fun j -> j.refine_perf.pivots) in
  let iterations = counts (fun j -> j.iterations) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let self = self_times traced.spans in
  let time name = snd (Option.value ~default:(0, 0.0) (Hashtbl.find_opt self name)) in
  let r = Option.get traced.replay in
  let sta = time "timing.sta" and bal = time "timing.balance" in
  let sens = time "sizing.sensitivity" in
  let lp_self = time "dphase.displacement_problem" -. sta -. bal -. sens in
  let canonical_s = time "flow.canonical" in
  let attributed =
    sta +. bal +. sens +. lp_self +. time "flow.mcf" +. time "wphase"
    +. if canonical then canonical_s else 0.0
  in
  let untraced_size = calibrated size_wall untraced in
  let f = float_of_int in
  [ m "tech.model_s" "s" (med (fun j -> j.model_s));
    m "tech.vertices" "count" (f (counts (fun j -> j.vertices)));
    m "sweep.dmin_s" "s" (med (fun j -> j.dmin_s));
    m "tilos.s" "s" tilos_s;
    m "tilos.bumps" "count" (f bumps);
    m "tilos.incr_updates" "count" (f (counts (fun j -> j.tilos_perf.incr_updates)));
    m "tilos.us_per_bump" "us" (if bumps = 0 then 0.0 else 1e6 *. tilos_s /. f bumps);
    m "refine.s" "s" refine_s;
    m "refine.iterations" "count" (f iterations);
    m "refine.dphase_solves" "count" (f solves);
    m "refine.accept_ratio" "ratio" (ratio iterations solves);
    m "flow.pivots" "count" (f pivots);
    m "flow.warm_starts" "count" (f (counts (fun j -> j.refine_perf.warm_starts)));
    m "flow.cold_starts" "count" (f (counts (fun j -> j.refine_perf.cold_starts)));
    m "flow.pivots_per_solve" "count" (ratio pivots solves);
    m "gc.minor_mb" "MB" (jobs (fun j -> j.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6);
    m "gc.major_collections" "count"
      (median (List.map (fun (p : Pass.t) -> f p.major_collections) untraced));
    m "gc.live_after_mb" "MB"
      (median (List.map (fun (p : Pass.t) -> mb_of_words p.live_words) untraced));
    m "timing.sta_s" "s" sta;
    m "timing.balance_s" "s" bal;
    m "sizing.sensitivity_s" "s" sens;
    m "dphase.lp_build_self_s" "s" lp_self;
    m "flow.mcf_s" "s" (time "flow.mcf");
    m "flow.canonical_s" "s" canonical_s;
    m "flow.arcs" "count" (f r.arcs);
    m "flow.nodes" "count" (f r.nodes);
    m "wphase.s" "s" (time "wphase");
    m "wphase.sweeps" "count" (f r.wphase_sweeps);
    m "audit.s" "s" (time "audit");
    m "audit.certs" "count" (f r.certs);
    m "audit.findings" "count" (f r.findings);
    m "replay.coverage" "ratio" (ratio r.replayed r.dphase_solves);
    m "refine.unattributed_s" "s"
      (sum (fun (j : Pass.job_result) -> j.refine_s) traced.jobs -. attributed);
    m "trace.overhead_pct" "%"
      (100.0 *. (calibrated size_wall [ traced ] -. untraced_size) /. untraced_size) ]

(* ---------- one workload ---------- *)

type outcome = {
  workload : string;
  attempted : int;
  failed : int;  (** attempted jobs with at least one failure. *)
  failures : string list;
  summary : string;  (** passes, raw wall quartiles, calibration. *)
  metrics : metric list;
  report : Json.t;
  spans : Pass.span list;
}

(* Untraced passes until the next one would overrun [seconds] (at least
   [min_passes]), then the traced pass if asked. *)
let run_workload (w : Workloads.t) ~seed ~smoke ~seconds ~trace ~expected =
  let expected = Option.map (fun f -> f w.name) expected in
  let pass traced =
    in_child (fun () -> Pass.run w ~seed ~smoke ~expected ~trace:traced)
  in
  let t0 = Mono.now () in
  let rec loop acc n =
    let elapsed = Mono.elapsed_since t0 in
    if n >= min_passes && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds
    then List.rev acc
    else loop (pass false :: acc) (n + 1)
  in
  let results = loop [] 0 in
  let traced = if trace then [ pass true ] else [] in
  let ok = List.filter_map Result.to_option results in
  (* one entry per attempted job: its failure messages, [] when it passed;
     a pass that died counts as one failed attempt *)
  let verdicts =
    let judge ~traced = function
      | Error e -> [ [ e ] ]
      | Ok (p : Pass.t) ->
        let same =
          match ok with
          | first :: _ -> determinism_failures first p ~traced
          | [] -> List.map (fun _ -> []) p.jobs
        in
        List.map2
          (fun (j : Pass.job_result) d ->
            List.map (fun f -> j.id ^ ": " ^ f) j.failures @ d)
          p.jobs same
    in
    List.concat_map (judge ~traced:false) results
    @ List.concat_map (judge ~traced:true) traced
  in
  let failures = List.concat verdicts in
  let failed = List.length (List.filter (( <> ) []) verdicts) in
  let first = match ok with p :: _ -> Some p | [] -> None in
  let area_sum =
    match first with
    | Some p -> sum (fun (j : Pass.job_result) -> j.area) p.jobs
    | None -> nan
  in
  let metrics =
    match (first, traced) with
    | Some _, [ Ok t ] -> per_layer ok t ~canonical:(Pass.canonical w.options)
    | Some _, [] -> end_to_end ok ~area_sum
    | _ -> []
  in
  let samples f = Json.List (List.map (fun p -> Json.Num (f p)) ok) in
  let q f =
    let lo, hi = if ok = [] then (nan, nan) else quartiles (List.map f ok) in
    Json.Obj [ ("q1", Json.Num lo); ("q3", Json.Num hi) ]
  in
  let job_row (j : Pass.job_result) =
    Json.Obj
      [ ("id", Json.Str j.id);
        ("factor", Json.Num j.factor);
        ("vertices", Json.Num (float_of_int j.vertices));
        ("area", Json.Raw (Printf.sprintf "%.9f" j.area));
        ("iterations", Json.Num (float_of_int j.iterations));
        ("tilos_bumps", Json.Num (float_of_int j.tilos_perf.bumps));
        ("pivots", Json.Num (float_of_int j.refine_perf.pivots)) ]
  in
  let report =
    Json.Obj
      [ ("workload", Json.Str w.name);
        ("seed", Json.Num (float_of_int seed));
        ("smoke", Json.Bool smoke);
        ("seconds", Json.Num seconds);
        ("passes", Json.Num (float_of_int (List.length results)));
        ("jobs", Json.List (match first with Some p -> List.map job_row p.jobs | None -> []));
        ("area_sum", Json.Num area_sum);
        ( "samples",
          Json.Obj
            [ ("size_wall_s", samples size_wall);
              ("setup_wall_s", samples setup_wall);
              ("peak_heap_mb", samples peak_heap_mb);
              ( "calibration_s",
                Json.List
                  (List.concat_map
                     (fun (p : Pass.t) -> List.map (fun c -> Json.Num c) p.calibration_s)
                     ok) ) ] );
        ( "quartiles",
          Json.Obj
            [ ("size_wall_s", q size_wall);
              ("setup_wall_s", q setup_wall);
              ("peak_heap_mb", q peak_heap_mb) ] );
        ("metrics", Json.Obj (List.map metric_obj metrics));
        ("failures", Json.List (List.map (fun s -> Json.Str s) failures)) ]
  in
  let summary =
    match ok with
    | [] -> "no pass completed"
    | _ ->
      let med_q f =
        let lo, hi = quartiles (List.map f ok) in
        Printf.sprintf "%.4f s [q1 %.4f, q3 %.4f]" (median (List.map f ok)) lo hi
      in
      Printf.sprintf
        "%d passes; wall size %s, setup %s; calibration %.4f s (nominal %.2f)"
        (List.length ok) (med_q size_wall) (med_q setup_wall) (calibration ok)
        Calibration.nominal_s
  in
  { workload = w.name;
    summary;
    attempted = List.length verdicts;
    failed;
    failures;
    metrics;
    report;
    spans = (match traced with [ Ok t ] -> t.spans | _ -> []) }

(* ---------- output ---------- *)

let write_outputs o ~seed ~smoke =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base =
    Printf.sprintf "%s/%s-seed%d%s" out_dir o.workload seed
      (if smoke then "-smoke" else "")
  in
  Out_channel.with_open_bin (base ^ ".json") (fun oc ->
      output_string oc (Json.to_string o.report);
      output_char oc '\n');
  if o.spans <> [] then begin
    let t0 = List.fold_left (fun t (s : Pass.span) -> min t s.start) infinity o.spans in
    Out_channel.with_open_bin (base ^ ".spans.jsonl") (fun oc ->
        List.iter
          (fun (s : Pass.span) ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [ ("id", Json.Num (float_of_int s.sid));
                      ("name", Json.Str s.name);
                      ("job", Json.Str s.job);
                      ("start", Json.Num (s.start -. t0));
                      ("end", Json.Num (s.stop -. t0));
                      ("parent", Json.Num (float_of_int s.parent)) ]));
            output_char oc '\n')
          o.spans)
  end

let print_outcome o =
  Printf.printf "== %s ==\n  %s\n" o.workload o.summary;
  List.iter (fun x -> Printf.printf "  %-24s %16.6f %s\n" x.name x.value x.unit_) o.metrics;
  if o.spans <> [] then begin
    Printf.printf "  %-30s %6s %12s\n" "span" "count" "self_s";
    let self = self_times o.spans in
    Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) self []
    |> List.sort compare
    |> List.iter (fun (name, n, t) -> Printf.printf "  %-30s %6d %12.6f\n" name n t)
  end;
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) o.failures

let result_line outcomes ~prefix =
  let failed = List.fold_left (fun acc o -> acc + o.failed) 0 outcomes in
  let metrics =
    List.concat_map
      (fun o ->
        List.map
          (fun x ->
            metric_obj (if prefix then { x with name = o.workload ^ "." ^ x.name } else x))
          o.metrics)
      outcomes
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Num (float_of_int (List.fold_left (fun a o -> a + o.attempted) 0 outcomes)));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics) ])

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 30.0 in
  let trace = ref 0 and smoke = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME one of table1, adder_deep, dag_bulk, transistor (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed; 0 = canonical inputs (default 0)");
      ("--seconds", Arg.Set_float seconds, "S untraced measuring time per workload (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 add a traced pass and report per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny inputs (the dune runtest smoke check)") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  let workloads =
    if !workload = "" then Workloads.all
    else
      match Workloads.find !workload with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("benchmark: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "benchmark: --trace takes 0 or 1";
    exit 2
  end;
  let expected = if !seed = 0 then Some (load_expected ()) else None in
  let outcomes =
    List.map
      (fun w ->
        let o =
          run_workload w ~seed:!seed ~smoke:!smoke ~seconds:!seconds
            ~trace:(!trace = 1) ~expected
        in
        print_outcome o;
        write_outputs o ~seed:!seed ~smoke:!smoke;
        o)
      workloads
  in
  print_endline (result_line outcomes ~prefix:(List.length outcomes > 1));
  if List.exists (fun o -> o.failures <> [] || o.metrics = []) outcomes then exit 1
