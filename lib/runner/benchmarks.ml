module Diag = Minflo_robust.Diag
module Io = Minflo_robust.Io
module Json = Minflo_util.Json
module Perf = Minflo_robust.Perf
module Delay_model = Minflo_tech.Delay_model
module Generators = Minflo_netlist.Generators
module Minflotransit = Minflo_sizing.Minflotransit
module Trace = Minflo_lint.Trace

type experiment = {
  circuit : string;
  mode : string;
  target_factor : float;
  gates : int;
  area : float;
  met : bool;
  iterations : int;
  audit_findings : int;
  counters : Perf.counters;
  wall_seconds : float;
}

let schema = "minflo-bench/2"
let quick_circuits = [ "c432"; "c880" ]
let full_circuits = [ "c432"; "c880"; "c1908"; "c6288" ]
let target_factor = 0.6

let run_netlist ~circuit ~nl ~warm =
  let recipe = Job.recipe nl in
  let model = recipe.Job.model in
  let target = Job.target recipe ~factor:target_factor in
  let options =
    { Minflotransit.default_options with
      Minflotransit.warm_start = warm;
      canonical_duals = true }
  in
  (* [minflo audit-run]'s auditor checks each record as the run emits it,
     in one sizing and one LP of memory at any scale. Its counter ticks
     and time are taken out *)
  let auditor = Trace.Auditor.create model ~target in
  let audit_counters = ref (Perf.zero ()) and audit_seconds = ref 0.0 in
  let emit record =
    let before = Perf.snapshot () in
    let (), s = Perf.timed (fun () -> Trace.Auditor.feed auditor record) in
    audit_counters := Perf.add !audit_counters Perf.(diff before (snapshot ()));
    audit_seconds := !audit_seconds +. s
  in
  let before = Perf.snapshot () in
  let (result : Minflotransit.result), wall =
    Perf.timed (fun () -> Trace.run ~options ~emit model ~circuit ~target)
  in
  { circuit;
    mode = (if warm then "warm" else "cold");
    target_factor;
    gates = Delay_model.num_vertices model;
    area = result.area;
    met = result.met;
    iterations = result.iterations;
    audit_findings = List.length (Trace.Auditor.finish auditor);
    counters = Perf.(diff !audit_counters (diff before (snapshot ())));
    wall_seconds = wall -. !audit_seconds }

let run_one ~circuit ~warm =
  run_netlist ~circuit ~nl:(Minflo_netlist.Iscas85.circuit circuit) ~warm

let suite ?(quick = false) () =
  let circuits = if quick then quick_circuits else full_circuits in
  List.concat_map
    (fun c -> [ run_one ~circuit:c ~warm:false; run_one ~circuit:c ~warm:true ])
    circuits

(* ---------- the scaling grid ---------- *)

(* Synthetic circuits well past the ISCAS-85 sizes (c6288 is ~2.4k
   vertices): ripple adders for depth, array multipliers for the
   c6288-style reconvergent structure, and a layered random DAG for bulk.
   All generators are deterministic, so counters stay baseline-exact. *)
let scale_circuits =
  [ ("rca1024", fun () -> Generators.ripple_carry_adder ~bits:1024 ());
    ("rca4096", fun () -> Generators.ripple_carry_adder ~bits:4096 ());
    ("mul32", fun () -> Generators.array_multiplier ~bits:32 ());
    ("mul64", fun () -> Generators.array_multiplier ~bits:64 ());
    ( "dag50k",
      fun () ->
        Generators.random_dag ~gates:50_000 ~inputs:64 ~outputs:32 ~seed:7 () )
  ]

let scale_quick_names = [ "rca1024"; "mul32" ]

let scale_suite ?(quick = false) () =
  let selected =
    if quick then
      List.filter (fun (n, _) -> List.mem n scale_quick_names) scale_circuits
    else scale_circuits
  in
  (* warm legs only: the scaling story is the steady-state engine; the
     cold-vs-warm contrast is already tracked by the ISCAS grid *)
  List.map (fun (name, gen) -> run_netlist ~circuit:name ~nl:(gen ()) ~warm:true)
    selected

(* ---------- rendering ---------- *)

(* Every member but [wall_seconds] is a pure function of the inputs. The
   floats are quantized to the precision the baseline pins: [area] to nine
   decimals, [target_factor] to three. *)
let to_json e =
  let int i = Json.Num (float_of_int i) in
  let fixed digits v =
    Json.Num (float_of_string (Printf.sprintf "%.*f" digits v))
  in
  Json.Obj
    ([ ("circuit", Json.Str e.circuit);
       ("mode", Json.Str e.mode);
       ("target_factor", fixed 3 e.target_factor);
       ("gates", int e.gates);
       ("area", fixed 9 e.area);
       ("met", Json.Bool e.met);
       ("iterations", int e.iterations);
       ("audit_findings", int e.audit_findings) ]
    @ List.map (fun (k, v) -> (k, int v)) (Perf.to_fields e.counters)
    @ [ ("wall_seconds", fixed 3 e.wall_seconds) ])

(* one experiment per line, so baseline diffs stay line-oriented *)
let render experiments =
  Printf.sprintf "{\"schema\": \"%s\",\n \"experiments\": [\n%s\n ]}\n" schema
    (String.concat ",\n"
       (List.map (fun e -> "  " ^ Json.to_string (to_json e)) experiments))

(* ---------- baseline check ---------- *)

let stable = function
  | Json.Obj members -> List.remove_assoc "wall_seconds" members
  | _ -> []

(* one line per member the two sides disagree on, in both directions *)
let member_diffs ~base ~run =
  let show = function Some v -> Json.to_string v | None -> "(absent)" in
  List.filter_map
    (fun k ->
      let b = List.assoc_opt k base and r = List.assoc_opt k run in
      if b = r then None
      else Some (Printf.sprintf "%s baseline %s, run %s" k (show b) (show r)))
    (List.sort_uniq String.compare (List.map fst base @ List.map fst run))

type baseline = Json.t list

let load_baseline path =
  let corrupt detail = Error (Diag.Storage_corrupt { file = path; detail }) in
  match Io.read_file path with
  | Error e -> Error e
  | Ok text -> (
    match Json.parse text with
    | Error msg -> corrupt msg
    | Ok doc -> (
      match Json.member "experiments" doc with
      | Some (Json.List xs) -> Ok xs
      | _ -> corrupt "no \"experiments\" list"))

let check ~baseline:base experiments =
  (* Experiments are keyed by (circuit, mode): every experiment this run
     produced must match its baseline entry exactly. Baseline entries the
     run did not exercise are fine — that is what lets the CI smoke job run
     the quick grid against the full checked-in baseline. *)
  let key j = (Json.str_field "circuit" j, Json.str_field "mode" j) in
  let divergence base e =
    let name = Printf.sprintf "%s/%s" e.circuit e.mode in
    let entry = (Some e.circuit, Some e.mode) in
    match List.find_opt (fun b -> key b = entry) base with
    | None -> Some ("no baseline entry for " ^ name)
    | Some b -> (
      match member_diffs ~base:(stable b) ~run:(stable (to_json e)) with
      | [] -> None
      | ds -> Some (name ^ ": " ^ String.concat "; " ds))
  in
  match List.filter_map (divergence base) experiments with
  | [] -> Ok ()
  | ds -> Error ds

(* ---------- the headline metric ---------- *)

let pivot_reduction experiments ~circuit =
  let find mode =
    List.find_opt (fun e -> e.circuit = circuit && e.mode = mode) experiments
  in
  match (find "cold", find "warm") with
  | Some c, Some w when c.counters.Perf.pivots > 0 ->
    Some
      (100.
      *. float_of_int (c.counters.Perf.pivots - w.counters.Perf.pivots)
      /. float_of_int c.counters.Perf.pivots)
  | _ -> None
