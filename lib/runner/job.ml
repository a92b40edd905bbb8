module Diag = Minflo_robust.Diag
module Netlist = Minflo_netlist.Netlist
module Raw = Minflo_netlist.Raw
module Bench_format = Minflo_netlist.Bench_format
module Verilog_format = Minflo_netlist.Verilog_format
module Generators = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Json = Minflo_util.Json

module Dphase = Minflo_sizing.Dphase

type t = { circuit : string; factor : float; solver : Dphase.solver }

let id j =
  Printf.sprintf "%s@%.3f/%s" j.circuit j.factor (Dphase.solver_name j.solver)

let file_slug j =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    (id j)

let fields j =
  [ ("circuit", Json.Str j.circuit);
    ("factor", Json.of_float j.factor);
    ("solver", Json.Str (Dphase.solver_name j.solver)) ]

let cross ~circuits ~factors ~solvers =
  List.concat_map
    (fun circuit ->
      List.concat_map
        (fun factor ->
          List.map (fun solver -> { circuit; factor; solver }) solvers)
        factors)
    circuits

(* where a circuit spec points: a netlist file, with the reader its
   extension picks, or a built-in circuit, built directly so its areas do
   not depend on a print/parse round trip *)
let source spec =
  if Sys.file_exists spec then
    Ok
      (`File
        (if Filename.check_suffix spec ".v" then Verilog_format.parse_raw_file
         else Bench_format.parse_raw_file))
  else if spec = "c17" then Ok (`Builtin Generators.c17)
  else
    match Iscas85.find_info spec with
    | Some _ -> Ok (`Builtin (fun () -> Iscas85.circuit spec))
    | None ->
      Error
        (Diag.Unknown_circuit
           { name = spec;
             known =
               "c17"
               :: List.map (fun (i : Iscas85.info) -> i.name) Iscas85.suite })

let load_raw spec =
  Result.bind (source spec) (function
    | `File parse_raw -> parse_raw spec
    | `Builtin build -> Ok (Raw.of_netlist (build ())))

let load_circuit spec =
  Result.bind (source spec) (function
    | `File parse_raw -> Result.bind (parse_raw spec) Raw.elaborate
    | `Builtin build -> Ok (build ()))

type outcome = {
  job : t;
  area : float;
  area_ratio : float;
  cp : float;
  target : float;
  met : bool;
  iterations : int;
  saving_pct : float;
  stop : string;
  resumed : bool;
  perf : Minflo_robust.Perf.counters;
}

(* ---------- the recipe: circuit -> model -> Dmin -> target ---------- *)

type recipe = { model : Minflo_tech.Delay_model.t; dmin : float }

let recipe nl =
  let model =
    Minflo_tech.Model_cache.model ~tech:Minflo_tech.Tech.default_130nm nl
  in
  { model; dmin = Minflo_sizing.Sweep.dmin model }

let target r ~factor = factor *. r.dmin

(* ---------- outcome <-> JSON fields ---------- *)

let outcome_fields o =
  [ ("area", Json.of_float o.area);
    ("area_ratio", Json.of_float o.area_ratio);
    ("cp", Json.of_float o.cp);
    ("target", Json.of_float o.target);
    ("met", Json.Bool o.met);
    ("iterations", Json.Num (float_of_int o.iterations));
    ("saving_pct", Json.of_float o.saving_pct);
    ("stop", Json.Str o.stop);
    ("resumed", Json.Bool o.resumed) ]

let outcome_of_json job j =
  let ( let* ) = Option.bind in
  let num k = Json.float_field k j and bool k = Json.bool_field k j in
  let* area = num "area" in
  let* area_ratio = num "area_ratio" in
  let* cp = num "cp" in
  let* target = num "target" in
  let* met = bool "met" in
  let* iterations = Json.int_field "iterations" j in
  let* saving_pct = num "saving_pct" in
  let* stop = Json.str_field "stop" j in
  let* resumed = bool "resumed" in
  Some
    { job;
      area;
      area_ratio;
      cp;
      target;
      met;
      iterations;
      saving_pct;
      stop;
      resumed;
      perf = Minflo_robust.Perf.zero () }
