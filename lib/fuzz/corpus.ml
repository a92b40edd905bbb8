module Io = Minflo_robust.Io
module Bench_format = Minflo_netlist.Bench_format
module Job = Minflo_runner.Job
module Checkpoint = Minflo_runner.Checkpoint
module Json = Minflo_util.Json

type repro = {
  fingerprint : Fingerprint.t;
  seed : int;
  config : Oracle.config;
  netlist : Minflo_netlist.Netlist.t;
}

let magic = "minflo-repro"

let version = 2

let file_name r =
  Printf.sprintf "%s-%d.repro" (Fingerprint.slug r.fingerprint) r.seed

(* ---------- the repro document ---------- *)

let to_json r =
  let c = r.config and int i = Json.Num (float_of_int i) in
  Json.Obj
    [ ("format", Json.Str magic);
      ("version", int version);
      ("fingerprint", Json.Str (Fingerprint.to_string r.fingerprint));
      ("seed", int r.seed);
      ("target_factor", Json.of_float c.Oracle.target_factor);
      ("dw_iterations", int c.dw_iterations);
      ("budget_iterations", int c.budget_iterations);
      ("budget_pivots", int c.budget_pivots);
      ( "solvers",
        Json.List
          (List.map (fun s -> Json.Str (Job.solver_name s)) c.solvers) );
      ("differential", Json.Bool c.differential);
      ("tolerance", Json.of_float c.tolerance);
      ( "fault_site",
        match c.fault_site with Some s -> Json.Str s | None -> Json.Null );
      ("fault_seed", int c.fault_seed);
      ("netlist", Json.Str (Bench_format.to_string r.netlist)) ]

let save ~dir r =
  let path = Filename.concat dir (file_name r) in
  Result.bind (Io.mkdirs dir) (fun () ->
      Result.map (fun () -> path)
        (Io.atomic_replace path (Json.to_string (to_json r))))

(* ---------- load ---------- *)

(* readers for [Checkpoint.field]: [None] on a wrong shape *)
let fingerprint key doc =
  Option.bind (Json.str_field key doc) Fingerprint.of_string

let solvers key doc =
  match Json.member key doc with
  | Some (Json.List (_ :: _ as names)) ->
    let parsed =
      List.filter_map
        (function Json.Str n -> Job.solver_of_string n | _ -> None)
        names
    in
    if List.length parsed = List.length names then Some parsed else None
  | _ -> None

let fault_site key doc =
  match Json.member key doc with
  | Some Json.Null -> Some None
  | _ -> Option.map Option.some (Json.str_field key doc)

let load path =
  let ( let* ) = Result.bind in
  let* doc = Checkpoint.read_document ~format:magic ~version path in
  let req read key = Checkpoint.field path doc read key in
  let* fingerprint = req fingerprint "fingerprint" in
  let* seed = req Json.int_field "seed" in
  let* target_factor = req Json.float_field "target_factor" in
  let* dw_iterations = req Json.int_field "dw_iterations" in
  let* budget_iterations = req Json.int_field "budget_iterations" in
  let* budget_pivots = req Json.int_field "budget_pivots" in
  let* solvers = req solvers "solvers" in
  let* differential = req Json.bool_field "differential" in
  let* tolerance = req Json.float_field "tolerance" in
  let* fault_site = req fault_site "fault_site" in
  let* fault_seed = req Json.int_field "fault_seed" in
  let* bench = req Json.str_field "netlist" in
  let* netlist = Bench_format.parse_string bench in
  Ok
    { fingerprint;
      seed;
      config =
        { Oracle.target_factor;
          dw_iterations;
          budget_iterations;
          budget_pivots;
          solvers;
          differential;
          tolerance;
          fault_site;
          fault_seed };
      netlist }

let list dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
