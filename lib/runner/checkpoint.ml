module Diag = Minflo_robust.Diag
module Io = Minflo_robust.Io
module Minflotransit = Minflo_sizing.Minflotransit
module Tilos = Minflo_sizing.Tilos
module Json = Minflo_util.Json

type t = {
  circuit : string;
  circuit_hash : int64;
  target : float;
  solver : string;
  fault_seed : int option;
  snapshot : Minflotransit.snapshot;
  tilos : Tilos.result;
  budget_iterations : int;
  budget_pivots : int;
  budget_elapsed : float;
}

let version = 2

let magic = "minflo-checkpoint"

(* ---------- circuit hashing ---------- *)

(* FNV-1a 64-bit over the canonical .bench rendering: cheap, stable across
   processes (unlike Hashtbl.hash on boxed data), and any structural edit
   to the netlist changes the text. Shared with the model cache so a
   checkpoint's circuit binding and the cache key agree by construction. *)
let hash_netlist = Minflo_tech.Model_cache.hash_netlist

(* ---------- versioned JSON documents ---------- *)

let invalid file reason = Error (Diag.Checkpoint_invalid { file; reason })

(* The strict parse is the truncation check: a file cut anywhere short of
   its closing brace is not a JSON value. *)
let read_document ~format ~version path =
  let ( let* ) = Result.bind in
  let* text = Io.read_file path in
  match Json.parse text with
  | Error msg -> (
    (* version 1 was line-oriented, headed "<format> 1" *)
    let first_line = List.hd (String.split_on_char '\n' text) in
    match String.split_on_char ' ' first_line with
    | [ f; v ] when f = format ->
      invalid path
        (Printf.sprintf "format version %s (this build reads %d)" v version)
    | _ -> invalid path ("not a JSON document (truncated?): " ^ msg))
  | Ok doc -> (
    match (Json.str_field "format" doc, Json.int_field "version" doc) with
    | Some f, Some v when f = format && v = version -> Ok doc
    | Some f, Some v when f = format ->
      invalid path
        (Printf.sprintf "format version %d (this build reads %d)" v version)
    | _ -> invalid path (Printf.sprintf "not a %s (bad magic)" format))

let field path doc read key =
  match read key doc with
  | Some v -> Ok v
  | None when Json.member key doc = None ->
    invalid path (Printf.sprintf "missing field %S" key)
  | None -> invalid path (Printf.sprintf "malformed field %S" key)

(* ---------- the checkpoint document ---------- *)

let int i = Json.Num (float_of_int i)
let nullable f = function Some v -> f v | None -> Json.Null
let floats a = Json.List (Array.to_list (Array.map Json.of_float a))

let to_json ck =
  let s = ck.snapshot and t = ck.tilos in
  Json.Obj
    [ ("format", Json.Str magic);
      ("version", int version);
      ("circuit", Json.Str ck.circuit);
      ("circuit_hash", Json.Str (Printf.sprintf "%016Lx" ck.circuit_hash));
      ("target", Json.of_float ck.target);
      ("solver", Json.Str ck.solver);
      ("fault_seed", nullable int ck.fault_seed);
      ("iter", int s.Minflotransit.snap_iter);
      ("eta", Json.of_float s.snap_eta);
      ("area", Json.of_float s.snap_area);
      ("osc_area", Json.of_float s.snap_osc_area);
      ("osc_repeats", int s.snap_osc_repeats);
      ("solver_used", nullable (fun n -> Json.Str n) s.snap_solver);
      ("budget_iterations", int ck.budget_iterations);
      ("budget_pivots", int ck.budget_pivots);
      ("budget_elapsed", Json.of_float ck.budget_elapsed);
      ("tilos_met", Json.Bool t.Tilos.met);
      ("tilos_bumps", int t.bumps);
      ("tilos_cp", Json.of_float t.final_cp);
      ("tilos_area", Json.of_float t.area);
      ("sizes", floats s.snap_sizes);
      ("tilos_sizes", floats t.sizes) ]

(* write-tmp + fsync + rename + dir-fsync, via the instrumented layer: a
   torn checkpoint can never shadow a good one, and the io.* fault sites
   (ENOSPC, torn rename, crash boundaries) apply to every save. No
   trailing newline: every proper prefix of the file then fails to parse. *)
let save path ck = Io.atomic_replace path (Json.to_string (to_json ck))

(* readers for [field]: [None] on a wrong shape *)
let or_null read key doc =
  match Json.member key doc with
  | Some Json.Null -> Some None
  | _ -> Option.map Option.some (read key doc)

let hex64 key doc =
  match Json.str_field key doc with
  | Some h when String.length h = 16 -> Int64.of_string_opt ("0x" ^ h)
  | _ -> None

let load path =
  let ( let* ) = Result.bind in
  let* doc = read_document ~format:magic ~version path in
  let req read key = field path doc read key in
  let* circuit = req Json.str_field "circuit" in
  let* circuit_hash = req hex64 "circuit_hash" in
  let* target = req Json.float_field "target" in
  let* solver = req Json.str_field "solver" in
  let* fault_seed = req (or_null Json.int_field) "fault_seed" in
  let* snap_iter = req Json.int_field "iter" in
  let* snap_eta = req Json.float_field "eta" in
  let* snap_area = req Json.float_field "area" in
  let* snap_osc_area = req Json.float_field "osc_area" in
  let* snap_osc_repeats = req Json.int_field "osc_repeats" in
  let* snap_solver = req (or_null Json.str_field) "solver_used" in
  let* budget_iterations = req Json.int_field "budget_iterations" in
  let* budget_pivots = req Json.int_field "budget_pivots" in
  let* budget_elapsed = req Json.float_field "budget_elapsed" in
  let* met = req Json.bool_field "tilos_met" in
  let* bumps = req Json.int_field "tilos_bumps" in
  let* final_cp = req Json.float_field "tilos_cp" in
  let* area = req Json.float_field "tilos_area" in
  let* snap_sizes = req (Json.array_field Json.to_float) "sizes" in
  let* sizes = req (Json.array_field Json.to_float) "tilos_sizes" in
  Ok
    { circuit;
      circuit_hash;
      target;
      solver;
      fault_seed;
      snapshot =
        { Minflotransit.snap_iter;
          snap_sizes;
          snap_area;
          snap_eta;
          snap_osc_area;
          snap_osc_repeats;
          snap_solver };
      tilos = { Tilos.sizes; met; bumps; final_cp; area };
      budget_iterations;
      budget_pivots;
      budget_elapsed }

let validate ~file ck ~circuit_hash ~target ~solver =
  if ck.circuit_hash <> circuit_hash then
    Error
      (Diag.Checkpoint_invalid
         { file;
           reason =
             Printf.sprintf
               "circuit hash mismatch: checkpoint %016Lx, run %016Lx — the \
                circuit changed since the checkpoint was written"
               ck.circuit_hash circuit_hash })
  else if Int64.bits_of_float ck.target <> Int64.bits_of_float target then
    Error
      (Diag.Checkpoint_invalid
         { file;
           reason =
             Printf.sprintf "target mismatch: checkpoint %g, run %g" ck.target
               target })
  else if ck.solver <> solver then
    Error
      (Diag.Checkpoint_invalid
         { file;
           reason =
             Printf.sprintf "solver mismatch: checkpoint %s, run %s" ck.solver
               solver })
  else Ok ()
