module Job = Minflo_runner.Job
module Dphase = Minflo_sizing.Dphase
module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json

type submit = {
  circuit : string;
  factor : float;
  solver : Dphase.solver;
  max_seconds : float option;
  max_iterations : int option;
  max_pivots : int option;
  sleep_seconds : float;
}

type request =
  | Submit of submit
  | Status of string
  | Result of { id : string; wait : bool }
  | Cancel of string
  | Stats
  | Health
  | Drain

let job_of (s : submit) =
  { Job.circuit = s.circuit; factor = s.factor; solver = s.solver }

(* The job key doubles as the idempotency token: a resubmission of the
   same work (same circuit/target/solver AND same run budget) is answered
   from the daemon's result cache instead of re-solving. A custom budget
   or load-test sleep changes what "the same work" means, so it lands in
   the key as a suffix. *)
let job_key (s : submit) =
  let base = Job.id (job_of s) in
  let extras =
    List.filter_map
      (fun x -> x)
      [ Option.map (fun v -> Printf.sprintf "s=%.17g" v) s.max_seconds;
        Option.map (fun v -> Printf.sprintf "it=%d" v) s.max_iterations;
        Option.map (fun v -> Printf.sprintf "pv=%d" v) s.max_pivots;
        (if s.sleep_seconds > 0.0 then
           Some (Printf.sprintf "zz=%.17g" s.sleep_seconds)
         else None) ]
  in
  if extras = [] then base else base ^ "#" ^ String.concat "," extras

(* ---------- the submit record: one spelling on the wire and in the
   journal's [serve-accepted] line ---------- *)

let submit_fields (s : submit) =
  Job.fields (job_of s)
  @ List.filter_map Fun.id
      [ Option.map (fun v -> ("max_seconds", Json.of_float v)) s.max_seconds;
        Option.map
          (fun v -> ("max_iterations", Json.Num (float_of_int v)))
          s.max_iterations;
        Option.map
          (fun v -> ("max_pivots", Json.Num (float_of_int v)))
          s.max_pivots;
        (if s.sleep_seconds > 0.0 then
           Some ("sleep_seconds", Json.of_float s.sleep_seconds)
         else None) ]

let submit_of_json j =
  match Json.str_field "circuit" j with
  | None -> Error "submit: missing \"circuit\""
  | Some circuit -> (
    match Json.num_field "factor" j with
    | None -> Error "submit: missing or non-numeric \"factor\""
    | Some factor when not (Float.is_finite factor) || factor <= 0.0 ->
      Error "submit: \"factor\" must be a positive finite number"
    | Some factor -> (
      let solver_name =
        Option.value (Json.str_field "solver" j)
          ~default:(Dphase.solver_name `Auto)
      in
      match Dphase.solver_of_string solver_name with
      | None -> Error (Printf.sprintf "submit: unknown solver %S" solver_name)
      | Some solver ->
        let pos_num key =
          match Json.num_field key j with
          | Some v when Float.is_finite v && v > 0.0 -> Some v
          | _ -> None
        in
        let pos_int key =
          match Json.int_field key j with
          | Some v when v > 0 -> Some v
          | _ -> None
        in
        Ok
          { circuit;
            factor;
            solver;
            max_seconds = pos_num "max_seconds";
            max_iterations = pos_int "max_iterations";
            max_pivots = pos_int "max_pivots";
            sleep_seconds = Option.value (pos_num "sleep_seconds") ~default:0.0 }))

(* ---------- requests ---------- *)

let request_to_json = function
  | Submit s -> Json.Obj (("op", Json.Str "submit") :: submit_fields s)
  | Status id -> Json.Obj [ ("op", Json.Str "status"); ("id", Json.Str id) ]
  | Result { id; wait } ->
    Json.Obj
      [ ("op", Json.Str "result");
        ("id", Json.Str id);
        ("wait", Json.Bool wait) ]
  | Cancel id -> Json.Obj [ ("op", Json.Str "cancel"); ("id", Json.Str id) ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Health -> Json.Obj [ ("op", Json.Str "health") ]
  | Drain -> Json.Obj [ ("op", Json.Str "drain") ]

let with_id j k =
  match Json.str_field "id" j with
  | Some id when id <> "" -> Ok (k id)
  | _ -> Error "missing \"id\""

let request_of_json j =
  match Json.str_field "op" j with
  | None -> Error "missing \"op\""
  | Some "submit" -> Result.map (fun s -> Submit s) (submit_of_json j)
  | Some "status" -> with_id j (fun id -> Status id)
  | Some "result" ->
    with_id j (fun id ->
        Result
          { id; wait = Option.value (Json.bool_field "wait" j) ~default:false })
  | Some "cancel" -> with_id j (fun id -> Cancel id)
  | Some "stats" -> Ok Stats
  | Some "health" -> Ok Health
  | Some "drain" -> Ok Drain
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* ---------- response builders ---------- *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error_response ?(fields = []) (e : Diag.error) =
  Json.Obj
    ([ ("ok", Json.Bool false);
       ("code", Json.Str (Diag.error_code e));
       ("message", Json.Str (Diag.to_string e));
       ("error", Diag.to_json e) ]
    @ fields)

let bad_request msg =
  Json.Obj
    [ ("ok", Json.Bool false);
      ("code", Json.Str "bad-request");
      ("message", Json.Str msg) ]
