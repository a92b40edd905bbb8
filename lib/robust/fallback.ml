type 'a rung = { name : string; attempt : unit -> ('a, Diag.error) result }

type 'a success = {
  value : 'a;
  rung : string;
  failures : (string * Diag.error) list;
}

let retryable = function
  | Diag.Solver_diverged _ | Diag.Numeric _ | Diag.Fault_injected _ -> true
  | _ -> false

let run ?log rungs =
  if rungs = [] then invalid_arg "Fallback.run: empty chain";
  let note name e =
    match log with
    | None -> ()
    | Some l ->
      Diag.logf l Diag.Warning ~source:"fallback" "rung %s failed: %s" name
        (Diag.to_string e)
  in
  let rec go failures = function
    | [] -> assert false
    | [ last ] -> (
      match last.attempt () with
      | Ok value -> Ok { value; rung = last.name; failures = List.rev failures }
      | Error e ->
        note last.name e;
        Error e)
    | rung :: rest -> (
      match rung.attempt () with
      | Ok value -> Ok { value; rung = rung.name; failures = List.rev failures }
      | Error e ->
        note rung.name e;
        if retryable e then go ((rung.name, e) :: failures) rest else Error e)
  in
  go [] rungs
