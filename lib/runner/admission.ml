module Diag = Minflo_robust.Diag
module Lint = Minflo_lint.Lint
module Bounds = Minflo_lint.Bounds

type gate = [ `Lint | `Bounds ]

(* everything the gate learns about one circuit spec, each half computed
   on first need: the daemon asks for the recipe even with the gate off *)
type circuit = {
  lint : Diag.error option Lazy.t;
  loaded : (Job.recipe * Bounds.t, Diag.error) result Lazy.t;
}

type t = (string, circuit) Hashtbl.t

let create () : t = Hashtbl.create 8

let lint_error spec =
  match Job.load_raw spec with
  | Error e -> Some e
  | Ok raw ->
    Option.map Minflo_lint.Finding.to_diag
      (List.find_opt
         (fun (f : Minflo_lint.Finding.t) ->
           f.rule.severity = Minflo_lint.Rule.Error)
         (Lint.check raw))

let circuit (t : t) spec =
  match Hashtbl.find_opt t spec with
  | Some c -> c
  | None ->
    let load nl =
      let r = Job.recipe nl in
      (r, Bounds.compute r.Job.model)
    in
    let c =
      { lint = lazy (lint_error spec);
        loaded = lazy (Result.map load (Job.load_circuit spec)) }
    in
    Hashtbl.replace t spec c;
    c

let recipe t spec = Result.map fst (Lazy.force (circuit t spec).loaded)

let check t (job : Job.t) =
  let c = circuit t job.circuit in
  match Lazy.force c.lint with
  | Some e -> Some (`Lint, e)
  | None -> (
    match Lazy.force c.loaded with
    | Error _ -> None (* the job's own run reports the load error *)
    | Ok (r, bounds) ->
      Option.map
        (fun e -> (`Bounds, e))
        (Bounds.infeasible_target_error r.Job.model bounds
           ~target:(Job.target r ~factor:job.factor)))
