type limits = {
  wall_seconds : float option;
  max_iterations : int option;
  max_pivots : int option;
}

let no_limits = { wall_seconds = None; max_iterations = None; max_pivots = None }

let limits ?wall_seconds ?max_iterations ?max_pivots () =
  { wall_seconds; max_iterations; max_pivots }

type t = {
  limits : limits;
  t0 : float;
  mutable iterations : int;
  mutable pivots : int;
  mutable tripped : Diag.error option;
}

let start limits =
  { limits; t0 = Mono.now (); iterations = 0; pivots = 0; tripped = None }

let resume limits ~elapsed ~iterations ~pivots =
  { limits;
    t0 = Mono.now () -. (max 0.0 elapsed);
    iterations = max 0 iterations;
    pivots = max 0 pivots;
    tripped = None }

let wall_check_period = 1024

let elapsed t = Mono.now () -. t.t0

let check_wall t =
  match t.limits.wall_seconds with
  | None -> None
  | Some limit ->
    let spent = elapsed t in
    if spent > limit then
      Some (Diag.Budget_exhausted { resource = "wall-seconds"; spent; limit })
    else None

let check t =
  match t.tripped with
  | Some _ as e -> e
  | None ->
    let verdict =
      match t.limits.max_pivots with
      | Some limit when t.pivots > limit ->
        Some
          (Diag.Budget_exhausted
             { resource = "pivots"; spent = float_of_int t.pivots;
               limit = float_of_int limit })
      | _ -> (
        match t.limits.max_iterations with
        | Some limit when t.iterations >= limit ->
          Some
            (Diag.Budget_exhausted
               { resource = "iterations"; spent = float_of_int t.iterations;
                 limit = float_of_int limit })
        | _ -> check_wall t)
    in
    t.tripped <- verdict;
    verdict

let tick_pivot t =
  match t.tripped with
  | Some _ -> false
  | None ->
    t.pivots <- t.pivots + 1;
    (match t.limits.max_pivots with
    | Some limit when t.pivots > limit ->
      t.tripped <-
        Some
          (Diag.Budget_exhausted
             { resource = "pivots"; spent = float_of_int t.pivots;
               limit = float_of_int limit })
    | _ ->
      if t.pivots land (wall_check_period - 1) = 0 then t.tripped <- check_wall t);
    t.tripped = None

let tick_iteration t = t.iterations <- t.iterations + 1

let iterations t = t.iterations
let pivots t = t.pivots
let exhausted t = check t <> None
