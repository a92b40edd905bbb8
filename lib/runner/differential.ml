module Diag = Minflo_robust.Diag
module Dphase = Minflo_sizing.Dphase

let counterpart = function
  | `Simplex | `Auto | `Bellman_ford -> `Ssp
  | `Ssp -> `Simplex

let default_tolerance = 0.02

let compare_outcomes ~tolerance ~job_id
    ~(a : Job.outcome) ~(b : Job.outcome) =
  let sa = Dphase.solver_name a.job.solver
  and sb = Dphase.solver_name b.job.solver in
  let gap =
    abs_float (a.area -. b.area) /. max 1e-12 (max (abs_float a.area) (abs_float b.area))
  in
  if a.met <> b.met || gap > tolerance then
    Error
      (Diag.Differential_mismatch
         { job = job_id;
           solver_a = sa;
           solver_b = sb;
           value_a = a.area;
           value_b = b.area;
           tolerance })
  else Ok ()
