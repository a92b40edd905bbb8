module Diag = Minflo_robust.Diag
module Dphase = Minflo_sizing.Dphase

let counterpart = function
  | `Simplex | `Auto | `Bellman_ford -> `Ssp
  | `Ssp -> `Simplex

type leg = Dphase.solver * bool * float * int

let compare ~job (sa, met_a, area_a, it_a) (sb, met_b, area_b, it_b) =
  let fields =
    ("met", Bool.to_float met_a, Bool.to_float met_b)
    :: (if sa = `Bellman_ford || sb = `Bellman_ford then []
        else
          [ ("area", area_a, area_b);
            ("iterations", float_of_int it_a, float_of_int it_b) ])
  in
  match
    List.find_opt
      (fun (_, a, b) -> Int64.bits_of_float a <> Int64.bits_of_float b)
      fields
  with
  | None -> Ok ()
  | Some (field, value_a, value_b) ->
    Error
      (Diag.Differential_mismatch
         { job;
           solver_a = Dphase.solver_name sa;
           solver_b = Dphase.solver_name sb;
           field;
           value_a;
           value_b })
