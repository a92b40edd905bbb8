module Delay_model = Minflo_tech.Delay_model

let meets ~target cp = cp <= target *. (1.0 +. 1e-9)

let non_negative s = s >= -1e-6

let safe (sta : Sta.t) = Array.for_all non_negative sta.slack

let in_box (model : Delay_model.t) x =
  Float.is_finite x
  && x >= model.min_size -. 1e-9
  && x <= model.max_size +. 1e-9

let budget_met ~budget d = d <= budget +. 1e-6 +. (1e-9 *. Float.abs budget)

let critical_rel = 1e-7
