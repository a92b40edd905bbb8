module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Rng = Minflo_util.Rng

type report = {
  trials : int;
  improved : int;
  best_gain_pct : float;
  best_sizes : float array option;
}

(* relative size perturbation *)
let magnitude = 0.05

let probe ?(trials = 200) ~seed model ~target ~sizes =
  let rng = Rng.create seed in
  let n = Delay_model.num_vertices model in
  let base_area = Delay_model.area model sizes in
  let improved = ref 0 in
  let best_gain = ref 0.0 in
  let best_sizes = ref None in
  for _ = 1 to trials do
    let x = Array.copy sizes in
    (* perturb a random subset multiplicatively *)
    let k = 1 + Rng.int rng (max 1 (n / 4)) in
    for _ = 1 to k do
      let i = Rng.int rng n in
      let f = 1.0 +. ((Rng.float rng 2.0 -. 1.0) *. magnitude) in
      x.(i) <-
        min model.Delay_model.max_size (max model.Delay_model.min_size (x.(i) *. f))
    done;
    (* let the exact W-phase shrink everything the move allows, at the
       perturbed point's own delay budgets (cannot break timing if the
       budgets themselves fit) *)
    let candidate =
      let budgets = Delay_model.delays model x in
      match Wphase.solve model ~budgets with
      | Ok w when w.feasible -> w.sizes
      | _ -> x
    in
    let cp =
      Sta.critical_path_only model ~delays:(Delay_model.delays model candidate)
    in
    if Tolerance.meets ~target cp then begin
      let area = Delay_model.area model candidate in
      if area < base_area -. (1e-9 *. base_area) then begin
        incr improved;
        let gain = 100.0 *. (base_area -. area) /. base_area in
        if gain > !best_gain then begin
          best_gain := gain;
          best_sizes := Some candidate
        end
      end
    end
  done;
  { trials; improved = !improved; best_gain_pct = !best_gain; best_sizes = !best_sizes }
