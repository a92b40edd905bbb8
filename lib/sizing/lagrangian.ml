module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance

type options = {
  iterations : int;
  inner_sweeps : int;
  temperature : float; (* subgradient step, relative to a mean stage delay *)
}

let default_options = { iterations = 40; inner_sweeps = 4; temperature = 0.5 }

type result = {
  sizes : float array;
  area : float;
  cp : float;
  met : bool;
  outer_iterations : int;
}

(* Multiplier state: one lambda per timing edge plus one virtual "deadline
   edge" per sink (the a_i + d_i <= T constraint). The KKT stationarity of
   the arrival variables demands flow conservation,
   inflow(v) = outflow(v) for every non-source vertex, where outflow counts
   the virtual edge. mu_i (the price of vertex i's delay) is outflow(i). *)
type multipliers = {
  edge : float array;  (* per edge, indexed by its slot in the fanout rows *)
  sink : float array;  (* per vertex; only sinks meaningful *)
}

(* [in_slot.(c)]: the fanout slot of the edge at fanin slot [c]. Both row
   sets list edges in ascending id, so every sum below runs in edge-id
   order. *)
let in_slots (model : Delay_model.t) =
  let in_slot = Array.make model.m 0 in
  let out_cur = Array.sub model.fanout_off 0 model.n in
  let in_cur = Array.sub model.fanin_off 0 model.n in
  for e = 0 to model.m - 1 do
    let u = model.edge_src.(e) and v = model.edge_dst.(e) in
    in_slot.(in_cur.(v)) <- out_cur.(u);
    out_cur.(u) <- out_cur.(u) + 1;
    in_cur.(v) <- in_cur.(v) + 1
  done;
  in_slot

let outflow (model : Delay_model.t) lam v =
  let acc = ref lam.sink.(v) in
  for c = model.fanout_off.(v) to model.fanout_off.(v + 1) - 1 do
    acc := !acc +. lam.edge.(c)
  done;
  !acc

let conserve (model : Delay_model.t) in_slot lam =
  Array.iter
    (fun v ->
      if not (Delay_model.is_source model v) then begin
        let inflow = ref 0.0 in
        for c = model.fanin_off.(v) to model.fanin_off.(v + 1) - 1 do
          inflow := !inflow +. lam.edge.(in_slot.(c))
        done;
        let outflow = outflow model lam v in
        if outflow > 0.0 then begin
          let s = !inflow /. outflow in
          for c = model.fanout_off.(v) to model.fanout_off.(v + 1) - 1 do
            lam.edge.(c) <- lam.edge.(c) *. s
          done;
          lam.sink.(v) <- lam.sink.(v) *. s
        end
      end)
    model.topo

let mu_of (model : Delay_model.t) lam = Array.init model.n (outflow model lam)

(* Coordinate descent on L(x) = sum_i w_i x_i + mu_i d_i(x): the stationary
   point of x_i balances its own area + the load it presents to its fanins
   against the 1/x_i term it scales. *)
let size_subproblem options (model : Delay_model.t) ~mu x =
  for _ = 1 to options.inner_sweeps do
    for i = 0 to model.n - 1 do
      let load = ref model.b.(i) in
      for c = model.coeff_off.(i) to model.coeff_off.(i + 1) - 1 do
        load := !load +. (model.coeff_a.(c) *. x.(model.coeff_j.(c)))
      done;
      let denom = ref model.area_weight.(i) in
      for c = model.loader_off.(i) to model.loader_off.(i + 1) - 1 do
        let k = model.loader_k.(c) in
        denom := !denom +. (mu.(k) *. model.loader_a.(c) /. x.(k))
      done;
      let xi = sqrt (mu.(i) *. !load /. !denom) in
      x.(i) <- min model.max_size (max model.min_size xi)
    done
  done

let size ?(options = default_options) (model : Delay_model.t) ~target =
  let seed = Tilos.size model ~target in
  if not seed.met then
    { sizes = seed.sizes;
      area = seed.area;
      cp = seed.final_cp;
      met = false;
      outer_iterations = 0 }
  else begin
    let n = model.n in
    let in_slot = in_slots model in
    let lam =
      { edge = Array.make model.m 1.0;
        sink = Array.init n (fun v -> if model.is_sink.(v) then 1.0 else 0.0) }
    in
    let x = Array.copy seed.sizes in
    let best = ref (Array.copy seed.sizes) in
    let best_area = ref seed.area in
    let outer = ref 0 in
    for _ = 1 to options.iterations do
      incr outer;
      conserve model in_slot lam;
      let mu0 = mu_of model lam in
      (* global multiplier scale: bisect so the subproblem solution lands
         at the deadline (CP is monotone decreasing in the scale) *)
      let try_scale s =
        let trial = Array.copy x in
        size_subproblem options model ~mu:(Array.map (fun m -> m *. s) mu0) trial;
        let cp = Sta.critical_path_only model ~delays:(Delay_model.delays model trial) in
        (trial, cp)
      in
      let lo = ref 1e-9 and hi = ref 1e-9 in
      let found = ref None in
      let closest = ref None in
      (try
         for _ = 1 to 120 do
           let trial, cp = try_scale !hi in
           (match !closest with
           | Some (_, best_cp) when best_cp <= cp -> ()
           | _ -> closest := Some (trial, cp));
           if cp <= target then begin
             found := Some trial;
             raise Exit
           end;
           lo := !hi;
           hi := !hi *. 2.0
         done
       with Exit -> ());
      (match !found with
      | None -> ()
      | Some _ ->
        for _ = 1 to 20 do
          let mid = sqrt (!lo *. !hi) in
          let trial, cp = try_scale mid in
          if cp <= target then begin
            hi := mid;
            found := Some trial
          end
          else lo := mid
        done);
      (* when no scale is outright feasible (CP is not monotone once sizes
         saturate), repair the closest trial greedily *)
      (match !found, !closest with
      | None, Some (trial, _) ->
        let repaired = Tilos.size ~init:trial model ~target in
        if repaired.met then found := Some repaired.sizes
      | _ -> ());
      (match !found with
      | None -> ()
      | Some trial ->
        (* exact minimum-area polish at the trial's own delay budgets *)
        let polished =
          match Wphase.solve model ~budgets:(Delay_model.delays model trial) with
          | Ok w when w.feasible -> w.sizes
          | _ -> trial
        in
        let cp = Sta.critical_path_only model ~delays:(Delay_model.delays model polished) in
        if Tolerance.meets ~target cp then begin
          let area = Delay_model.area model polished in
          if area < !best_area then begin
            best_area := area;
            best := Array.copy polished
          end
        end;
        Array.blit polished 0 x 0 n);
      (* subgradient step on the current x: tight edges gain weight *)
      let delays = Delay_model.delays model x in
      let sta = Sta.analyze model ~delays ~deadline:target in
      let mean_delay = Array.fold_left ( +. ) 0.0 delays /. float_of_int n in
      let step = options.temperature in
      let bump slack =
        (* negative slack = violated/tight: grow; generous slack: shrink *)
        exp (step *. (-.slack) /. (mean_delay +. 1e-30))
      in
      for i = 0 to n - 1 do
        for c = model.fanout_off.(i) to model.fanout_off.(i + 1) - 1 do
          let j = model.fanout.(c) in
          let slack = sta.Sta.required.(j) -. sta.Sta.arrival.(i) -. delays.(i) in
          lam.edge.(c) <- max 1e-12 (lam.edge.(c) *. min 8.0 (bump slack))
        done
      done;
      Array.iteri
        (fun v s ->
          if s then begin
            let slack = target -. (sta.Sta.arrival.(v) +. delays.(v)) in
            lam.sink.(v) <- max 1e-12 (lam.sink.(v) *. min 8.0 (bump slack))
          end)
        model.is_sink
    done;
    let delays = Delay_model.delays model !best in
    { sizes = !best;
      area = !best_area;
      cp = Sta.critical_path_only model ~delays;
      met = true;
      outer_iterations = !outer }
  end
