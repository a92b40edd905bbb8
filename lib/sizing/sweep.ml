module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Mono = Minflo_robust.Mono
module Table = Minflo_util.Table

type point = {
  factor : float;
  target : float;
  tilos_area_ratio : float;
  minflo_area_ratio : float;
  saving_pct : float;
  tilos_met : bool;
  minflo_met : bool;
  iterations : int;
  tilos_seconds : float;
  minflo_extra_seconds : float;
}

let dmin model =
  let x = Delay_model.uniform_sizes model model.Delay_model.min_size in
  Sta.critical_path_only model ~delays:(Delay_model.delays model x)

let min_area model =
  Delay_model.area model (Delay_model.uniform_sizes model model.Delay_model.min_size)

let at_factor model ~factor =
  let d0 = dmin model in
  let a0 = min_area model in
  let target = factor *. d0 in
  let t0 = Mono.now () in
  let tilos = Tilos.size model ~target in
  let t1 = Mono.now () in
  let refined =
    if tilos.met then
      Some (Minflotransit.refine_from model ~target ~init:tilos.sizes ~tilos)
    else None
  in
  let t2 = Mono.now () in
  match refined with
  | None ->
    { factor; target;
      tilos_area_ratio = nan;
      minflo_area_ratio = nan;
      saving_pct = nan;
      tilos_met = false;
      minflo_met = false;
      iterations = 0;
      tilos_seconds = t1 -. t0;
      minflo_extra_seconds = 0.0 }
  | Some r ->
    { factor; target;
      tilos_area_ratio = tilos.area /. a0;
      minflo_area_ratio = r.area /. a0;
      saving_pct = r.area_saving_pct;
      tilos_met = true;
      minflo_met = r.met;
      iterations = r.iterations;
      tilos_seconds = t1 -. t0;
      minflo_extra_seconds = t2 -. t1 }

let curve model ~factors = List.map (fun factor -> at_factor model ~factor) factors

let print_curve points =
  let t =
    Table.create
      ~columns:
        [ ("factor", Table.Right); ("TILOS area", Table.Right);
          ("MINFLO area", Table.Right); ("saving %", Table.Right);
          ("iters", Table.Right) ]
  in
  List.iter
    (fun p ->
      let met fmt v = if p.tilos_met then Printf.sprintf fmt v else "-" in
      Table.add_row t
        [ Printf.sprintf "%.2f" p.factor;
          (if p.tilos_met then Printf.sprintf "%.3f" p.tilos_area_ratio
           else "unmet");
          met "%.3f" p.minflo_area_ratio;
          met "%.1f" p.saving_pct;
          string_of_int p.iterations ])
    points;
  Table.print t

(* The paper reports rows "where the area penalty is within 1.5-1.75x that
   of a minimum sized circuit". A spec that already puts TILOS in (or
   within 0.05 of) that band, or that TILOS cannot meet, is kept; otherwise
   the factor tightens by 7 % a step until the TILOS penalty enters the
   band, backing off to the last factor TILOS met. *)
let table1_factor model ~spec =
  let band_lo = 1.5 in
  let d0 = dmin model and a0 = min_area model in
  let tilos factor = Tilos.size model ~target:(factor *. d0) in
  let ratio (t : Tilos.result) = t.area /. a0 in
  let t0 = tilos spec in
  if (not t0.met) || ratio t0 >= band_lo -. 0.05 then spec
  else
    let rec tighten last_met attempts =
      if attempts = 0 then last_met
      else
        let factor = last_met *. 0.93 in
        let t = tilos factor in
        if not t.met then last_met
        else if ratio t >= band_lo then factor
        else tighten factor (attempts - 1)
    in
    tighten spec 14
