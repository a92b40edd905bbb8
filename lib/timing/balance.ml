module Delay_model = Minflo_tech.Delay_model

type t = {
  potential : float array;
  edge_fsdu : float array;
  source_fsdu : float array;
  sink_fsdu : float array;
  deadline : float;
}

let of_potential (model : Delay_model.t) ~delays ~deadline p =
  let n = model.n in
  let edge_fsdu =
    Array.init model.m (fun e ->
        let i = model.edge_src.(e) and j = model.edge_dst.(e) in
        p.(j) -. p.(i) -. delays.(i))
  in
  let source_fsdu =
    Array.init n (fun i -> if Delay_model.is_source model i then p.(i) else 0.0)
  in
  let sink_fsdu =
    Array.init n (fun i ->
        if model.is_sink.(i) then deadline -. p.(i) -. delays.(i) else 0.0)
  in
  { potential = p; edge_fsdu; source_fsdu; sink_fsdu; deadline }

let balance ?(mode = `Alap) ?sta model ~delays ~deadline =
  let sta =
    match sta with
    | Some s ->
      (* the caller already ran the analysis (the D-phase safety probe):
         reuse it instead of re-sweeping the whole DAG *)
      Minflo_robust.Perf.tick_full_sweep_avoided ();
      s
    | None -> Sta.analyze model ~delays ~deadline
  in
  if not (Tolerance.safe sta) then
    invalid_arg
      (Printf.sprintf "Balance.balance: circuit is not safe (CP %.3f > deadline %.3f)"
         sta.critical_path deadline);
  let p =
    match mode with
    | `Alap ->
      (* required times can be +inf on unconstrained vertices; clamp to the
         latest meaningful value *)
      Array.mapi
        (fun i r -> if r = infinity then deadline -. delays.(i) else r)
        sta.required
    | `Asap -> Array.copy sta.arrival
  in
  of_potential model ~delays ~deadline p
