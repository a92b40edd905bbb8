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

let check (model : Delay_model.t) ~delays t =
  let bad = ref None in
  (* tolerance of the potential identities; the sign tests read the
     contract *)
  let eps = 1e-6 in
  let report fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
  Array.iteri
    (fun e f ->
      let i = model.edge_src.(e) and j = model.edge_dst.(e) in
      if not (Tolerance.non_negative f) then
        report "edge %d->%d has negative FSDU %g" i j f;
      (* balance identity: fsdu must match the potential difference *)
      let expect = t.potential.(j) -. t.potential.(i) -. delays.(i) in
      if abs_float (expect -. f) > eps then
        report "edge %d->%d FSDU %g inconsistent with potential (%g)" i j f expect)
    t.edge_fsdu;
  Array.iteri
    (fun i f ->
      if Delay_model.is_source model i then begin
        if not (Tolerance.non_negative f) then
          report "source %d has negative FSDU %g" i f;
        if abs_float (f -. t.potential.(i)) > eps then
          report "source %d FSDU %g inconsistent with potential %g" i f t.potential.(i)
      end)
    t.source_fsdu;
  Array.iteri
    (fun i f ->
      if model.is_sink.(i) then begin
        if not (Tolerance.non_negative f) then
          report "sink %d has negative FSDU %g" i f;
        let expect = t.deadline -. t.potential.(i) -. delays.(i) in
        if abs_float (f -. expect) > eps then
          report "sink %d FSDU %g inconsistent with potential (%g)" i f expect
      end)
    t.sink_fsdu;
  match !bad with
  | Some detail ->
    Error (Minflo_robust.Diag.Invariant { what = "fsdu-balance"; detail })
  | None -> Ok ()

let displacement_between a b = Array.map2 (fun pb pa -> pb -. pa) b.potential a.potential

let displace (model : Delay_model.t) t r =
  let n = Array.length t.potential in
  if Array.length r <> n then invalid_arg "Balance.displace: wrong r length";
  { t with
    potential = Array.init n (fun i -> t.potential.(i) +. r.(i));
    edge_fsdu =
      Array.mapi
        (fun e f -> f +. r.(model.edge_dst.(e)) -. r.(model.edge_src.(e)))
        t.edge_fsdu;
    (* virtual endpoints (primary inputs and the output dummy O) are pinned
       at r = 0, per Corollary 1 *)
    source_fsdu =
      Array.mapi
        (fun i f -> if Delay_model.is_source model i then f +. r.(i) else f)
        t.source_fsdu;
    sink_fsdu =
      Array.mapi
        (fun i f -> if model.is_sink.(i) then f -. r.(i) else f)
        t.sink_fsdu }
