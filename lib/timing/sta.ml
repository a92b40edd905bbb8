module Delay_model = Minflo_tech.Delay_model

type t = {
  arrival : float array;
  required : float array;
  slack : float array;
  critical_path : float;
  deadline : float;
}

let arrivals model ~delays =
  Minflo_robust.Perf.tick_sweep ();
  let at = Array.make model.Delay_model.n 0.0 in
  Delay_model.arrivals_into model ~delays at;
  at

let critical_path_only model ~delays =
  let at = arrivals model ~delays in
  let cp = ref 0.0 in
  Array.iteri (fun i a -> if a +. delays.(i) > !cp then cp := a +. delays.(i)) at;
  !cp

let analyze (model : Delay_model.t) ~delays ~deadline =
  let n = model.n in
  let at = arrivals model ~delays in
  let cp = ref 0.0 in
  Array.iteri (fun i a -> if a +. delays.(i) > !cp then cp := a +. delays.(i)) at;
  Minflo_robust.Perf.tick_sweep ();
  let rt = Array.make n infinity in
  for k = n - 1 downto 0 do
    let i = model.topo.(k) in
    if model.is_sink.(i) then
      rt.(i) <- min rt.(i) (deadline -. delays.(i));
    for c = model.fanout_off.(i) to model.fanout_off.(i + 1) - 1 do
      let j = model.fanout.(c) in
      rt.(i) <- min rt.(i) (rt.(j) -. delays.(i))
    done
  done;
  let slack = Array.init n (fun i -> rt.(i) -. at.(i)) in
  { arrival = at; required = rt; slack; critical_path = !cp; deadline }

let edge_slack t ~delays (model : Delay_model.t) e =
  let i = model.edge_src.(e) and j = model.edge_dst.(e) in
  t.required.(j) -. t.arrival.(i) -. delays.(i)

let critical_vertices ?(eps = 1e-9) t =
  let worst = Array.fold_left min infinity t.slack in
  let acc = ref [] in
  Array.iteri (fun i s -> if s <= worst +. eps then acc := i :: !acc) t.slack;
  List.rev !acc

let worst_path (model : Delay_model.t) ~delays =
  let at = arrivals model ~delays in
  (* find the vertex finishing the critical path, then backtrace greedily *)
  let finish = ref 0 and best = ref neg_infinity in
  Array.iteri
    (fun i v ->
      let f = v +. delays.(i) in
      if f > !best then begin
        best := f;
        finish := i
      end)
    at;
  let rec back i acc =
    let acc = i :: acc in
    if at.(i) = 0.0 && Delay_model.is_source model i then acc
    else begin
      (* pick the fanin realizing AT(i): first fanin wins ties, in pred
         order *)
      let pick = ref (-1) and pick_f = ref neg_infinity in
      for c = model.fanin_off.(i) to model.fanin_off.(i + 1) - 1 do
        let j = model.fanin.(c) in
        let f = at.(j) +. delays.(j) in
        if f > !pick_f then begin
          pick_f := f;
          pick := j
        end
      done;
      if !pick < 0 then acc else back !pick acc
    end
  in
  back !finish []
