module Delay_model = Minflo_tech.Delay_model
module Tech = Minflo_tech.Tech
module Gate_model = Minflo_tech.Gate_model
module Gate = Minflo_netlist.Gate
module Diag = Minflo_robust.Diag
module Tolerance = Minflo_timing.Tolerance

(* Per-vertex achievable-delay intervals from the componentwise monotonicity
   of the Elmore decomposition: delay_i = a_ii + (b_i + sum a_ij x_j) / x_i
   with all coefficients non-negative is decreasing in the own size x_i and
   increasing in every fanout size x_j, so over the size box
   [min_size, max_size]^n

     d_lo(i) = a_ii + (b_i + sum a_ij * min) / max   <=  delay_i(x)
     d_hi(i) = a_ii + (b_i + sum a_ij * max) / min   >=  delay_i(x)

   hold for every sizing x. The bounds are a box around the achievable set,
   not the set itself (d_lo(i) wants x_i = max while d_lo(j) for a fanin j
   wants x_i = min), which is exactly what makes them sound one-sided:
   arrival sweeps under d_lo bound every sizing's arrival times from below,
   and under d_hi from above. No LP, no TILOS — two forward and two
   backward array sweeps in topological order. *)

type t = {
  d_lo : float array;
  d_hi : float array;
  at_lo : float array;
  at_hi : float array;
  tail_lo : float array;
  tail_hi : float array;
  cp_lo : float;
  cp_hi : float;
}

let compute (model : Delay_model.t) =
  let n = model.n in
  let d_lo = Array.make n 0.0 and d_hi = Array.make n 0.0 in
  let xmin = model.min_size and xmax = model.max_size in
  for i = 0 to n - 1 do
    let cmin = ref model.b.(i) and cmax = ref model.b.(i) in
    for c = model.coeff_off.(i) to model.coeff_off.(i + 1) - 1 do
      cmin := !cmin +. (model.coeff_a.(c) *. xmin);
      cmax := !cmax +. (model.coeff_a.(c) *. xmax)
    done;
    d_lo.(i) <- model.a_self.(i) +. (!cmin /. xmax);
    d_hi.(i) <- model.a_self.(i) +. (!cmax /. xmin)
  done;
  (* forward: arrival bounds, following the Sta convention (AT at the input
     of a vertex, 0 at sources) *)
  let at_lo = Array.make n 0.0 and at_hi = Array.make n 0.0 in
  Delay_model.arrivals_into model ~delays:d_lo at_lo;
  Delay_model.arrivals_into model ~delays:d_hi at_hi;
  (* backward: longest downstream continuation after the vertex's own delay
     (0 at every vertex, since the circuit delay is max_i AT(i) + delay(i)) *)
  let tail_lo = Array.make n 0.0 and tail_hi = Array.make n 0.0 in
  for k = n - 1 downto 0 do
    let i = model.topo.(k) in
    for c = model.fanout_off.(i) to model.fanout_off.(i + 1) - 1 do
      let j = model.fanout.(c) in
      let tl = d_lo.(j) +. tail_lo.(j) and th = d_hi.(j) +. tail_hi.(j) in
      if tl > tail_lo.(i) then tail_lo.(i) <- tl;
      if th > tail_hi.(i) then tail_hi.(i) <- th
    done
  done;
  let cp_lo = ref 0.0 and cp_hi = ref 0.0 in
  for i = 0 to n - 1 do
    if at_lo.(i) +. d_lo.(i) > !cp_lo then cp_lo := at_lo.(i) +. d_lo.(i);
    if at_hi.(i) +. d_hi.(i) > !cp_hi then cp_hi := at_hi.(i) +. d_hi.(i)
  done;
  { d_lo; d_hi; at_lo; at_hi; tail_lo; tail_hi; cp_lo = !cp_lo;
    cp_hi = !cp_hi }

let through_lo t i = t.at_lo.(i) +. t.d_lo.(i) +. t.tail_lo.(i)
let through_hi t i = t.at_hi.(i) +. t.d_hi.(i) +. t.tail_hi.(i)

let witness_path (model : Delay_model.t) t =
  let finish = ref 0 and best = ref neg_infinity in
  Array.iteri
    (fun i a ->
      let f = a +. t.d_lo.(i) in
      if f > !best then begin
        best := f;
        finish := i
      end)
    t.at_lo;
  let rec back i acc =
    let acc = i :: acc in
    if t.at_lo.(i) = 0.0 && Delay_model.is_source model i then acc
    else begin
      (* the fanin realizing AT(i); the first in fanin order wins ties *)
      let pick = ref (-1) and pick_f = ref neg_infinity in
      for c = model.fanin_off.(i) to model.fanin_off.(i + 1) - 1 do
        let j = model.fanin.(c) in
        let f = t.at_lo.(j) +. t.d_lo.(j) in
        if !pick < 0 || not (!pick_f >= f) then begin
          pick_f := f;
          pick := j
        end
      done;
      if !pick < 0 then acc else back !pick acc
    end
  in
  back !finish []

(* the floor itself fails the engine's own acceptance test: a target the
   engine would accept is never reported as statically infeasible *)
let infeasible t ~target = not (Tolerance.meets ~target t.cp_lo)

let infeasible_target_error (model : Delay_model.t) t ~target =
  if not (infeasible t ~target) then None
  else
    Some
      (Diag.Infeasible_target
         { target;
           lower_bound = t.cp_lo;
           witness =
             List.map
               (fun i -> model.Delay_model.labels.(i))
               (witness_path model t) })

(* MF202 counts a gate within [pin_eps] (relative) of the target as pinned;
   MF203 freezes a gate that clears it by [freeze_margin] *)
let pin_eps = 1e-6
let freeze_margin = 0.05

let pinned (model : Delay_model.t) t ~target =
  let acc = ref [] in
  for i = Delay_model.num_vertices model - 1 downto 0 do
    if through_lo t i >= target *. (1.0 -. pin_eps) then acc := i :: !acc
  done;
  !acc

let irrelevant (model : Delay_model.t) t ~target =
  let acc = ref [] in
  for i = Delay_model.num_vertices model - 1 downto 0 do
    if through_hi t i <= target *. (1.0 -. freeze_margin) then acc := i :: !acc
  done;
  !acc

(* ---------- findings ---------- *)

let render_path (model : Delay_model.t) path =
  let labels = List.map (fun i -> model.Delay_model.labels.(i)) path in
  let k = List.length labels in
  if k <= 8 then String.concat " -> " labels
  else
    let front = List.filteri (fun i _ -> i < 4) labels in
    let back = List.filteri (fun i _ -> i >= k - 3) labels in
    String.concat " -> " front
    ^ Printf.sprintf " -> ... (%d more) -> " (k - 7)
    ^ String.concat " -> " back

let check (model : Delay_model.t) ~target =
  let t = compute model in
  if infeasible t ~target then begin
    let path = witness_path model t in
    [ Finding.make
        ~related:(List.map (fun i -> model.Delay_model.labels.(i)) path)
        Rule.mf201_infeasible_target
        (Printf.sprintf
           "target %.4g is below the interval-bound delay floor %.4g; even \
            with every gate at its best-case size the path %s takes %.4g"
           target t.cp_lo (render_path model path) t.cp_lo) ]
  end
  else begin
    let label i = model.Delay_model.labels.(i) in
    let pinned_findings =
      List.map
        (fun i ->
          ( Printf.sprintf
              "%s is pinned: its best-case through-path delay %.4g already \
               consumes the target %.4g (slack %.3g)"
              (label i) (through_lo t i) target
              (target -. through_lo t i),
            [ label i ] ))
        (pinned model t ~target)
    in
    let irrelevant_findings =
      List.map
        (fun i ->
          ( Printf.sprintf
              "%s is slack-irrelevant: its worst-case through-path delay \
               %.4g clears the target %.4g by more than %.0f%%; freezing it \
               at minimum size cannot violate timing"
              (label i) (through_hi t i) target
              (100.0 *. freeze_margin),
            [ label i ] ))
        (irrelevant model t ~target)
    in
    Audit.capped Rule.mf202_pinned_gate pinned_findings
    @ Audit.capped Rule.mf203_slack_irrelevant irrelevant_findings
  end

(* ---------- MF204: tech-model monotonicity ---------- *)

let all_kinds =
  [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Not; Gate.Buf; Gate.Xor;
    Gate.Xnor ]

let check_tech (tech : Tech.t) =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun m -> problems := (m, []) :: !problems) fmt in
  List.iter
    (fun kind ->
      let name = Gate.to_string kind in
      let prev = ref None in
      for arity = 1 to max 1 tech.Tech.max_stack do
        let gm = Gate_model.of_gate tech kind ~arity in
        if not (gm.Gate_model.r_drive > 0.0) then
          note "%s/%d: drive resistance %g is not positive" name arity
            gm.Gate_model.r_drive;
        if not (gm.Gate_model.c_input > 0.0) then
          note "%s/%d: input capacitance %g is not positive" name arity
            gm.Gate_model.c_input;
        if gm.Gate_model.c_parasitic < 0.0 then
          note "%s/%d: parasitic capacitance %g is negative" name arity
            gm.Gate_model.c_parasitic;
        if gm.Gate_model.transistors <= 0 then
          note "%s/%d: transistor count %d is not positive" name arity
            gm.Gate_model.transistors;
        (match !prev with
        | Some (p : Gate_model.t) ->
          (* wider series stacks cannot drive harder or shrink: a decreasing
             entry breaks the "upsizing helps, downsizing saves area"
             monotonicity every analysis here leans on *)
          if gm.Gate_model.r_drive < p.Gate_model.r_drive *. (1.0 -. 1e-9) then
            note "%s/%d: drive resistance %g decreases from %g at arity %d"
              name arity gm.Gate_model.r_drive p.Gate_model.r_drive (arity - 1);
          if gm.Gate_model.c_parasitic < p.Gate_model.c_parasitic -. 1e-12 then
            note "%s/%d: parasitic capacitance %g decreases from %g" name
              arity gm.Gate_model.c_parasitic p.Gate_model.c_parasitic;
          if gm.Gate_model.transistors < p.Gate_model.transistors then
            note "%s/%d: transistor count %d decreases from %d" name arity
              gm.Gate_model.transistors p.Gate_model.transistors
        | None -> ());
        prev := Some gm
      done)
    all_kinds;
  Audit.capped Rule.mf204_tech_non_monotone (List.rev !problems)
