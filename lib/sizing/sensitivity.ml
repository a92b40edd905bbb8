module Delay_model = Minflo_tech.Delay_model

let weights (model : Delay_model.t) ~sizes ~delays =
  let n = model.n in
  (* the reverse coefficient index ([loader] rows: the (i, a_ij) with i
     loading j) and the elimination blocks come precomputed with the model;
     loader rows iterate in the exact order the historical cons-built lists
     did, keeping the float accumulation bit-identical *)
  let diag i =
    let d = delays.(i) -. model.a_self.(i) in
    if d <= 1e-12 then
      invalid_arg
        (Printf.sprintf "Sensitivity.weights: delay at vertex %d not above intrinsic" i);
    d
  in
  let y = Array.make n 0.0 in
  (* forward elimination order: y_j needs y_i of upstream references, which
     live in earlier blocks; in-block mutual references iterate locally *)
  Array.iter
    (fun block ->
      let stable = ref false in
      let rounds = ref 0 in
      while (not !stable) && !rounds < 500 do
        stable := true;
        incr rounds;
        Array.iter
          (fun j ->
            let acc = ref model.area_weight.(j) in
            for c = model.loader_off.(j) to model.loader_off.(j + 1) - 1 do
              acc := !acc +. (model.loader_a.(c) *. y.(model.loader_k.(c)))
            done;
            let ny = !acc /. diag j in
            if abs_float (ny -. y.(j)) > 1e-12 *. (1.0 +. abs_float ny) then begin
              y.(j) <- ny;
              stable := false
            end)
          block
      done)
    model.blocks;
  Array.init n (fun i -> y.(i) *. sizes.(i))
