(* The critical-set order reference shared by the test suites: the
   recursive backtrace the engine used before its walk became iterative,
   kept verbatim — preorder from the worst sinks (ascending) along tight
   edges, fanins in CSR order. It reads the engine only through its
   critical path, finishes and arrivals, so it shares neither the engine's
   walk nor the certificate that lets the engine skip that walk. *)

module DM = Minflo_tech.Delay_model
module Inc = Minflo_timing.Incremental
module Tolerance = Minflo_timing.Tolerance

let critical_set ?(eps_rel = Tolerance.critical_rel) (model : DM.t) eng =
  let m = model in
  let cp = Inc.critical_path eng in
  let eps = eps_rel *. (1.0 +. cp) in
  let seen = Array.make m.n false in
  let acc = ref [] in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      acc := v :: !acc;
      for c = m.fanin_off.(v) to m.fanin_off.(v + 1) - 1 do
        let u = m.fanin.(c) in
        (* edge u -> v is tight when u's finish realizes v's arrival *)
        if abs_float (Inc.finish eng u -. Inc.arrival eng v) <= eps then
          visit u
      done
    end
  in
  for k = 0 to Array.length m.sinks - 1 do
    let v = m.sinks.(k) in
    if abs_float (Inc.finish eng v -. cp) <= eps then visit v
  done;
  List.rev !acc
