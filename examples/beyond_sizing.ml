(* Beyond sizing: the switching-power view of a sizing solution.

   MINFLOTRANSIT minimizes area under a delay target; this example sizes
   c432 to half its minimum delay and reports what that sizing costs in
   dynamic power, from Monte-Carlo switching activity, against the
   minimum-size circuit.

   Run with: dune exec examples/beyond_sizing.exe *)

open Minflo

let () =
  let tech = Tech.default_130nm in
  let nl = Iscas85.circuit "c432" in
  let model = Elmore.of_netlist tech nl in
  let target = 0.5 *. Sweep.dmin model in
  let r = Minflotransit.optimize model ~target in
  let act = Activity.estimate ~patterns:1024 ~seed:1 nl in
  let p_min = Power.min_size_baseline tech nl ~activity:act in
  let p_opt = Power.dynamic tech nl ~activity:act ~sizes:r.sizes in
  Printf.printf
    "c432 sized to 0.5 Dmin: switching power %.2fx the minimum-size circuit\n"
    (p_opt.total /. p_min.total)
