(* Machine-speed calibration for the end-to-end times.

   The measuring VM shares its cores with other tenants, and for minutes at
   a time every code path ran 1.4-1.8x slower; a 30 s run cannot outlast
   such a phase, so raw wall medians spread up to 40 % across runs
   (README.md, "Calibration"). Each pass therefore also times this fixed
   kernel before and after its jobs, and the end-to-end times are rescaled
   by [nominal_s / median kernel time] of the run. The kernel is a CSR
   arrival sweep over a fixed random DAG — the access pattern of the timing
   code — frozen here, allocation-free once built, so no engine or GC
   change can move it. *)

module Mono = Minflo_robust.Mono

(* the kernel's median time on an uncontended 2.1 GHz Xeon VM, so a
   rescaled value reads as seconds on that machine *)
let nominal_s = 0.08

let vertices = 20_000
let sweeps = 250

(* up to three fanins per vertex, each from the 200 preceding vertices *)
let graph =
  lazy
    (let state = ref 12345 in
     let rand k =
       state := ((!state * 1103515245) + 12345) land 0x3fffffff;
       !state mod k
     in
     let offsets = Array.make (vertices + 1) 0 in
     let fanins = Array.make (3 * vertices) 0 in
     let m = ref 0 in
     for i = 0 to vertices - 1 do
       offsets.(i) <- !m;
       if i > 0 then
         for _ = 1 to 1 + rand 3 do
           fanins.(!m) <- max 0 (i - 1 - rand (min i 200));
           incr m
         done
     done;
     offsets.(vertices) <- !m;
     let delay = Array.init vertices (fun i -> 1.0 +. float_of_int (i mod 7)) in
     (offsets, fanins, delay, Array.make vertices 0.0))

(* Wall seconds of one kernel run. *)
let time () =
  let offsets, fanins, delay, arrival = Lazy.force graph in
  let t0 = Mono.now () in
  for _ = 1 to sweeps do
    for i = 0 to vertices - 1 do
      let a = ref 0.0 in
      for e = offsets.(i) to offsets.(i + 1) - 1 do
        let f = fanins.(e) in
        let v = arrival.(f) +. delay.(f) in
        if v > !a then a := v
      done;
      arrival.(i) <- !a
    done
  done;
  Mono.elapsed_since t0
