(* The four sizing workloads. Each stresses a different layer, so an
   optimisation of one layer has a workload that exercises it and one that
   bypasses it (README.md, "Workloads, and why").

   Inputs are pure functions of the seed: seed 0 is the canonical input set
   (the one [expected.json] pins); any other seed loosens every job's delay
   factor by a seeded 0-0.1 %. *)

module Netlist = Minflo_netlist.Netlist
module Generators = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Transform = Minflo_netlist.Transform
module Minflotransit = Minflo_sizing.Minflotransit
module Rng = Minflo_util.Rng

type granularity = Gate | Transistor

type job = {
  id : string;
  netlist : Netlist.t;
      (** for [Transistor] jobs, already mapped onto NAND2/NOT — the input
          {!Minflo_tech.Transistor.of_netlist} requires. *)
  granularity : granularity;
  factor : float;  (** delay target as a fraction of Dmin. *)
}

type t = {
  name : string;
  options : Minflotransit.options;
  jobs : seed:int -> smoke:bool -> job list;
}

(* [minflo size] runs the cold engine; the bench grid and the scale runs
   use warm starts, which force canonical duals *)
let cold = Minflotransit.default_options

let warm =
  { Minflotransit.default_options with
    Minflotransit.warm_start = true;
    canonical_duals = true }

(* Seeded jitter on the delay targets: a different trajectory through the
   same engine, so a change tuned to the canonical inputs shows. At 1 % (and
   with a fresh DAG per seed) the work itself moved by up to 40 % between
   seeds; at 0.1 % it stays within about 1 %, so the spread across seeds
   measures the code, not the inputs. *)
let max_loosening = 0.001

let loosen ~seed jobs =
  if seed = 0 then jobs
  else
    let rng = Rng.create seed in
    List.map
      (fun j ->
        { j with factor = j.factor *. (1.0 +. Rng.float rng max_loosening) })
      jobs

let gate id netlist factor = { id; netlist; granularity = Gate; factor }

let table1 ~seed ~smoke =
  let rows =
    if smoke then List.filter (fun i -> i.Iscas85.name = "c432") Iscas85.suite
    else Iscas85.suite
  in
  loosen ~seed
    (List.map
       (fun (i : Iscas85.info) ->
         gate i.name (Iscas85.circuit i.name) i.delay_spec)
       rows)

let adder_deep ~seed ~smoke =
  let bits = if smoke then 64 else 1024 in
  loosen ~seed
    [ gate
        (Printf.sprintf "rca%d" bits)
        (Generators.ripple_carry_adder ~bits ())
        0.6 ]

let dag_bulk ~seed ~smoke =
  let gates = if smoke then 1_000 else 10_000 in
  loosen ~seed
    [ gate
        (Printf.sprintf "dag%dk" (gates / 1000))
        (Generators.random_dag ~gates ~inputs:64 ~outputs:32 ~seed:7 ())
        0.6 ]

let transistor ~seed ~smoke =
  let name = if smoke then "c432" else "c1908" in
  loosen ~seed
    [ { id = name;
        netlist = Transform.to_nand_inv (Iscas85.circuit name);
        granularity = Transistor;
        factor = 0.6 } ]

let all =
  [ { name = "table1"; options = cold; jobs = table1 };
    { name = "adder_deep"; options = warm; jobs = adder_deep };
    { name = "dag_bulk"; options = warm; jobs = dag_bulk };
    { name = "transistor"; options = warm; jobs = transistor } ]

let find name = List.find_opt (fun w -> w.name = name) all
