let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let hash_netlist nl = fnv1a64 (Minflo_netlist.Bench_format.to_string nl)

let table : (string * int64, Delay_model.t) Hashtbl.t = Hashtbl.create 16

let model ?(tech = Tech.default_130nm) nl =
  let key = (tech.Tech.name, hash_netlist nl) in
  match Hashtbl.find_opt table key with
  | Some m ->
    Minflo_robust.Perf.tick_cache_hit ();
    m
  | None ->
    Minflo_robust.Perf.tick_cache_miss ();
    let m = Elmore.of_netlist tech nl in
    Hashtbl.add table key m;
    m

let clear () = Hashtbl.reset table
