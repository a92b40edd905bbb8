module Vec = Minflo_util.Vec

type t = {
  n : int;
  (* edge i and its reverse i lxor 1 are stored adjacently *)
  eto : int Vec.t;
  ecap : int Vec.t; (* residual capacity *)
  adj : int list array; (* per node, edge ids, reversed order *)
  mutable level : int array;
  mutable iter_state : int list array;
}

let create ~num_nodes =
  { n = num_nodes;
    eto = Vec.create ~dummy:(-1) ();
    ecap = Vec.create ~dummy:0 ();
    adj = Array.make (max num_nodes 1) [];
    level = [||];
    iter_state = [||] }

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Dinic.add_edge: negative capacity";
  let e = Vec.push t.eto dst in
  ignore (Vec.push t.ecap cap);
  let r = Vec.push t.eto src in
  ignore (Vec.push t.ecap 0);
  assert (r = e + 1);
  t.adj.(src) <- e :: t.adj.(src);
  t.adj.(dst) <- r :: t.adj.(dst);
  e

let bfs t source sink =
  let level = Array.make t.n (-1) in
  level.(source) <- 0;
  let q = Queue.create () in
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun e ->
        let v = Vec.get t.eto e in
        if level.(v) < 0 && Vec.get t.ecap e > 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  t.level <- level;
  level.(sink) >= 0

let rec dfs t u sink pushed =
  if u = sink then pushed
  else begin
    let rec try_edges () =
      match t.iter_state.(u) with
      | [] -> 0
      | e :: rest ->
        let v = Vec.get t.eto e in
        let c = Vec.get t.ecap e in
        if c > 0 && t.level.(v) = t.level.(u) + 1 then begin
          let got = dfs t v sink (min pushed c) in
          if got > 0 then begin
            Vec.set t.ecap e (c - got);
            Vec.set t.ecap (e lxor 1) (Vec.get t.ecap (e lxor 1) + got);
            got
          end
          else begin
            t.iter_state.(u) <- rest;
            try_edges ()
          end
        end
        else begin
          t.iter_state.(u) <- rest;
          try_edges ()
        end
    in
    try_edges ()
  end

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Dinic.max_flow: source = sink";
  let total = ref 0 in
  while bfs t source sink do
    t.iter_state <- Array.copy t.adj;
    let continue = ref true in
    while !continue do
      let got = dfs t source sink max_int in
      if got = 0 then continue := false else total := !total + got
    done
  done;
  !total

let flow_on t e =
  (* flow = residual capacity accumulated on the reverse edge *)
  Vec.get t.ecap (e lxor 1)
