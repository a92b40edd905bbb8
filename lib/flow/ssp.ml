module Heap = Minflo_util.Heap
module Perf = Minflo_robust.Perf

(* Residual representation: arc [a] of the problem yields a forward entry
   (residual cap - flow, cost) and a backward entry (residual flow, -cost).
   Entries are encoded as [2a] (forward) and [2a+1] (backward). *)

type t = {
  p : Mcf.problem;
  flow : int array;
  excess : int array;
  pot : int array; (* Johnson potentials, dist convention *)
  (* CSR adjacency over residual entries *)
  adj_start : int array;
  adj_entry : int array;
}

let entry_arc e = e lsr 1
let entry_forward e = e land 1 = 0

let residual t e =
  let a = entry_arc e in
  if entry_forward e then t.p.arcs.(a).cap - t.flow.(a) else t.flow.(a)

let entry_cost t e =
  let a = entry_arc e in
  if entry_forward e then t.p.arcs.(a).cost else -t.p.arcs.(a).cost

let entry_src t e =
  let a = t.p.arcs.(entry_arc e) in
  if entry_forward e then a.src else a.dst

let entry_dst t e =
  let a = t.p.arcs.(entry_arc e) in
  if entry_forward e then a.dst else a.src

let build (p : Mcf.problem) =
  let n = p.num_nodes and m = Array.length p.arcs in
  let deg = Array.make (n + 1) 0 in
  Array.iter
    (fun (a : Mcf.arc) ->
      deg.(a.src) <- deg.(a.src) + 1;
      deg.(a.dst) <- deg.(a.dst) + 1)
    p.arcs;
  let adj_start = Array.make (n + 1) 0 in
  for v = 1 to n do
    adj_start.(v) <- adj_start.(v - 1) + deg.(v - 1)
  done;
  let cursor = Array.copy adj_start in
  let adj_entry = Array.make (2 * m) 0 in
  Array.iteri
    (fun i (a : Mcf.arc) ->
      adj_entry.(cursor.(a.src)) <- 2 * i;
      cursor.(a.src) <- cursor.(a.src) + 1;
      adj_entry.(cursor.(a.dst)) <- (2 * i) + 1;
      cursor.(a.dst) <- cursor.(a.dst) + 1)
    p.arcs;
  { p;
    flow = Array.make m 0;
    excess = Array.copy p.supply;
    pot = Array.make n 0;
    adj_start;
    adj_entry }

exception Aborted_exn

let tick budget =
  match budget with
  | None -> ()
  | Some b -> if not (Minflo_robust.Budget.tick_pivot b) then raise Aborted_exn

(* Cancel negative-cost residual cycles with Bellman-Ford (Klein). Needed so
   Dijkstra-based augmentation is sound on inputs with negative arc costs.
   Returns [false] when a negative cycle of unbounded capacity is found. *)
let cancel_negative_cycles ?budget t =
  let bounded = ref true in
  let continue = ref true in
  while !continue && !bounded do
    tick budget;
    Perf.tick_relabel ();
    let srcs = ref [] and dsts = ref [] and ws = ref [] and ids = ref [] in
    for e = (2 * Array.length t.p.arcs) - 1 downto 0 do
      if residual t e > 0 then begin
        srcs := entry_src t e :: !srcs;
        dsts := entry_dst t e :: !dsts;
        ws := entry_cost t e :: !ws;
        ids := e :: !ids
      end
    done;
    let g =
      { Bellman_ford.num_nodes = t.p.num_nodes;
        arc_src = Array.of_list !srcs;
        arc_dst = Array.of_list !dsts;
        arc_weight = Array.of_list !ws }
    in
    let id_of = Array.of_list !ids in
    match Bellman_ford.run_all g with
    | Distances _ -> continue := false
    | Negative_cycle arcs ->
      let entries = List.map (fun a -> id_of.(a)) arcs in
      let delta =
        List.fold_left (fun d e -> min d (residual t e)) max_int entries
      in
      if delta >= Mcf.infinite_capacity / 2 then bounded := false
      else
        List.iter
          (fun e ->
            let a = entry_arc e in
            t.flow.(a) <-
              (if entry_forward e then t.flow.(a) + delta else t.flow.(a) - delta))
          entries
  done;
  !bounded

let has_unbounded_negative_cycle p =
  Mcf.validate p;
  not (cancel_negative_cycles (build p))

exception Found_deficit of int

(* One Dijkstra from [s] over reduced costs; returns the reached deficit node
   and the predecessor-entry array, or None if no deficit is reachable. *)
let dijkstra t s dist pred =
  Array.fill dist 0 (Array.length dist) max_int;
  Array.fill pred 0 (Array.length pred) (-1);
  let heap = Heap.create () in
  dist.(s) <- 0;
  Heap.push heap ~key:0 s;
  let final = Array.make t.p.num_nodes false in
  let target = ref (-1) in
  (try
     let continue = ref true in
     while !continue do
       match Heap.pop_min heap with
       | None -> continue := false
       | Some (d, u) ->
         if not final.(u) then begin
           final.(u) <- true;
           if t.excess.(u) < 0 then raise (Found_deficit u);
           for k = t.adj_start.(u) to t.adj_start.(u + 1) - 1 do
             let e = t.adj_entry.(k) in
             if entry_src t e = u && residual t e > 0 then begin
               let v = entry_dst t e in
               let rc = entry_cost t e + t.pot.(u) - t.pot.(v) in
               let nd = d + rc in
               if nd < dist.(v) then begin
                 dist.(v) <- nd;
                 pred.(v) <- e;
                 Heap.push heap ~key:nd v
               end
             end
           done
         end
     done
   with Found_deficit u -> target := u);
  if !target < 0 then None else Some (!target, final)

let fail_solution (p : Mcf.problem) status =
  { Mcf.status;
    flow = Array.make (Array.length p.arcs) 0;
    potential = Array.make p.num_nodes 0;
    objective = 0 }

(* Bellman-Ford over the current residual graph (which must be free of
   negative cycles) to establish valid Johnson potentials. *)
let init_potentials t =
  Perf.tick_relabel ();
  let m = Array.length t.p.arcs in
  let srcs = ref [] and dsts = ref [] and ws = ref [] in
  for e = 0 to (2 * m) - 1 do
    if residual t e > 0 then begin
      srcs := entry_src t e :: !srcs;
      dsts := entry_dst t e :: !dsts;
      ws := entry_cost t e :: !ws
    end
  done;
  match
    Bellman_ford.run_all
      { num_nodes = t.p.num_nodes;
        arc_src = Array.of_list !srcs;
        arc_dst = Array.of_list !dsts;
        arc_weight = Array.of_list !ws }
  with
  | Distances d -> Array.blit d 0 t.pot 0 t.p.num_nodes
  | Negative_cycle _ -> assert false

(* The augmentation loop proper. Requires: t.pot is a valid potential for
   the current residual graph (all residual reduced costs non-negative). *)
let augment ?budget t : Mcf.solution =
  let p = t.p in
  let dist = Array.make p.num_nodes max_int in
  let pred = Array.make p.num_nodes (-1) in
  let infeasible = ref false in
  let continue = ref true in
  while !continue && not !infeasible do
    match Array.to_seq t.excess |> Seq.zip (Seq.ints 0)
          |> Seq.find (fun (_, e) -> e > 0) with
    | None -> continue := false
    | Some (s, _) -> (
      tick budget;
      match dijkstra t s dist pred with
      | None -> infeasible := true
      | Some (target, final) ->
        (* potentials update (Johnson) *)
        Perf.tick_relabel ();
        let dt = dist.(target) in
        for v = 0 to p.num_nodes - 1 do
          if final.(v) then t.pot.(v) <- t.pot.(v) + dist.(v)
          else if dist.(v) < max_int then
            t.pot.(v) <- t.pot.(v) + min dist.(v) dt
          else t.pot.(v) <- t.pot.(v) + dt
        done;
        (* bottleneck along the path *)
        let delta = ref (min t.excess.(s) (-t.excess.(target))) in
        let v = ref target in
        while !v <> s do
          let e = pred.(!v) in
          delta := min !delta (residual t e);
          v := entry_src t e
        done;
        let v = ref target in
        while !v <> s do
          let e = pred.(!v) in
          let a = entry_arc e in
          t.flow.(a) <-
            (if entry_forward e then t.flow.(a) + !delta
             else t.flow.(a) - !delta);
          v := entry_src t e
        done;
        t.excess.(s) <- t.excess.(s) - !delta;
        t.excess.(target) <- t.excess.(target) + !delta)
  done;
  if !infeasible then fail_solution p Infeasible
  else
    { status = Optimal;
      flow = Array.copy t.flow;
      potential = Array.map (fun x -> -x) t.pot;
      objective = Mcf.flow_cost p t.flow }

type state = { mutable cache : t option }

let make_state () = { cache = None }

let compatible t (p : Mcf.problem) =
  t.p.num_nodes = p.num_nodes
  && Array.length t.p.arcs = Array.length p.arcs
  &&
  let ok = ref true in
  Array.iteri
    (fun i (a : Mcf.arc) ->
      let b = t.p.arcs.(i) in
      if b.src <> a.src || b.dst <> a.dst then ok := false)
    p.arcs;
  !ok

(* With zero flow, the only residual entries are the forward ones with
   positive capacity, so the retained potentials are valid iff every such
   arc has non-negative reduced cost under the new costs — an O(m) check
   that decides whether the Bellman-Ford initialization (and negative-cycle
   cancellation) can be skipped entirely. *)
let pot_valid t =
  let ok = ref true in
  Array.iter
    (fun (a : Mcf.arc) ->
      if a.cap > 0 && a.cost + t.pot.(a.src) - t.pot.(a.dst) < 0 then ok := false)
    t.p.arcs;
  !ok

let solve_warm ?budget (st : state) (p : Mcf.problem) : Mcf.solution =
  Mcf.validate p;
  if not (Mcf.is_balanced p) then begin
    st.cache <- None;
    fail_solution p Infeasible
  end
  else begin
    let t, warm =
      match st.cache with
      | Some old when compatible old p ->
        (* reuse the adjacency and working arrays; restart the flow from
           zero but keep the potentials from the previous optimum *)
        let t = { old with p } in
        Array.fill t.flow 0 (Array.length t.flow) 0;
        Array.blit p.supply 0 t.excess 0 p.num_nodes;
        if pot_valid t then begin
          Perf.tick_warm_start ();
          (t, true)
        end
        else begin
          Perf.tick_cold_start ();
          (t, false)
        end
      | _ ->
        Perf.tick_cold_start ();
        (build p, false)
    in
    let sol =
      try
        if warm then augment ?budget t
        else if not (cancel_negative_cycles ?budget t) then
          fail_solution p Unbounded
        else begin
          init_potentials t;
          augment ?budget t
        end
      with Aborted_exn -> fail_solution p Aborted
    in
    st.cache <- (if sol.status = Optimal then Some t else None);
    sol
  end

(* a cold solve is a warm one with nothing cached *)
let solve ?budget p = solve_warm ?budget (make_state ()) p
