module Diag = Minflo_robust.Diag

type arc = { src : int; dst : int; cap : int; cost : int }

type problem = { num_nodes : int; arcs : arc array; supply : int array }

let infinite_capacity = max_int / 8

type status = Optimal | Infeasible | Unbounded | Aborted

let status_names =
  [ (Optimal, "optimal"); (Infeasible, "infeasible"); (Unbounded, "unbounded");
    (Aborted, "aborted") ]

let status_to_string s = List.assoc s status_names

let status_of_string name =
  List.find_map (fun (s, n) -> if n = name then Some s else None) status_names

type solution = {
  status : status;
  flow : int array;
  potential : int array;
  objective : int;
}

let validate p =
  if p.num_nodes < 0 then invalid_arg "Mcf: negative node count";
  if Array.length p.supply <> p.num_nodes then
    invalid_arg "Mcf: supply length mismatch";
  Array.iteri
    (fun i a ->
      if a.src < 0 || a.src >= p.num_nodes || a.dst < 0 || a.dst >= p.num_nodes
      then invalid_arg (Printf.sprintf "Mcf: arc %d has bad endpoints" i);
      if a.cap < 0 then invalid_arg (Printf.sprintf "Mcf: arc %d has cap < 0" i))
    p.arcs

let is_balanced p = Array.fold_left ( + ) 0 p.supply = 0

(* internal string-detail version; the public API wraps the detail into a
   typed [Diag.Invariant] *)
let feasibility_detail p flow =
  if Array.length flow <> Array.length p.arcs then Error "flow length mismatch"
  else begin
    let excess = Array.copy p.supply in
    let err = ref None in
    Array.iteri
      (fun i a ->
        let f = flow.(i) in
        if f < 0 || f > a.cap then
          err := Some (Printf.sprintf "arc %d flow %d out of [0,%d]" i f a.cap);
        excess.(a.src) <- excess.(a.src) - f;
        excess.(a.dst) <- excess.(a.dst) + f)
      p.arcs;
    match !err with
    | Some e -> Error e
    | None -> (
      match Array.to_seq excess |> Seq.zip (Seq.ints 0)
            |> Seq.find (fun (_, e) -> e <> 0) with
      | Some (v, e) -> Error (Printf.sprintf "node %d has nonzero excess %d" v e)
      | None -> Ok ())
  end

let check_feasible_flow p flow =
  Result.map_error
    (fun detail -> Diag.Invariant { what = "flow-conservation"; detail })
    (feasibility_detail p flow)

let flow_cost p flow =
  let total = ref 0 in
  Array.iteri (fun i a -> total := !total + (a.cost * flow.(i))) p.arcs;
  !total

(* Indexed 4-ary min-heap over node ids: slot [i] holds node [heap.(i)]
   with key [hkey.(i)], and [pos.(v)] is the slot of node [v] (-1 once
   removed). Keeping the keys in heap order makes a sift compare adjacent
   slots instead of chasing node ids. *)
let arity = 4

let place (hkey : int array) heap pos i k v =
  hkey.(i) <- k;
  heap.(i) <- v;
  pos.(v) <- i

(* fill the hole at slot [i] with node [v] of key [k], moving up *)
let rec sift_up hkey heap pos i k v =
  let parent = (i - 1) / arity in
  if i > 0 && hkey.(parent) > k then begin
    place hkey heap pos i hkey.(parent) heap.(parent);
    sift_up hkey heap pos parent k v
  end
  else place hkey heap pos i k v

(* fill the hole at slot [i] of a [size]-slot heap, moving down *)
let rec sift_down hkey heap pos size i k v =
  let first = (arity * i) + 1 in
  if first >= size then place hkey heap pos i k v
  else begin
    let best = ref first in
    for c = first + 1 to min (first + arity) size - 1 do
      if hkey.(c) < hkey.(!best) then best := c
    done;
    let b = !best in
    if hkey.(b) < k then begin
      place hkey heap pos i hkey.(b) heap.(b);
      sift_down hkey heap pos size b k v
    end
    else place hkey heap pos i k v
  end

(* remove the node at slot [i] of a [size]-slot heap; most slots are
   near the leaves, so this is cheap on average *)
let delete hkey heap pos size i =
  let last = size - 1 in
  pos.(heap.(i)) <- -1;
  if i < last then begin
    let k = hkey.(last) and v = heap.(last) in
    if i > 0 && hkey.((i - 1) / arity) > k then sift_up hkey heap pos i k v
    else sift_down hkey heap pos last i k v
  end

(* The optimal dual face of the LP is { pi : pi feasible, complementary
   slack with f } for ANY optimal flow f — complementary slackness with one
   optimal primal plus dual feasibility already forces optimality, and every
   optimal dual is slack-complementary with every optimal primal. Solutions
   of a difference-constraint system are closed under componentwise max, so
   capping every potential at 0 leaves a unique componentwise-maximal
   element of that face. Computing it is a shortest-path problem from a
   virtual source s with a 0-weight arc to every node, over every residual
   arc:

     f(a) < cap(a):  pi(u) - pi(v) <= cost(a)   => edge v -> u, weight cost
     f(a) > 0:       pi(v) - pi(u) <= -cost(a)  => edge u -> v, weight -cost

   The input potentials are themselves a valid Johnson reweighting: the
   reduced weights are exactly +-reduced-cost, non-negative at optimality,
   and the CSR stores them directly, so one Dijkstra suffices. Its
   distances are unique whatever order ties pop in. The point: the result
   does not depend on which optimal basis the solver happened to end on, so
   warm- and cold-started solves return bit-identical duals. *)
let canonical_potentials p (sol : solution) =
  let n = p.num_nodes in
  if n = 0 || sol.status <> Optimal then Array.copy sol.potential
  else begin
    let h = sol.potential and flow = sol.flow and arcs = p.arcs in
    let m = Array.length arcs in
    (* [start.(v + 1)] counts v's out-edges, then becomes v's end offset *)
    let start = Array.make (n + 1) 0 in
    let live = ref true in
    for i = 0 to m - 1 do
      let a = arcs.(i) in
      let rc = a.cost - h.(a.src) + h.(a.dst) in
      if flow.(i) < a.cap then begin
        start.(a.dst + 1) <- start.(a.dst + 1) + 1;
        if rc < 0 then live := false
      end;
      if flow.(i) > 0 then begin
        start.(a.src + 1) <- start.(a.src + 1) + 1;
        if rc > 0 then live := false
      end
    done;
    if not !live then
      (* the certificate is not actually optimal (possible only under fault
         injection / a solver bug): canonicalization would silently repair
         it, so hand the raw potentials to the downstream detectors *)
      Array.copy sol.potential
    else begin
      for v = 1 to n do
        start.(v) <- start.(v) + start.(v - 1)
      done;
      (* [first.(v)] starts at v's end offset; filling from the back leaves
         it at v's first edge, with every list in arc order *)
      let m2 = start.(n) in
      let eto = Array.make m2 0 and ew = Array.make m2 0 in
      let first = Array.sub start 1 n in
      for i = m - 1 downto 0 do
        let a = arcs.(i) in
        let rc = a.cost - h.(a.src) + h.(a.dst) in
        if flow.(i) > 0 then begin
          let k = first.(a.src) - 1 in
          first.(a.src) <- k;
          eto.(k) <- a.dst;
          ew.(k) <- -rc
        end;
        if flow.(i) < a.cap then begin
          let k = first.(a.dst) - 1 in
          first.(a.dst) <- k;
          eto.(k) <- a.src;
          ew.(k) <- rc
        end
      done;
      (* Dijkstra over the reduced weights, every node seeded through the
         virtual source's 0-weight arc (reduced: hs - h(v) >= 0) *)
      let hs = ref h.(0) in
      for v = 1 to n - 1 do
        if h.(v) > !hs then hs := h.(v)
      done;
      let hs = !hs in
      let dist = Array.init n (fun v -> hs - h.(v)) in
      let hkey = Array.copy dist in
      let heap = Array.init n Fun.id and pos = Array.init n Fun.id in
      let stack = Array.make n 0 in
      for i = (n - 2) / arity downto 0 do
        sift_down hkey heap pos n i hkey.(i) heap.(i)
      done;
      (* Pop the minimum [d] and scan it. A node that an edge of reduced
         weight 0 reaches at [d] is final at once: it leaves the heap
         (usually from near the leaves, so cheaply) and waits on [stack]
         to be scanned at the same [d]. *)
      let size = ref n and top = ref 0 in
      while !size > 0 do
        let d = hkey.(0) in
        stack.(0) <- heap.(0);
        top := 1;
        delete hkey heap pos !size 0;
        decr size;
        while !top > 0 do
          decr top;
          let x = stack.(!top) in
          for k = first.(x) to start.(x + 1) - 1 do
            let v = eto.(k) in
            let nd = d + ew.(k) in
            (* weights are >= 0, so a removed node never improves again *)
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              if nd = d then begin
                delete hkey heap pos !size pos.(v);
                decr size;
                stack.(!top) <- v;
                incr top
              end
              else sift_up hkey heap pos pos.(v) nd v
            end
          done
        done
      done;
      Array.init n (fun v -> dist.(v) - hs + h.(v))
    end
  end

let check_optimality p sol =
  match feasibility_detail p sol.flow with
  | Error detail ->
    Error
      (Diag.Invariant
         { what = "flow-conservation"; detail })
  | Ok () ->
    let err = ref None in
    Array.iteri
      (fun i a ->
        let rc = a.cost - sol.potential.(a.src) + sol.potential.(a.dst) in
        if sol.flow.(i) < a.cap && rc < 0 then
          err := Some (Printf.sprintf "arc %d below cap with reduced cost %d" i rc);
        if sol.flow.(i) > 0 && rc > 0 then
          err := Some (Printf.sprintf "arc %d above 0 with reduced cost %d" i rc))
      p.arcs;
    match !err with
    | Some detail -> Error (Diag.Invariant { what = "reduced-cost-optimality"; detail })
    | None -> Ok ()
