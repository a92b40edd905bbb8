(* Primal network simplex with:
   - an artificial root node and big-M artificial arcs. [solve] starts from
     the all-artificial spanning tree, a cold [solve_warm] from a crash
     basis on real arcs ([crash_basis]), and a warm [solve_warm] repairs
     the kept basis, re-hanging a cut subtree on a real arc whenever one
     can carry its flow and on its node's artificial arc only otherwise
     ([rewarm]); all three are strongly feasible;
   - an altering candidate list for the entering arc (LEMON's
     AlteringList pricing; Kiraly & Kovacs, arXiv 1207.6381): each pivot
     re-prices the short list of violated arcs the last one kept before it
     scans any new block of arcs ([find_entering]);
   - cut seeding of that list: a pivot changes reduced costs only on the
     arcs that cross the cut around the re-hung subtree, so the walk that
     shifts one side's potentials also re-prices the incident arcs of that
     side's first nodes, at most one block of them, through a node ->
     incident-arc index, and appends the violated ones
     ([shift_potentials]);
   - Cunningham's rule for the leaving arc (last blocking arc met when the
     cycle is traversed in its own orientation starting at the apex), which
     keeps the tree strongly feasible and prevents cycling;
   - the spanning tree as an augmented thread index (parent / thread /
     rev_thread / succ_num / last_succ, the scheme of LEMON's
     NetworkSimplex; Kiraly & Kovacs, arXiv 1207.6381). The thread is a
     preorder of the tree kept as a cyclic doubly linked list starting at
     the root, so the subtree of v is the contiguous segment
     [v, last_succ v] of succ_num v nodes. A pivot re-roots the cut subtree
     by splicing the thread along the stem, in O(stem + the two paths to
     the apex), with no traversal of the subtree itself;
   - potential updates on the smaller side of the cut: a pivot shifts the
     cut subtree's potentials by one offset [dpi]; when that subtree holds
     more than half of the n+1 nodes, the complement is shifted by [-dpi]
     instead. Both leave every potential difference the same. Pricing only
     reads differences, and every returned potential is [pi v - pi root],
     so the root may drift. OCaml ints wrap modulo 2^63, so a difference
     that fits in an int stays exact even if the drifting potentials wrap;
   - an optional reusable [state]: across calls that keep the network shape
     (same nodes, same arc endpoints) the optimal spanning-tree basis of the
     previous solve seeds the next one, so a solve after a small cost/supply
     change needs only the pivots that repair optimality, not the full climb
     out of the artificial basis. The state keeps only the basis (arc
     endpoints, arc states, parent links) and the shape's incidence index;
     a warm solve allocates the other working arrays afresh, re-hangs nodes
     by their parent pointers alone and rebuilds the thread index and the
     potentials from the parents in O(n) passes.

   All arithmetic is on OCaml ints; capacities are clamped to
   Mcf.infinite_capacity so sums cannot overflow 63-bit ints. *)

module Perf = Minflo_robust.Perf

(* arc states; pricing multiplies by them ([find_entering]) *)
let state_tree = 0
let state_lower = 1
let state_upper = -1

(* The node -> incident-arc index of a network shape: every one of the
   m = m_real + n arcs listed under both its endpoints, ascending per node,
   as CSR offsets over nodes 0..n (n+2 words) and arcs (2m words). The
   artificial arc [m_real + v] is listed under [v] and the root whichever
   way it points, so re-orienting it keeps the index valid; the index
   depends on the arc endpoints alone and lives as long as the shape. *)
type incidence = { off : int array; arcs : int array }

let incidence (p : Mcf.problem) =
  let n = p.num_nodes and m_real = Array.length p.arcs in
  let off = Array.make (n + 2) 0 and arcs = Array.make (2 * (m_real + n)) 0 in
  (* every (node, arc) pair, arcs descending *)
  let each f =
    for v = n - 1 downto 0 do
      f v (m_real + v);
      f n (m_real + v)
    done;
    for a = m_real - 1 downto 0 do
      f p.arcs.(a).Mcf.dst a;
      f p.arcs.(a).Mcf.src a
    done
  in
  each (fun x _ -> off.(x) <- off.(x) + 1);
  for x = 1 to n do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  off.(n + 1) <- off.(n);
  (* filled back to front, so each list ends ascending and [off.(x)] ends
     at the list's start *)
  each (fun x a ->
      off.(x) <- off.(x) - 1;
      arcs.(off.(x)) <- a);
  { off; arcs }

type t = {
  n : int;             (* real nodes; root is node n *)
  m_real : int;
  m : int;             (* m_real + n artificial arcs *)
  src : int array;
  dst : int array;
  cap : int array;
  cost : int array;
  flow : int array;
  state : int array;
  (* tree structure, indexed by node (0..n, root = n) *)
  parent : int array;  (* -1 for root *)
  parc : int array;    (* arc to parent, -1 for root *)
  pi : int array;      (* potentials, up to one additive constant *)
  thread : int array;  (* preorder successor, cyclic through the root *)
  rev_thread : int array;
  succ_num : int array; (* subtree size *)
  last_succ : int array; (* last node of the subtree in thread order *)
  mutable scan_pos : int; (* pricing scan cursor *)
  block : int;         (* B: arcs per pricing block *)
  head : int;          (* H: candidates kept between pivots *)
  inc : incidence;     (* node -> incident arcs, kept with the shape *)
  (* the candidate list: arcs and their violations in slots
     0..cand_len-1, 2B+H+1 slots (see [shift_potentials] and
     [find_entering]) *)
  cand : int array;
  cand_viol : int array;
  mutable cand_len : int;
  (* preallocated pivot scratch: the two tree paths of the current cycle
     (walk order: entering-endpoint first, apex-side last) and the nodes
     whose thread successor a re-root changed. A path or the stem holds at
     most n+1 nodes, so n+1 slots suffice. Between pivots the int arrays
     are idle; [rewarm] borrows them. *)
  ts_arc : int array;
  ts_inc : bool array;
  ts_below : int array;
  hs_arc : int array;
  hs_inc : bool array;
  hs_below : int array;
  dirty : int array;
}

(* Rebuild the thread index and the potentials from [parent]/[parc] alone,
   in O(n) and without allocating: child lists go into the idle scratch
   ([ts_below] heads, [hs_below] next siblings, [ts_arc] preorder
   positions), then one stackless preorder walk threads the nodes, sets
   each potential from its parent's (root at 0), and closes
   [succ_num]/[last_succ] of every subtree the walk climbs out of. *)
let rebuild_tree t =
  let root = t.n in
  let head = t.ts_below and next = t.hs_below and pos = t.ts_arc in
  Array.fill head 0 (root + 1) (-1);
  for v = root - 1 downto 0 do
    let par = t.parent.(v) in
    next.(v) <- head.(par);
    head.(par) <- v
  done;
  t.pi.(root) <- 0;
  pos.(root) <- 0;
  let count = ref 1 and prev = ref root in
  let close z =
    t.succ_num.(z) <- !count - pos.(z);
    t.last_succ.(z) <- !prev
  in
  let x = ref head.(root) in
  while !x <> -1 do
    let v = !x in
    t.thread.(!prev) <- v;
    t.rev_thread.(v) <- !prev;
    prev := v;
    pos.(v) <- !count;
    incr count;
    let par = t.parent.(v) and a = t.parc.(v) in
    t.pi.(v) <-
      (if t.dst.(a) = v then t.pi.(par) - t.cost.(a)
       else t.pi.(par) + t.cost.(a));
    if head.(v) <> -1 then x := head.(v)
    else begin
      (* a leaf ends its own subtree and those it is the last node of *)
      let z = ref v in
      close v;
      while !z <> root && next.(!z) = -1 do
        z := t.parent.(!z);
        close !z
      done;
      x := if !z = root then -1 else next.(!z)
    end
  done;
  t.thread.(!prev) <- root;
  t.rev_thread.(root) <- !prev;
  close root

(* A solver over the given basis arrays and incidence index, with every
   other working array fresh: costs, capacities, flows, potentials, the
   thread index and the pivot scratch. *)
let alloc ~n ~m_real ~src ~dst ~state ~parent ~parc ~inc =
  let m = m_real + n in
  let arcs () = Array.make m 0 and nodes () = Array.make (n + 1) 0 in
  let block = max 10 (int_of_float (sqrt (float_of_int m))) in
  let head = max 10 (block / 5) in
  let slots () = Array.make ((2 * block) + head + 1) 0 in
  { n; m_real; m; src; dst; cap = arcs (); cost = arcs (); flow = arcs ();
    state; parent; parc;
    pi = nodes (); thread = nodes (); rev_thread = nodes ();
    succ_num = nodes (); last_succ = nodes (); scan_pos = 0;
    block; head; inc;
    cand = slots (); cand_viol = slots (); cand_len = 0;
    ts_arc = nodes ();
    ts_inc = Array.make (n + 1) false;
    ts_below = nodes ();
    hs_arc = nodes ();
    hs_inc = Array.make (n + 1) false;
    hs_below = nodes ();
    dirty = nodes () }

(* The crash basis: a strongly feasible first tree on real arcs, built in
   O(m) with no pivots, in place of most of the climb out of the
   all-artificial basis (the start LEMON's network simplex builds before it
   pivots; Kiraly & Kovacs, arXiv 1207.6381). [t] holds the all-artificial
   basis on entry; the thread index is not built yet.

   - Pair: in arc index order, an arc [u -> v] with [supply u = b > 0],
     [supply v = -b], both ends unpaired and [cap > b] pairs them: [v]
     hangs under [u] by that arc, which carries [b].
   - Hang: a breadth-first search from the unpaired zero-supply nodes (the
     seeds, which stay on their zero-flow artificial arcs into the root)
     walks real arcs backward. A pair whose supply node [x] is still loose
     and has an arc [x -> y] with [cap > 0] into an attached node [y] hangs
     under [y] by that arc with zero flow, and both its nodes join the
     search.
   - Rest: every other node keeps its artificial arc. An attached node's
     artificial arc leaves the tree at zero flow, oriented [root -> x]: its
     reduced cost [big_m + pi x] is positive (an attached [pi x] is a seed's
     [big_m] plus at most n arc costs), so it never enters.

   Pair arcs point leafward with positive flow below capacity, hang arcs and
   seed arcs point rootward below capacity, so the tree is strongly
   feasible. An attached group carries no artificial flow, so a positive
   artificial flow at the optimum still means infeasible.

   The scratch is the idle pivot arrays: [dirty] holds each node's pair
   arc, [ts_below] the heads and the real arcs' flow slots (all zero until
   the pair flows are written) the links of the incoming-arc lists, and
   [hs_below] the search queue. A loose pair's supply node is the one
   paired node still parented on the root. *)
let crash_basis t (p : Mcf.problem) =
  let n = t.n and m_real = t.m_real and root = t.n in
  let supply = p.supply in
  let mate = t.dirty and head = t.ts_below and link = t.flow in
  let queue = t.hs_below in
  Array.fill mate 0 n (-1);
  for a = 0 to m_real - 1 do
    let u = t.src.(a) and v = t.dst.(a) in
    let b = supply.(u) in
    if b > 0 && supply.(v) = -b && mate.(u) < 0 && mate.(v) < 0 && t.cap.(a) > b
    then begin
      mate.(u) <- a;
      mate.(v) <- a
    end
  done;
  (* incoming arcs, each list in ascending arc order *)
  Array.fill head 0 n (-1);
  for a = m_real - 1 downto 0 do
    let y = t.dst.(a) in
    link.(a) <- head.(y);
    head.(y) <- a
  done;
  let len = ref 0 in
  for v = 0 to n - 1 do
    if supply.(v) = 0 && mate.(v) < 0 then begin
      queue.(!len) <- v;
      incr len
    end
  done;
  let detach x =
    let aa = m_real + x in
    t.src.(aa) <- root;
    t.dst.(aa) <- x;
    t.flow.(aa) <- 0;
    t.state.(aa) <- state_lower
  in
  let i = ref 0 in
  while !i < !len do
    let y = queue.(!i) in
    incr i;
    let a = ref head.(y) in
    while !a >= 0 do
      let x = t.src.(!a) in
      let pa = mate.(x) in
      if pa >= 0 && t.src.(pa) = x && t.parent.(x) = root && t.cap.(!a) > 0
      then begin
        let v = t.dst.(pa) in
        t.parent.(x) <- y;
        t.parc.(x) <- !a;
        t.state.(!a) <- state_tree;
        t.parent.(v) <- x;
        t.parc.(v) <- pa;
        t.state.(pa) <- state_tree;
        detach x;
        detach v;
        queue.(!len) <- x;
        queue.(!len + 1) <- v;
        len := !len + 2
      end;
      a := link.(!a)
    done
  done;
  (* real flows: zero, except on the attached pair arcs, the only real tree
     arcs that point leafward *)
  Array.fill link 0 m_real 0;
  for v = 0 to n - 1 do
    let a = t.parc.(v) in
    if a < m_real && t.dst.(a) = v then t.flow.(a) <- -supply.(v)
  done

(* The all-artificial basis, or with [~crash:true] the crash basis. *)
let create ?(crash = false) (p : Mcf.problem) =
  let n = p.num_nodes in
  let m_real = Array.length p.arcs in
  let m = m_real + n in
  let t =
    alloc ~n ~m_real ~src:(Array.make m 0) ~dst:(Array.make m 0)
      ~state:(Array.make m state_lower) ~parent:(Array.make (n + 1) (-1))
      ~parc:(Array.make (n + 1) (-1)) ~inc:(incidence p)
  in
  let max_cost = ref 1 in
  Array.iteri
    (fun i (a : Mcf.arc) ->
      t.src.(i) <- a.src;
      t.dst.(i) <- a.dst;
      t.cap.(i) <- min a.cap Mcf.infinite_capacity;
      t.cost.(i) <- a.cost;
      if abs a.cost > !max_cost then max_cost := abs a.cost)
    p.arcs;
  (* big-M: strictly dominates any simple-path cost through real arcs *)
  let big_m = ((n + 1) * !max_cost) + 1 in
  let root = n in
  for v = 0 to n - 1 do
    let a = m_real + v in
    let b = p.supply.(v) in
    (* supply rides v -> root, demand root -> v: a zero-flow artificial arc
       points toward the root, which keeps the tree strongly feasible. Every
       artificial arc gets reduced cost 0 from [rebuild_tree]'s potentials
       (pi v = +-big_m). *)
    if b >= 0 then begin
      t.src.(a) <- v;
      t.dst.(a) <- root;
      t.flow.(a) <- b
    end
    else begin
      t.src.(a) <- root;
      t.dst.(a) <- v;
      t.flow.(a) <- -b
    end;
    t.cap.(a) <- Mcf.infinite_capacity;
    t.cost.(a) <- big_m;
    t.state.(a) <- state_tree;
    t.parent.(v) <- root;
    t.parc.(v) <- a
  done;
  if crash then crash_basis t p;
  rebuild_tree t;
  t

(* Move the [k] largest of [viol.(0..len-1)] into slots 0..k-1, each
   arc riding with its violation (Hoare's FIND as Wirth writes it: a
   partition around the middle slot, then only the side holding slot
   [k-1] again), in place and in expected O(len). *)
let select_top (cand : int array) (viol : int array) len k =
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let x = viol.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while viol.(!i) > x do incr i done;
      while x > viol.(!j) do decr j done;
      if !i <= !j then begin
        let a = cand.(!i) and v = viol.(!i) in
        cand.(!i) <- cand.(!j);
        viol.(!i) <- viol.(!j);
        cand.(!j) <- a;
        viol.(!j) <- v;
        incr i;
        decr j
      end
    done;
    if !j < k - 1 then lo := !i;
    if k - 1 < !i then hi := !j
  done

(* Entering arc: the altering candidate list. An arc's violation is
   [state * (pi src - pi dst - cost)], its reduced cost signed so that a
   positive value means it can enter (a tree arc, state 0, prices 0).

   1. Re-price the candidates the last call kept; keep those still
      violated. An arc that entered the tree now prices 0, one that moved
      bound to bound prices negative, so both drop out.
   2. Scan cyclically from [scan_pos] in blocks of [block] arcs, appending
      every violated arc. Stop at the first block boundary where the list
      holds more than [head] entries, and after the first block as soon as
      it holds any. Only a full cycle that leaves the list empty means
      optimal (-1).
   3. Select the best [head + 1] by violation, enter the best and keep the
      other [head] for the next call.

   Step 1 also re-prices the seeds the last pivot appended
   ([shift_potentials]), so only violated arcs enter. The list holds at
   most [head] survivors plus one block of seeds plus one block of scan, or
   the scan would have stopped at the boundary before, so
   [2 block + head + 1] slots suffice. A seed or a scan that repeats a
   survivor appends it twice; the copy left behind drops out at the next
   re-pricing. Every re-pricing and every scanned arc counts in
   [Perf.arcs_priced], added once per call. *)
let find_entering t =
  let state = t.state and cost = t.cost and src = t.src and dst = t.dst in
  let pi = t.pi and cand = t.cand and viol = t.cand_viol in
  let len = ref 0 in
  for i = 0 to t.cand_len - 1 do
    let a = cand.(i) in
    let v = state.(a) * (pi.(src.(a)) - pi.(dst.(a)) - cost.(a)) in
    if v > 0 then begin
      cand.(!len) <- a;
      viol.(!len) <- v;
      incr len
    end
  done;
  let m = t.m and block = t.block in
  let pos = ref t.scan_pos and left = ref block and limit = ref t.head in
  let checked = ref 0 and scanning = ref true in
  while !scanning && !checked < m do
    let a = !pos in
    let v = state.(a) * (pi.(src.(a)) - pi.(dst.(a)) - cost.(a)) in
    if v > 0 then begin
      cand.(!len) <- a;
      viol.(!len) <- v;
      incr len
    end;
    incr checked;
    pos := if a + 1 = m then 0 else a + 1;
    decr left;
    if !left = 0 then
      if !len > !limit then scanning := false
      else begin
        limit := 0;
        left := block
      end
  done;
  t.scan_pos <- !pos;
  Perf.tick_arcs_priced (t.cand_len + !checked);
  let len = !len in
  if len = 0 then begin
    t.cand_len <- 0;
    -1
  end
  else begin
    let keep = min (t.head + 1) len in
    if keep < len then select_top cand viol len keep;
    let best = ref 0 in
    for i = 1 to keep - 1 do
      if viol.(i) > viol.(!best) then best := i
    done;
    let e = cand.(!best) in
    cand.(!best) <- cand.(keep - 1);
    viol.(!best) <- viol.(keep - 1);
    t.cand_len <- keep - 1;
    e
  end

(* Re-root the subtree under [u_out] at [u_in] and hang it from [v_in] via
   the entering arc [e]; [join] is the cycle's apex. LEMON's
   updateTreeStructure: the thread is spliced stem node by stem node (each
   stem node's remaining subtree, then the next stem node's), parents and
   arcs to parents are reversed along the stem, and [succ_num]/[last_succ]
   are patched on the stem and on the paths from [v_in] and from the old
   parent of [u_out] up to [join]. *)
let update_tree t ~join ~u_in ~v_in ~u_out ~e =
  let parent = t.parent and thread = t.thread and rev = t.rev_thread in
  let succ = t.succ_num and last = t.last_succ in
  let old_rev_thread = rev.(u_out) in
  let old_succ_num = succ.(u_out) in
  let old_last_succ = last.(u_out) in
  let v_out = parent.(u_out) in
  (* the cut segment is re-threaded right after v_in; when it already
     follows v_in it stays in place *)
  let thread_continue =
    if old_rev_thread = v_in then thread.(old_last_succ) else thread.(v_in)
  in
  let stem = ref u_in and par_stem = ref v_in in
  let last_ = ref last.(u_in) in
  let after = ref thread.(!last_) in
  thread.(v_in) <- u_in;
  let dirty = t.dirty in
  dirty.(0) <- v_in;
  let nd = ref 1 in
  while !stem <> u_out do
    (* the next stem node follows the current one's subtree ... *)
    let next_stem = parent.(!stem) in
    thread.(!last_) <- next_stem;
    dirty.(!nd) <- !last_;
    incr nd;
    (* ... which leaves its old place in the thread *)
    let before = rev.(!stem) in
    thread.(before) <- !after;
    rev.(!after) <- before;
    parent.(!stem) <- !par_stem;
    par_stem := !stem;
    stem := next_stem;
    last_ :=
      if last.(!stem) = last.(!par_stem) then rev.(!par_stem)
      else last.(!stem);
    after := thread.(!last_)
  done;
  parent.(u_out) <- !par_stem;
  thread.(!last_) <- thread_continue;
  rev.(thread_continue) <- !last_;
  last.(u_out) <- !last_;
  if old_rev_thread <> v_in then begin
    thread.(old_rev_thread) <- !after;
    rev.(!after) <- old_rev_thread
  end;
  for i = 0 to !nd - 1 do
    let u = dirty.(i) in
    rev.(thread.(u)) <- u
  done;
  (* arcs to parents, subtree sizes and last nodes along the new stem,
     from u_out up to u_in *)
  let sc = ref 0 and ls = last.(u_out) in
  let u = ref u_out in
  while !u <> u_in do
    let p = parent.(!u) in
    t.parc.(!u) <- t.parc.(p);
    sc := !sc + succ.(!u) - succ.(p);
    succ.(!u) <- !sc;
    last.(p) <- ls;
    u := p
  done;
  t.parc.(u_in) <- e;
  succ.(u_in) <- old_succ_num;
  (* last_succ from v_in towards the root *)
  let up_limit_out = if last.(join) = v_in then join else -1 in
  let last_succ_out = last.(u_out) in
  let u = ref v_in in
  while !u <> -1 && last.(!u) = v_in do
    last.(!u) <- last_succ_out;
    u := parent.(!u)
  done;
  (* last_succ from v_out towards the root *)
  let fix_from_v_out ls =
    let u = ref v_out in
    while !u <> up_limit_out && last.(!u) = old_last_succ do
      last.(!u) <- ls;
      u := parent.(!u)
    done
  in
  if join <> old_rev_thread && v_in <> old_rev_thread then
    fix_from_v_out old_rev_thread
  else if last_succ_out <> old_last_succ then fix_from_v_out last_succ_out;
  (* succ_num on both paths up to join *)
  let u = ref v_in in
  while !u <> join do
    succ.(!u) <- succ.(!u) + old_succ_num;
    u := parent.(!u)
  done;
  let u = ref v_out in
  while !u <> join do
    succ.(!u) <- succ.(!u) - old_succ_num;
    u := parent.(!u)
  done

(* Shift the potentials of the subtree under [q] by [dpi] — or, when it
   holds more than half of the nodes, the complement by [-dpi]: the same
   potential differences from fewer writes (see the header comment) — and
   seed the candidate list from the cut.

   Only arcs with one end on each side change reduced cost, and each of
   them is incident to a node of the shifted side. The walk goes through
   that side in thread order from its first node; right after shifting a
   node it re-prices the node's incident arcs (the root's are all
   artificial and skipped), until [block] arcs are priced, and appends
   every violated one. It then shifts the rest of the side without
   pricing. A node's arcs to side-mates the walk has not shifted yet are
   priced off by [dpi], so a seed may be no violation at all:
   [find_entering] re-prices every entry before it selects. The list held
   at most [head] survivors, so seeding leaves at most [block + head]
   entries. Each call adds the side's size to [Perf.potential_writes] and
   its re-pricings to [Perf.arcs_priced]. *)
let shift_potentials t q dpi =
  let stop = t.thread.(t.last_succ.(q)) in
  let small = 2 * t.succ_num.(q) <= t.n + 1 in
  let first = if small then q else stop and last = if small then stop else q in
  let dpi = if small then dpi else -dpi in
  let pi = t.pi and thread = t.thread and root = t.n in
  let state = t.state and cost = t.cost and src = t.src and dst = t.dst in
  let off = t.inc.off and inc = t.inc.arcs in
  let cand = t.cand and viol = t.cand_viol in
  let len = ref t.cand_len and left = ref t.block in
  let u = ref first in
  while !u <> last && !left > 0 do
    let x = !u in
    pi.(x) <- pi.(x) + dpi;
    if x <> root then begin
      let lo = off.(x) in
      let hi = if off.(x + 1) - lo < !left then off.(x + 1) else lo + !left in
      left := !left - (hi - lo);
      for i = lo to hi - 1 do
        let a = inc.(i) in
        let v = state.(a) * (pi.(src.(a)) - pi.(dst.(a)) - cost.(a)) in
        if v > 0 then begin
          cand.(!len) <- a;
          viol.(!len) <- v;
          incr len
        end
      done
    end;
    u := thread.(x)
  done;
  while !u <> last do
    pi.(!u) <- pi.(!u) + dpi;
    u := thread.(!u)
  done;
  t.cand_len <- !len;
  Perf.tick_arcs_priced (t.block - !left);
  Perf.tick_potential_writes
    (if small then t.succ_num.(q) else t.n + 1 - t.succ_num.(q))

(* room left to push along [a] ([inc]) or against it *)
let[@inline] residual t a inc =
  if inc then t.cap.(a) - t.flow.(a) else t.flow.(a)

exception Unbounded_exn

exception Aborted_exn

(* Pivot from the current (strongly feasible) basis to optimality.

   The cycle lives in the preallocated [ts_*]/[hs_*] scratch, filled in walk
   order (entering-arc endpoint first). The apex search climbs from
   whichever side has the smaller subtree — that side cannot be the apex —
   but each side's arcs are still recorded endpoint first, so the cycle is
   the same sequence whatever the climbing order. Cycle orientation starts
   at the apex: tail side reversed (apex -> tail), then the entering arc,
   then the head side in fill order (head -> apex) — the same sequence the
   historical list-based code produced, so the Cunningham last-blocking-arc
   choice (and with it the whole pivot trajectory) is unchanged. *)
let run_pivots ?budget t =
  let tick () =
    Perf.tick_pivot ();
    match budget with
    | None -> ()
    | Some b -> if not (Minflo_robust.Budget.tick_pivot b) then raise Aborted_exn
  in
  let continue = ref true in
  while !continue do
    let e = find_entering t in
    if e < 0 then continue := false
    else begin
      tick ();
      (* push direction: along the arc when at lower bound, against when
         at upper bound *)
      let s = t.state.(e) in
      let tail = if s = state_lower then t.src.(e) else t.dst.(e) in
      let head = if s = state_lower then t.dst.(e) else t.src.(e) in
      (* walk up to the apex, collecting both paths; each side also keeps
         its minimum residual and the slot of its Cunningham candidate:
         the tail side is traversed in reverse fill order, so its last
         blocking arc is the first slot that reaches the minimum ([<]);
         the head side is traversed in fill order, so its last blocking
         arc is the last such slot ([<=]). Residuals are read before any
         flow moves, as each distinct arc appears once in the cycle. *)
      let ts_len = ref 0 and hs_len = ref 0 in
      let ts_min = ref max_int and ts_slot = ref (-1) in
      let hs_min = ref max_int and hs_slot = ref (-1) in
      let u = ref tail and v = ref head in
      while !u <> !v do
        if t.succ_num.(!u) < t.succ_num.(!v) then begin
          (* cycle orientation crosses a as parent(u) -> u on the tail
             side: increases flow iff the arc points down to u *)
          let a = t.parc.(!u) in
          let inc = t.dst.(a) = !u in
          let k = !ts_len in
          t.ts_arc.(k) <- a;
          t.ts_inc.(k) <- inc;
          t.ts_below.(k) <- !u;
          let r = residual t a inc in
          if r < !ts_min then begin
            ts_min := r;
            ts_slot := k
          end;
          ts_len := k + 1;
          u := t.parent.(!u)
        end
        else begin
          (* head side is traversed v -> parent(v): increases flow iff the
             arc points up from v *)
          let a = t.parc.(!v) in
          let inc = t.src.(a) = !v in
          let k = !hs_len in
          t.hs_arc.(k) <- a;
          t.hs_inc.(k) <- inc;
          t.hs_below.(k) <- !v;
          let r = residual t a inc in
          if r <= !hs_min then begin
            hs_min := r;
            hs_slot := k
          end;
          hs_len := k + 1;
          v := t.parent.(!v)
        end
      done;
      let join = !u in
      let e_inc = s = state_lower in
      let r_e = residual t e e_inc in
      let side_min = if !ts_min < !hs_min then !ts_min else !hs_min in
      let delta = if r_e < side_min then r_e else side_min in
      if delta >= Mcf.infinite_capacity / 2 then raise Unbounded_exn;
      (* Cunningham: the last blocking arc in cycle orientation (apex ->
         tail, entering arc, head -> apex). Side 0 = tail path, 1 =
         entering, 2 = head path. *)
      let lv_side = if !hs_min = delta then 2 else if r_e = delta then 1 else 0 in
      (* a degenerate pivot moves no flow *)
      if delta <> 0 then begin
        for k = 0 to !ts_len - 1 do
          let a = t.ts_arc.(k) in
          t.flow.(a) <-
            (if t.ts_inc.(k) then t.flow.(a) + delta else t.flow.(a) - delta)
        done;
        t.flow.(e) <- (if e_inc then t.flow.(e) + delta else t.flow.(e) - delta);
        for k = 0 to !hs_len - 1 do
          let a = t.hs_arc.(k) in
          t.flow.(a) <-
            (if t.hs_inc.(k) then t.flow.(a) + delta else t.flow.(a) - delta)
        done
      end;
      if lv_side = 1 then
        (* the entering arc itself blocks: it moves bound-to-bound, no
           potential moves and nothing is seeded *)
        t.state.(e) <- -s
      else begin
        (* the subtree under [lv_below] is cut; the entering-arc endpoint
           inside it is [tail] if the leaving arc is on the tail side *)
        let on_tail_side = lv_side = 0 in
        let lv_arc =
          if on_tail_side then t.ts_arc.(!ts_slot) else t.hs_arc.(!hs_slot)
        in
        let lv_below =
          if on_tail_side then t.ts_below.(!ts_slot) else t.hs_below.(!hs_slot)
        in
        let q = if on_tail_side then tail else head in
        let pnode = if on_tail_side then head else tail in
        (* leaving arc becomes nonbasic *)
        t.state.(lv_arc) <-
          (if t.flow.(lv_arc) = 0 then state_lower else state_upper);
        t.state.(e) <- state_tree;
        update_tree t ~join ~u_in:q ~v_in:pnode ~u_out:lv_below ~e;
        (* no cost changed, so the re-hung subtree's potentials shift
           uniformly by the entering arc's potential discontinuity at q;
           the shift seeds the candidate list *)
        let dpi =
          (if t.dst.(e) = q then t.pi.(pnode) - t.cost.(e)
           else t.pi.(pnode) + t.cost.(e))
          - t.pi.(q)
        in
        shift_potentials t q dpi
      end
    end
  done

(* potentials normalized to the root, which smaller-side shifts move *)
let potentials t = Array.init t.n (fun v -> t.pi.(v) - t.pi.(t.n))

let solution_of t p : Mcf.solution =
  (* optimality reached; check artificial arcs *)
  let infeasible = ref false in
  for a = t.m_real to t.m - 1 do
    if t.flow.(a) > 0 then infeasible := true
  done;
  let flow = Array.sub t.flow 0 t.m_real in
  let potential = potentials t in
  if !infeasible then { status = Infeasible; flow; potential; objective = 0 }
  else { status = Optimal; flow; potential; objective = Mcf.flow_cost p flow }

let run ?budget t p : Mcf.solution =
  try
    run_pivots ?budget t;
    solution_of t p
  with
  | Unbounded_exn ->
    { status = Unbounded;
      flow = Array.make t.m_real 0;
      potential = potentials t;
      objective = 0 }
  | Aborted_exn ->
    { status = Aborted;
      flow = Array.make t.m_real 0;
      potential = potentials t;
      objective = 0 }

let unbalanced p : Mcf.solution =
  { status = Infeasible;
    flow = Array.make (Array.length p.Mcf.arcs) 0;
    potential = Array.make p.Mcf.num_nodes 0;
    objective = 0 }

let solve ?budget (p : Mcf.problem) : Mcf.solution =
  Mcf.validate p;
  if not (Mcf.is_balanced p) then unbalanced p
  else begin
    Perf.tick_cold_start ();
    run ?budget (create p) p
  end

(* ---------- warm starts ---------- *)

(* What a state retains between solves: the basis alone. Arc endpoints
   (with the artificial arcs' orientation), arc states and the tree's
   parent links determine everything else, because [rewarm] re-derives the
   flows and potentials from them and the new problem. Keeping only these
   five arrays, not the whole solver, keeps the memory that lives between
   solves at 3(m+n) + 2(n+1) words. The shape's incidence index rides
   along (2(m+n) + n + 2 words), so a warm solve does not rebuild it;
   [compatible] guards it like the basis. *)
type basis = {
  b_n : int;
  b_m_real : int;
  b_src : int array;
  b_dst : int array;
  b_state : int array;
  b_parent : int array;
  b_parc : int array;
  b_inc : incidence;
}

type state = { mutable basis : basis option }

let make_state () = { basis = None }

(* The basis can be reused iff the network shape is unchanged: same node
   count, same arc count, same endpoints arc by arc. Costs, capacities and
   supplies are free to change. *)
let compatible b (p : Mcf.problem) =
  b.b_n = p.num_nodes
  && b.b_m_real = Array.length p.arcs
  &&
  let ok = ref true in
  Array.iteri
    (fun i (a : Mcf.arc) ->
      if b.b_src.(i) <> a.src || b.b_dst.(i) <> a.dst then ok := false)
    p.arcs;
  !ok

(* Re-seed the retained spanning tree with new costs/capacities/supplies.

   What this restores (see DESIGN §8):
   - cost change: the tree stays primal feasible; only the potentials
     depend on the costs, so they are recomputed from the root over the
     (re-costed) tree arcs.
   - supply/capacity change: nonbasic arcs stay pinned at their bounds, so
     the tree flows are uniquely determined by leaf-to-root accumulation of
     node excess. A tree arc whose required flow would leave [0, cap] — or
     would be only weakly feasible (zero flow pointing leafward, at-cap flow
     pointing rootward, either of which would break Cunningham's
     anti-cycling guarantee) — is cut, and the node [x] below it carries
     its excess [e] elsewhere:
     - re-hung on a real arc: the first arc in [x]'s incidence list that is
       nonbasic at its lower bound (an at-upper arc's pinned flow is
       already counted in the excess) and joins [x] to a node [y] before
       [x] in the preorder, so outside [x]'s subtree and not yet reached
       by the walk, and that carries [e] strongly feasibly: [x -> y] with
       [e < cap] when [e >= 0], [y -> x] with [-e <= cap] otherwise. [y]
       takes on [e] and may be cut in its turn;
     - otherwise re-hung directly on the root via its own artificial arc,
       re-oriented along the excess it must carry; big-M pivots then drive
       that flow back out.
     The result is a strongly feasible basis whatever the new data.

   The accumulation walks the thread backwards (children before parents);
   the caller has built that thread from the parent links, and the
   preorder positions of that build are still in [ts_arc]. A cut only
   rewrites the node's parent pointers, which the backward walk never
   reads again; every node's parent comes before it in that preorder, so
   the links stay a tree, and [rebuild_tree] then derives the new thread
   index and potentials from the parents. Every tree arc's flow is set
   here and every nonbasic one is pinned, so the result depends on the
   parent links, arc states and endpoints alone, not on the flows or the
   thread order the solver held before. Node excess lives in the idle
   [dirty] scratch. *)
let rewarm t (p : Mcf.problem) =
  let n = t.n and m_real = t.m_real in
  let root = n in
  let max_cost = ref 1 in
  Array.iteri
    (fun i (a : Mcf.arc) ->
      t.cost.(i) <- a.cost;
      t.cap.(i) <- min a.cap Mcf.infinite_capacity;
      if abs a.cost > !max_cost then max_cost := abs a.cost)
    p.arcs;
  (* refresh big-M against the new cost range *)
  let big_m = ((n + 1) * !max_cost) + 1 in
  for a = m_real to t.m - 1 do
    t.cap.(a) <- Mcf.infinite_capacity;
    t.cost.(a) <- big_m
  done;
  (* pin nonbasic arcs to their bounds under the new capacities *)
  for a = 0 to t.m - 1 do
    if t.state.(a) = state_upper then begin
      if t.cap.(a) >= Mcf.infinite_capacity then begin
        t.state.(a) <- state_lower;
        t.flow.(a) <- 0
      end
      else t.flow.(a) <- t.cap.(a)
    end
    else if t.state.(a) = state_lower then t.flow.(a) <- 0
  done;
  (* node excess once nonbasic flows are pinned *)
  let need = t.dirty in
  Array.blit p.supply 0 need 0 n;
  for a = 0 to t.m - 1 do
    if t.state.(a) <> state_tree && t.flow.(a) > 0 then begin
      need.(t.src.(a)) <- need.(t.src.(a)) - t.flow.(a);
      need.(t.dst.(a)) <- need.(t.dst.(a)) + t.flow.(a)
    end
  done;
  (* preorder positions of the tree [rewarm] starts from, left in
     [ts_arc] by the [rebuild_tree] that built its thread *)
  let pos = t.ts_arc and off = t.inc.off and inc = t.inc.arcs in
  let v = ref t.rev_thread.(root) in
  while !v <> root do
    let x = !v in
    v := t.rev_thread.(x);
    let a = t.parc.(x) in
    let par = t.parent.(x) in
    let e = need.(x) in
    let upward = t.src.(a) = x in
    let f = if upward then e else -e in
    let strongly_feasible =
      f >= 0 && f <= t.cap.(a)
      && (upward || f > 0)
      && ((not upward) || f < t.cap.(a))
    in
    if strongly_feasible then begin
      t.flow.(a) <- f;
      need.(par) <- need.(par) + e
    end
    else begin
      (* cut [a]; re-hang x on the first real arc that qualifies (see
         above), else on its artificial arc. [a] itself, if real, fails
         the test as it failed the one above. *)
      t.state.(a) <- state_lower;
      t.flow.(a) <- 0;
      let i = ref off.(x) and hi = off.(x + 1) and hang = ref (-1) in
      while !hang < 0 && !i < hi do
        let b = inc.(!i) in
        if b < m_real && t.state.(b) = state_lower then begin
          let y = if t.src.(b) = x then t.dst.(b) else t.src.(b) in
          if pos.(y) < pos.(x)
             && (if e >= 0 then t.src.(b) = x && e < t.cap.(b)
                 else t.dst.(b) = x && -e <= t.cap.(b))
          then hang := b
        end;
        incr i
      done;
      let b = !hang in
      if b >= 0 then begin
        let y = if t.src.(b) = x then t.dst.(b) else t.src.(b) in
        if a = m_real + x then begin
          (* a detached artificial arc points root -> x, as in the crash
             basis *)
          t.src.(a) <- root;
          t.dst.(a) <- x
        end;
        t.state.(b) <- state_tree;
        t.flow.(b) <- abs e;
        t.parent.(x) <- y;
        t.parc.(x) <- b;
        need.(y) <- need.(y) + e
      end
      else begin
        (* no such arc: x hangs on the root by its own artificial arc,
           which (unlike real arcs) we may freely re-orient: it is
           internal bookkeeping and never part of the returned solution *)
        let aa = m_real + x in
        t.state.(aa) <- state_tree;
        t.parent.(x) <- root;
        t.parc.(x) <- aa;
        if e >= 0 then begin
          t.src.(aa) <- x;
          t.dst.(aa) <- root;
          t.flow.(aa) <- e
        end
        else begin
          t.src.(aa) <- root;
          t.dst.(aa) <- x;
          t.flow.(aa) <- -e
        end
      end
    end
  done;
  (* thread index and potentials from scratch: subtrees moved and costs
     changed *)
  rebuild_tree t;
  t.scan_pos <- 0;
  t.cand_len <- 0

let solve_warm ?budget (st : state) (p : Mcf.problem) : Mcf.solution =
  Mcf.validate p;
  if not (Mcf.is_balanced p) then begin
    st.basis <- None;
    unbalanced p
  end
  else begin
    let t =
      match st.basis with
      | Some b when compatible b p ->
        Perf.tick_warm_start ();
        let t =
          alloc ~n:b.b_n ~m_real:b.b_m_real ~src:b.b_src ~dst:b.b_dst
            ~state:b.b_state ~parent:b.b_parent ~parc:b.b_parc ~inc:b.b_inc
        in
        (* a children-before-parents order for [rewarm]'s walk *)
        rebuild_tree t;
        rewarm t p;
        t
      | _ ->
        Perf.tick_cold_start ();
        create ~crash:true p
    in
    let sol = run ?budget t p in
    (* only an optimal basis is worth keeping: after Aborted the tree is
       between pivots and consistent — still reusable — whereas Infeasible
       and Unbounded leave nothing to warm-start from *)
    st.basis <-
      (match sol.status with
       | Optimal | Aborted ->
         Some
           { b_n = t.n; b_m_real = t.m_real; b_src = t.src; b_dst = t.dst;
             b_state = t.state; b_parent = t.parent; b_parc = t.parc;
             b_inc = t.inc }
       | _ -> None);
    sol
  end
