module Perf = Minflo_robust.Perf

(* Intrusive doubly-linked LRU list threaded through the hash table's
   entries: find/put/evict are all O(1), and byte accounting is exact
   because the caller hands us the rendered size of what it stores. *)
type 'a node = {
  nkey : string;
  value : 'a;
  size : int;
  mutable prev : 'a node option;  (* toward most-recent *)
  mutable next : 'a node option;  (* toward least-recent *)
}

type 'a t = {
  budget : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable bytes : int;
  mutable evictions : int;
}

let create ~budget_bytes =
  { budget = max 0 budget_bytes;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    evictions = 0 }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.nkey;
  t.bytes <- t.bytes - n.size

let evict_to_budget t =
  while t.bytes > t.budget do
    match t.tail with
    | None -> t.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
    | Some lru ->
      drop t lru;
      t.evictions <- t.evictions + 1;
      Perf.tick_eviction ()
  done

let put t key value ~bytes =
  (match Hashtbl.find_opt t.table key with
  | Some old -> drop t old
  | None -> ());
  let n = { nkey = key; value; size = max 0 bytes; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  t.bytes <- t.bytes + n.size;
  (* an entry bigger than the whole budget is evicted straight away (the
     journal still holds it); the resident set never exceeds the budget *)
  evict_to_budget t

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
    unlink t n;
    push_front t n;
    Some n.value

let bytes t = t.bytes
let entries t = Hashtbl.length t.table
let budget t = t.budget
let evictions t = t.evictions
