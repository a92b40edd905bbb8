type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: tiny, fast, passes BigCrush; ideal for reproducible workloads. *)
let int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (int64 t) land max_int in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (r /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
