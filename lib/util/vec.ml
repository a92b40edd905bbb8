type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i v.len)

let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let iter f v = for i = 0 to v.len - 1 do f v.data.(i) done
let iteri f v = for i = 0 to v.len - 1 do f i v.data.(i) done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc v.data.(i) done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []
