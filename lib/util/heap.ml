type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable len : int;
  latest : (int, int) Hashtbl.t; (* value -> most recent key pushed *)
}

let create ?(capacity = 16) () =
  { keys = Array.make (max capacity 1) 0;
    vals = Array.make (max capacity 1) 0;
    len = 0;
    latest = Hashtbl.create 64 }

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (2 * cap) 0 and vals = Array.make (2 * cap) 0 in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j); h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k; h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.keys.(p) > h.keys.(i) then begin swap h p i; sift_up h p end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.len && h.keys.(l) < h.keys.(i) then l else i in
  let m = if r < h.len && h.keys.(r) < h.keys.(m) then r else m in
  if m <> i then begin swap h i m; sift_down h m end

let push h ~key x =
  if h.len = Array.length h.keys then grow h;
  h.keys.(h.len) <- key;
  h.vals.(h.len) <- x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1);
  Hashtbl.replace h.latest x key

let rec pop_min h =
  if h.len = 0 then None
  else begin
    let key = h.keys.(0) and x = h.vals.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.keys.(0) <- h.keys.(h.len);
      h.vals.(0) <- h.vals.(h.len);
      sift_down h 0
    end;
    match Hashtbl.find_opt h.latest x with
    | Some k when k = key ->
      Hashtbl.remove h.latest x;
      Some (key, x)
    | _ -> pop_min h (* stale entry superseded by a later push *)
  end
