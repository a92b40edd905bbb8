type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* ---------- printing ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* shortest representation that round-trips: the daemon's bit-identical
   recovery guarantee rides on numbers surviving
   print -> parse -> print unchanged *)
let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if Float.is_finite v then begin
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end
  else "null" (* nan/inf are not JSON; the protocol never produces them *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (num_to_string v)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'
  | Raw s -> Buffer.add_string buf s

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Bad of string

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* the value of a string of hex digits; [Int64.of_string] would also take
   OCaml's [_] digit separator *)
let hex_value digits =
  String.fold_left
    (fun acc c ->
      match (acc, hex_digit c) with
      | Some a, Some d ->
        Some (Int64.logor (Int64.shift_left a 4) (Int64.of_int d))
      | _ -> None)
    (Some 0L) digits

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape"
               else begin
                 let digits = String.sub s (!pos + 1) 4 in
                 let code = Option.map Int64.to_int (hex_value digits) in
                 (match code with
                 | None -> fail "bad \\u escape"
                 | Some code when code < 0x80 ->
                   Buffer.add_char buf (Char.chr code)
                 | Some code ->
                   (* re-encode the BMP code point as UTF-8; enough for a
                      line protocol whose strings are circuit names *)
                   if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                   end);
                 pos := !pos + 4
               end
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec more () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            more ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        more ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let fields = ref [ field () ] in
        let rec more () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            more ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        more ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num v -> Some v | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v < 0x1p53 ->
    Some (int_of_float v)
  | _ -> None

(* ---------- bit-exact floats ---------- *)

(* A finite float is a number: [num_to_string] round-trips it bit for bit.
   JSON has no spelling for the rest, so they are strings; a nan carries
   its bits, since sign and payload are part of a bit-identical replay. *)
let of_float v =
  if Float.is_finite v then Num v
  else if Float.is_nan v then
    Str (Printf.sprintf "nan:%016Lx" (Int64.bits_of_float v))
  else Str (if v > 0.0 then "infinity" else "-infinity")

let to_float = function
  | Num v -> Some v
  | Str "infinity" -> Some Float.infinity
  | Str "-infinity" -> Some Float.neg_infinity
  | Str "nan" -> Some Float.nan (* older journals spelled every nan so *)
  | Str s when String.length s = 20 && String.sub s 0 4 = "nan:" -> (
    match Option.map Int64.float_of_bits (hex_value (String.sub s 4 16)) with
    | Some v when Float.is_nan v -> Some v
    | _ -> None)
  | _ -> None

let str_field key j = Option.bind (member key j) to_str
let num_field key j = Option.bind (member key j) to_num
let int_field key j = Option.bind (member key j) to_int
let bool_field key j = Option.bind (member key j) to_bool
let float_field key j = Option.bind (member key j) to_float

let array_field elt key j =
  match member key j with
  | Some (List xs) ->
    let a = List.filter_map elt xs in
    if List.compare_lengths a xs = 0 then Some (Array.of_list a) else None
  | _ -> None
