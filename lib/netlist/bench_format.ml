let fail line col fmt =
  Printf.ksprintf (fun message -> raise (Raw.Located (line, col, message))) fmt

(* reject pathologically long names before they travel any further *)
let check_token line col s =
  if String.length s > Raw.max_token_length then
    fail line col "token of %d bytes exceeds the %d-byte limit"
      (String.length s) Raw.max_token_length;
  s

type statement =
  | St_input of string
  | St_output of string
  | St_gate of string * Gate.kind * string list

let is_space c = c = ' ' || c = '\t' || c = '\r'

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

(* "NAME ( a , b )" -> (NAME, [a; b]) *)
let parse_call line col s =
  match String.index_opt s '(' with
  | None -> fail line col "expected '(' in %S" s
  | Some i ->
    let fname = strip (String.sub s 0 i) in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match String.rindex_opt rest ')' with
    | None -> fail line col "missing ')' in %S" s
    | Some j ->
      let args = String.sub rest 0 j in
      let tail = strip (String.sub rest (j + 1) (String.length rest - j - 1)) in
      if tail <> "" then fail line col "trailing characters %S" tail;
      let parts = String.split_on_char ',' args |> List.map strip in
      let parts = List.filter (fun p -> p <> "") parts in
      (check_token line col fname,
       List.map (fun p -> check_token line col p) parts))

let parse_line lineno raw =
  let s =
    match String.index_opt raw '#' with
    | Some i -> strip (String.sub raw 0 i)
    | None -> strip raw
  in
  if s = "" then None
  else begin
    (* 1-based column of the statement's first character *)
    let col =
      let n = String.length raw in
      let i = ref 0 in
      while !i < n && is_space raw.[!i] do incr i done;
      !i + 1
    in
    let loc = { Raw.line = lineno; col } in
    match String.index_opt s '=' with
    | Some i ->
      let lhs = strip (String.sub s 0 i) in
      let rhs = strip (String.sub s (i + 1) (String.length s - i - 1)) in
      if lhs = "" then fail lineno col "empty gate name";
      let lhs = check_token lineno col lhs in
      let fname, args = parse_call lineno col rhs in
      (match Gate.of_string fname with
      | Some k -> Some (loc, St_gate (lhs, k, args))
      | None ->
        if String.uppercase_ascii fname = "DFF" then
          fail lineno col
            "sequential element DFF is not supported (combinational sizing only)"
        else fail lineno col "unknown gate type %S" fname)
    | None ->
      let fname, args = parse_call lineno col s in
      (match (String.uppercase_ascii fname, args) with
      | "INPUT", [ a ] -> Some (loc, St_input a)
      | "OUTPUT", [ a ] -> Some (loc, St_output a)
      | ("INPUT" | "OUTPUT"), _ ->
        fail lineno col "%s takes exactly one signal" fname
      | _ -> fail lineno col "expected INPUT/OUTPUT/assignment, got %S" s)
  end

let parse_raw_internal ?file ?name text : Raw.t =
  let lines = String.split_on_char '\n' text in
  let name =
    match name with
    | Some n -> n
    | None -> (
      (* recover the name our own writer puts on the first line ("# <name>"),
         so parse (to_string nl) preserves it and printing is a fixpoint;
         anything that doesn't look like a bare identifier (e.g. a prose
         header in a foreign file) falls back to the generic name *)
      match lines with
      | first :: _ when String.length first > 1 && first.[0] = '#' ->
        let cand = strip (String.sub first 1 (String.length first - 1)) in
        if cand <> "" && not (String.contains cand ' ') then cand else "bench"
      | _ -> "bench")
  in
  let statements =
    List.mapi (fun i l -> parse_line (i + 1) l) lines |> List.filter_map Fun.id
  in
  let pick f = List.filter_map f statements in
  { Raw.file;
    circuit = name;
    inputs =
      pick (function loc, St_input nm -> Some (nm, loc) | _ -> None);
    outputs =
      pick (function loc, St_output nm -> Some (nm, loc) | _ -> None);
    gates =
      pick (function
        | loc, St_gate (nm, k, args) ->
          Some { Raw.g_name = nm; g_kind = k; g_fanins = args; g_loc = loc }
        | _ -> None) }

include Raw.Reader (struct
  let parse_raw = parse_raw_internal
end)

let to_string nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.name nl));
  Buffer.add_string buf
    (Printf.sprintf "# %d inputs, %d outputs, %d gates\n"
       (Netlist.input_count nl)
       (List.length (Netlist.outputs nl))
       (Netlist.gate_count nl));
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Netlist.node_name nl v)))
    (Netlist.inputs nl);
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Netlist.node_name nl v)))
    (Netlist.outputs nl);
  Netlist.iter_gates nl (fun v ->
      match Netlist.kind nl v with
      | Gate k ->
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" (Netlist.node_name nl v) (Gate.to_string k)
             (String.concat ", " (List.map (Netlist.node_name nl) (Netlist.fanins nl v))))
      | Input -> ());
  Buffer.contents buf
