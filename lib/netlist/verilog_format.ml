let fail_at (loc : Raw.loc) fmt =
  Printf.ksprintf
    (fun message -> raise (Raw.Located (loc.line, loc.col, message)))
    fmt

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Raw.Located (line, 0, message))) fmt

(* ---------- lexer ---------- *)

type token = Ident of string | Punct of char

(* every token carries its 1-based (line, column) start *)
type ltoken = token * Raw.loc

let tokenize text : ltoken list =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  (* index of the first byte of the current line *)
  let i = ref 0 in
  let here () = { Raw.line = !line; col = !i - !bol + 1 } in
  let newline () =
    incr line;
    bol := !i + 1
  in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '$' || c = '.'
  in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      newline ();
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while !i < n && not !closed do
        if text.[!i] = '\n' then newline ();
        if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail !line "unterminated block comment"
    end
    else if c = '\\' then begin
      (* escaped identifier: backslash to next whitespace *)
      let loc = here () in
      let start = !i + 1 in
      i := start;
      while !i < n && text.[!i] <> ' ' && text.[!i] <> '\t' && text.[!i] <> '\n' do
        incr i
      done;
      if !i - start > Raw.max_token_length then
        fail_at loc "token of %d bytes exceeds the %d-byte limit" (!i - start)
          Raw.max_token_length;
      tokens := (Ident (String.sub text start (!i - start)), loc) :: !tokens
    end
    else if is_ident_char c then begin
      let loc = here () in
      let start = !i in
      while !i < n && is_ident_char text.[!i] do incr i done;
      if !i - start > Raw.max_token_length then
        fail_at loc "token of %d bytes exceeds the %d-byte limit" (!i - start)
          Raw.max_token_length;
      tokens := (Ident (String.sub text start (!i - start)), loc) :: !tokens
    end
    else if c = '(' || c = ')' || c = ',' || c = ';' then begin
      tokens := (Punct c, here ()) :: !tokens;
      incr i
    end
    else fail_at (here ()) "unexpected character %C" c
  done;
  List.rev !tokens

(* ---------- parser ---------- *)

type statement =
  | Decl of [ `Input | `Output | `Wire ] * (string * Raw.loc) list
  | Inst of Gate.kind * (string * Raw.loc) list * Raw.loc

let split_statements tokens =
  (* statements are token runs terminated by ';'; the module header is the
     run from "module" to its ';' *)
  let rec go acc current = function
    | [] ->
      (* 'endmodule' carries no ';' *)
      (match List.rev current with
      | [] | [ (Ident "endmodule", _) ] -> ()
      | (Ident w, loc) :: _ -> fail_at loc "missing ';' after %S" w
      | (Punct c, loc) :: _ -> fail_at loc "missing ';' after %C" c);
      List.rev acc
    | (Punct ';', _) :: rest -> go (List.rev current :: acc) [] rest
    | tok :: rest -> go acc (tok :: current) rest
  in
  go [] [] tokens

let idents_of ~loc tokens =
  List.filter_map
    (function
      | Ident s, l -> Some (s, (l : Raw.loc))
      | Punct (',' | '(' | ')'), _ -> None
      | Punct c, (l : Raw.loc) ->
        fail_at
          (if l.line > loc.Raw.line then l else loc)
          "unexpected %C in declaration" c)
    tokens

let parse_statement st =
  match st with
  | (Ident "input", loc) :: rest -> Some (Decl (`Input, idents_of ~loc rest))
  | (Ident "output", loc) :: rest -> Some (Decl (`Output, idents_of ~loc rest))
  | (Ident "wire", loc) :: rest -> Some (Decl (`Wire, idents_of ~loc rest))
  | (Ident "endmodule", _) :: _ -> None
  | (Ident kw, loc) :: rest -> (
    match Gate.of_string kw with
    | Some kind ->
      (* optional instance name before '(' *)
      let rest =
        match rest with
        | (Ident _, _) :: ((Punct '(', _) :: _ as r) -> r
        | r -> r
      in
      let terminals = idents_of ~loc rest in
      Some (Inst (kind, terminals, loc))
    | None ->
      (match kw with
      | "assign" | "always" | "reg" | "initial" | "parameter" ->
        fail_at loc
          "behavioral construct %S is not supported (structural netlists only)"
          kw
      | _ -> fail_at loc "unknown primitive or keyword %S" kw))
  | (Punct c, loc) :: _ -> fail_at loc "unexpected %C at statement start" c
  | [] -> None

let parse_raw_internal ?file ?name text : Raw.t =
  let tokens = tokenize text in
  (* module header *)
  let module_name, body =
    match tokens with
    | (Ident "module", loc) :: (Ident mname, _) :: rest ->
      (* skip the port list through its ';' *)
      let rec skip = function
        | (Punct ';', _) :: rest -> rest
        | _ :: rest -> skip rest
        | [] -> fail_at loc "module header missing ';'"
      in
      (mname, skip rest)
    | (_, loc) :: _ -> fail_at loc "expected 'module'"
    | [] -> fail 1 "empty input"
  in
  let statements = List.filter_map parse_statement (split_statements body) in
  let pick f = List.concat_map f statements in
  { Raw.file;
    circuit = Option.value ~default:module_name name;
    inputs = pick (function Decl (`Input, names) -> names | _ -> []);
    outputs = pick (function Decl (`Output, names) -> names | _ -> []);
    gates =
      pick (function
        | Inst (kind, terminals, loc) -> (
          match terminals with
          | (out, _) :: ins when ins <> [] ->
            [ { Raw.g_name = out;
                g_kind = kind;
                g_fanins = List.map fst ins;
                g_loc = loc } ]
          | _ -> fail_at loc "gate needs an output and at least one input")
        | Decl _ -> []) }

include Raw.Reader (struct
  let parse_raw = parse_raw_internal
end)

(* ---------- writer ---------- *)

let keywords =
  [ "module"; "endmodule"; "input"; "output"; "wire"; "assign"; "always";
    "reg"; "initial"; "parameter"; "and"; "nand"; "or"; "nor"; "not"; "buf";
    "xor"; "xnor" ]

let legal_ident s =
  s <> ""
  && (let c = s.[0] in (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' || c = '$')
       s
  && not (List.mem s keywords)

let sanitize s = if legal_ident s then s else "n_" ^ String.map (fun c ->
    if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    then c else '_') s

let gate_primitive = function
  | Gate.And -> "and"
  | Gate.Nand -> "nand"
  | Gate.Or -> "or"
  | Gate.Nor -> "nor"
  | Gate.Not -> "not"
  | Gate.Buf -> "buf"
  | Gate.Xor -> "xor"
  | Gate.Xnor -> "xnor"

let to_string nl =
  let buf = Buffer.create 4096 in
  let name v = sanitize (Netlist.node_name nl v) in
  (* sanitized names must stay unique; disambiguate clashes with the id *)
  let seen = Hashtbl.create 256 in
  let uniq = Hashtbl.create 256 in
  Netlist.iter_nodes nl (fun v ->
      let base = name v in
      let final =
        if Hashtbl.mem seen base then Printf.sprintf "%s_%d" base v else base
      in
      Hashtbl.add seen final ();
      Hashtbl.add uniq v final);
  let name v = Hashtbl.find uniq v in
  let inputs = List.map name (Netlist.inputs nl) in
  let outputs = List.map name (Netlist.outputs nl) in
  let ports = inputs @ outputs in
  Buffer.add_string buf
    (Printf.sprintf "// %s: %d gates\nmodule %s (%s);\n" (Netlist.name nl)
       (Netlist.gate_count nl)
       (sanitize (Netlist.name nl))
       (String.concat ", " ports));
  Buffer.add_string buf (Printf.sprintf "  input %s;\n" (String.concat ", " inputs));
  Buffer.add_string buf (Printf.sprintf "  output %s;\n" (String.concat ", " outputs));
  let wires = ref [] in
  Netlist.iter_gates nl (fun v ->
      if not (Netlist.is_output nl v) then wires := name v :: !wires);
  if !wires <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n" (String.concat ", " (List.rev !wires)));
  Netlist.iter_gates nl (fun v ->
      match Netlist.kind nl v with
      | Netlist.Gate k ->
        Buffer.add_string buf
          (Printf.sprintf "  %s g%d (%s);\n" (gate_primitive k) v
             (String.concat ", " (name v :: List.map name (Netlist.fanins nl v))))
      | Netlist.Input -> ());
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
