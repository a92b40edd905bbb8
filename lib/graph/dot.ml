let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(name = "g") ?node_label ?edge_label g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Digraph.iter_nodes g (fun u ->
      let label =
        match node_label with
        | Some f -> Printf.sprintf " [label=\"%s\"]" (escape (f u))
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "  n%d%s;\n" u label));
  Digraph.iter_edges g (fun e ->
      let label =
        match edge_label with
        | Some f -> Printf.sprintf " [label=\"%s\"]" (escape (f e))
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" (Digraph.src g e) (Digraph.dst g e) label));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
