module Raw = Minflo_netlist.Raw
module Json = Minflo_util.Json

let str s = Json.Str s
let int i = Json.Num (float_of_int i)

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let rule_index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i (r : Rule.t) -> Hashtbl.replace tbl r.id i) Rule.all;
  fun (r : Rule.t) -> Hashtbl.find tbl r.id

let rule_json (r : Rule.t) =
  Json.Obj
    [ ("id", str r.id);
      ("name", str r.name);
      ("shortDescription", Json.Obj [ ("text", str r.summary) ]);
      ( "defaultConfiguration",
        Json.Obj [ ("level", str (Rule.sarif_level r.severity)) ] ) ]

let result_json (f : Finding.t) =
  let location =
    match f.file with
    | None -> []
    | Some file ->
      let physical =
        ("artifactLocation", Json.Obj [ ("uri", str file) ])
        ::
        (if f.loc.Raw.line > 0 then
           [ ( "region",
               Json.Obj
                 (("startLine", int f.loc.Raw.line)
                 ::
                 (if f.loc.Raw.col > 0 then
                    [ ("startColumn", int f.loc.Raw.col) ]
                  else [])) ) ]
         else [])
      in
      [ ( "locations",
          Json.List [ Json.Obj [ ("physicalLocation", Json.Obj physical) ] ] )
      ]
  in
  let properties =
    if f.related = [] then []
    else
      [ ( "properties",
          Json.Obj [ ("related", Json.List (List.map str f.related)) ] ) ]
  in
  Json.Obj
    ([ ("ruleId", str f.rule.id);
       ("ruleIndex", int (rule_index f.rule));
       ("level", str (Rule.sarif_level f.rule.severity));
       ("message", Json.Obj [ ("text", str f.message) ]) ]
    @ location @ properties)

let render findings =
  let driver =
    Json.Obj
      [ ("name", str "minflo-lint");
        ("version", str "0.1.0");
        ("informationUri", str "https://github.com/minflo/minflo");
        ("rules", Json.List (List.map rule_json Rule.all)) ]
  in
  let run =
    Json.Obj
      [ ("tool", Json.Obj [ ("driver", driver) ]);
        ("results", Json.List (List.map result_json findings)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("$schema", str schema_uri);
         ("version", str "2.1.0");
         ("runs", Json.List [ run ]) ])
  ^ "\n"
