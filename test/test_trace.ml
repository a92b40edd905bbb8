(* Tests for proof-carrying engine traces (MF210-MF215): an untampered
   c432 trace audits clean, every class of single-field tamper — a
   claimed area, loosened budgets, one flow value, one arc cost, the
   schema version, a truncated file — surfaces as the right typed finding, and the c432
   trace bytes at both granularities are pinned. *)

module Iscas85 = Minflo_netlist.Iscas85
module Netlist = Minflo_netlist.Netlist
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Sweep = Minflo_sizing.Sweep
module Minflotransit = Minflo_sizing.Minflotransit
module Trace = Minflo_lint.Trace
module Finding = Minflo_lint.Finding
module Rule = Minflo_lint.Rule
module Report = Minflo_lint.Report
module Json = Minflo_util.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let count id findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.rule.Rule.id = id) findings)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* one engine run and the NDJSON bytes of its trace, written the way
   [minflo size --trace] writes them *)
let traced_run ?options model ~circuit ~target =
  let steps = ref [] in
  let result =
    Minflotransit.optimize ?options model ~target ~on_step:(fun s ->
        steps := s :: !steps)
  in
  let path = Filename.temp_file "minflo-trace" ".jsonl" in
  (match
     Trace.write_run path model ~circuit ~target ~steps:(List.rev !steps)
       result
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace write: %s" (Minflo_robust.Diag.to_string e));
  let content = read_file path in
  Sys.remove path;
  content

(* one real engine run, traced once and shared by every test *)
let fixture =
  lazy
    (let nl = Iscas85.circuit "c432" in
     let model = Elmore.of_netlist Tech.default_130nm nl in
     let target = 0.5 *. Sweep.dmin model in
     (model, target, traced_run model ~circuit:"c432" ~target))

(* ---------- byte-identity pins ---------- *)

(* The exact bytes of [minflo size c432 --factor 0.6 --trace FILE], at
   gate granularity (file sha256 bf56532bdab1a0df...) and with
   [--granularity transistor] (fc601492b075b02c...). Every float sum and
   tie-break of the engine feeds these files, so any change in an
   iteration order moves the digest. *)
let test_trace_bytes_pinned granularity expect () =
  let nl = Iscas85.circuit "c432" in
  let tech = Tech.default_130nm in
  let model =
    match granularity with
    | `Gate -> Elmore.of_netlist tech nl
    | `Transistor -> Transistor.of_netlist tech (Transform.to_nand_inv nl)
  in
  let target = 0.6 *. Sweep.dmin model in
  let options = { Minflotransit.default_options with solver = `Auto } in
  let content = traced_run ~options model ~circuit:(Netlist.name nl) ~target in
  check Alcotest.string "trace md5" expect (Digest.to_hex (Digest.string content))

(* ---------- tamper machinery over the NDJSON lines ---------- *)

let lines content =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' content)

let unlines ls = String.concat "\n" ls ^ "\n"

let parse_line l =
  match Json.parse l with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable trace line: %s" e

let kind j = Option.value ~default:"" (Json.str_field "record" j)

let set_field k v = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  | j -> j

let num_field k j =
  match Json.num_field k j with
  | Some v -> v
  | None -> Alcotest.failf "field %s missing" k

(* rewrite the first line matching [sel] with [f]; fail if none matched *)
let tamper_first sel f content =
  let hit = ref false in
  let ls =
    List.map
      (fun l ->
        let j = parse_line l in
        if (not !hit) && sel j then begin
          hit := true;
          Json.to_string (f j)
        end
        else l)
      (lines content)
  in
  if not !hit then Alcotest.fail "no trace line matched the tamper selector";
  unlines ls

let has_lp j = Json.member "lp" j <> None
let is_step j = kind j = "step"

(* ---------- the tests ---------- *)

let test_untampered_is_clean () =
  let model, target, content = Lazy.force fixture in
  check bool "trace has steps" true
    (List.exists (fun l -> is_step (parse_line l)) (lines content));
  check bool "some step carries a flow certificate" true
    (List.exists
       (fun l ->
         let j = parse_line l in
         is_step j && has_lp j)
       (lines content));
  match Trace.audit model ~target content with
  | [] -> ()
  | fs -> Alcotest.failf "clean trace rejected:\n%s" (Report.render fs)

let audit_tampered tampered =
  let model, target, _ = Lazy.force fixture in
  let fs = Trace.audit model ~target tampered in
  check bool "tamper detected" true (fs <> []);
  check bool "at error severity" true (Finding.worst fs = Some Rule.Error);
  check int "exit code 2" 2 (Report.exit_code fs);
  fs

let test_tamper_claimed_area () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first is_step
      (fun j -> set_field "area" (Json.Num (num_field "area" j *. 1.01)) j)
      content
  in
  check bool "MF211 fired" true (count "MF211" (audit_tampered tampered) > 0)

(* loosened budgets still hold for the recorded sizes (MF212 stays quiet);
   only recomputing them from the step's certificate exposes the edit *)
let test_tamper_loosened_budgets () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        match Json.member "budgets" j with
        | Some (Json.List bs) ->
          set_field "budgets"
            (Json.List
               (List.map
                  (fun b ->
                    match Json.to_num b with
                    | Some f -> Json.Num (10.0 *. f)
                    | None -> b)
                  bs))
            j
        | _ -> Alcotest.fail "step without a budgets array")
      content
  in
  let fs = audit_tampered tampered in
  check int "MF212 quiet" 0 (count "MF212" fs);
  check bool "MF211 fired" true (count "MF211" fs > 0)

let test_tamper_flow_value () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        let lp =
          match Json.member "lp" j with
          | Some lp -> lp
          | None -> assert false
        in
        let flow =
          match Json.member "flow" lp with
          | Some (Json.List vs) -> vs
          | _ -> Alcotest.fail "lp has no flow array"
        in
        let bumped =
          List.mapi
            (fun i v ->
              if i = 0 then
                match v with
                | Json.Num f -> Json.Num (f +. 1.0)
                | _ -> Alcotest.fail "non-numeric flow"
              else v)
            flow
        in
        set_field "lp" (set_field "flow" (Json.List bumped) lp) j)
      content
  in
  (* a skewed flow breaks conservation at the arc's endpoints *)
  check bool "MF102 fired" true (count "MF102" (audit_tampered tampered) > 0)

let test_tamper_arc_cost () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> is_step j && has_lp j)
      (fun j ->
        let lp =
          match Json.member "lp" j with
          | Some lp -> lp
          | None -> assert false
        in
        let arcs =
          match Json.member "arcs" lp with
          | Some (Json.List arcs) -> arcs
          | _ -> Alcotest.fail "lp has no arcs array"
        in
        let bumped =
          List.mapi
            (fun i arc ->
              if i = 0 then
                match arc with
                | Json.List [ s; d; c; Json.Num cost ] ->
                  Json.List [ s; d; c; Json.Num (cost +. 1.0) ]
                | _ -> Alcotest.fail "malformed arc"
              else arc)
            arcs
        in
        set_field "lp" (set_field "arcs" (Json.List bumped) lp) j)
      content
  in
  (* the rebuilt displacement LP no longer matches the recorded one *)
  check bool "MF215 fired" true (count "MF215" (audit_tampered tampered) > 0)

let test_tamper_schema_version () =
  let _, _, content = Lazy.force fixture in
  let tampered =
    tamper_first
      (fun j -> kind j = "header")
      (set_field "version" (Json.Num 999.0))
      content
  in
  check bool "MF210 fired" true (count "MF210" (audit_tampered tampered) > 0)

let test_truncated_trace () =
  let _, _, content = Lazy.force fixture in
  let ls = lines content in
  let truncated = unlines (List.filteri (fun i _ -> i < List.length ls - 1) ls) in
  check bool "MF210 fired" true (count "MF210" (audit_tampered truncated) > 0)

let test_wrong_target_rejected () =
  let model, target, content = Lazy.force fixture in
  let fs = Trace.audit model ~target:(1.1 *. target) content in
  check bool "MF210 fired" true (count "MF210" fs > 0)

let test_garbage_rejected () =
  let model, target, _ = Lazy.force fixture in
  let fs = Trace.audit model ~target "this is not json\n" in
  check bool "MF210 fired" true (count "MF210" fs > 0)

let () =
  Alcotest.run "trace"
    [ ( "clean",
        [ Alcotest.test_case "untampered c432 trace audits clean" `Quick
            test_untampered_is_clean ] );
      ( "tamper",
        [ Alcotest.test_case "claimed area -> MF211" `Quick
            test_tamper_claimed_area;
          Alcotest.test_case "loosened budgets -> MF211" `Quick
            test_tamper_loosened_budgets;
          Alcotest.test_case "flow value -> MF102" `Quick test_tamper_flow_value;
          Alcotest.test_case "arc cost -> MF215" `Quick test_tamper_arc_cost;
          Alcotest.test_case "schema version -> MF210" `Quick
            test_tamper_schema_version;
          Alcotest.test_case "truncated file -> MF210" `Quick
            test_truncated_trace;
          Alcotest.test_case "foreign target -> MF210" `Quick
            test_wrong_target_rejected;
          Alcotest.test_case "garbage -> MF210" `Quick test_garbage_rejected ] );
      ( "pins",
        [ Alcotest.test_case "c432 gate trace bytes" `Quick
            (test_trace_bytes_pinned `Gate "528c1fa1787a9a26eb911c3506ffe4c2");
          Alcotest.test_case "c432 transistor trace bytes" `Quick
            (test_trace_bytes_pinned `Transistor
               "0eb132a56b1821d21218630a22da47b6") ] ) ]
