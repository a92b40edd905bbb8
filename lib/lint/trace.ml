module Json = Minflo_util.Json
module Io = Minflo_robust.Io
module Delay_model = Minflo_tech.Delay_model
module Sta = Minflo_timing.Sta
module Tolerance = Minflo_timing.Tolerance
module Mcf = Minflo_flow.Mcf
module Dphase = Minflo_sizing.Dphase
module Tilos = Minflo_sizing.Tilos
module Engine = Minflo_sizing.Minflotransit

let version = 1

(* ---------- writer ---------- *)

let jfloats a = Json.List (Array.to_list (Array.map (fun f -> Json.Num f) a))
let jints a = Json.List (Array.to_list (Array.map (fun i -> Json.Num (float_of_int i)) a))

let status_to_string = function
  | Mcf.Optimal -> "optimal"
  | Mcf.Infeasible -> "infeasible"
  | Mcf.Unbounded -> "unbounded"
  | Mcf.Aborted -> "aborted"

let status_of_string = function
  | "optimal" -> Some Mcf.Optimal
  | "infeasible" -> Some Mcf.Infeasible
  | "unbounded" -> Some Mcf.Unbounded
  | "aborted" -> Some Mcf.Aborted
  | _ -> None

(* [Mcf.infinite_capacity] is [max_int / 8], far beyond exact float range;
   a JSON number would come back changed and every capacity comparison
   would be noise. The wire encodes it as -1. *)
let jcap c = Json.Num (if c >= Mcf.infinite_capacity then -1.0 else float_of_int c)
let cap_of_float f = if f < 0.0 then Mcf.infinite_capacity else int_of_float f

let jlp (c : Dphase.certificate) =
  let p = c.problem and s = c.solution in
  Json.Obj
    [ ("num_nodes", Json.Num (float_of_int p.Mcf.num_nodes));
      ( "arcs",
        Json.List
          (Array.to_list
             (Array.map
                (fun (a : Mcf.arc) ->
                  Json.List
                    [ Json.Num (float_of_int a.src);
                      Json.Num (float_of_int a.dst);
                      jcap a.cap;
                      Json.Num (float_of_int a.cost) ])
                p.Mcf.arcs)) );
      ("supply", jints p.Mcf.supply);
      ("status", Json.Str (status_to_string s.Mcf.status));
      ("flow", jints s.Mcf.flow);
      ("potential", jints s.Mcf.potential);
      ("objective", Json.Num (float_of_int s.Mcf.objective)) ]

let header (model : Delay_model.t) ~circuit ~target =
  Json.Obj
    [ ("record", Json.Str "header");
      ("version", Json.Num (float_of_int version));
      ("circuit", Json.Str circuit);
      ("n", Json.Num (float_of_int (Delay_model.num_vertices model)));
      ("target", Json.Num target);
      ("min_size", Json.Num model.Delay_model.min_size);
      ("max_size", Json.Num model.Delay_model.max_size) ]

let tilos_record (t : Tilos.result) =
  Json.Obj
    [ ("record", Json.Str "tilos");
      ("area", Json.Num t.Tilos.area);
      ("cp", Json.Num t.Tilos.final_cp);
      ("met", Json.Bool t.Tilos.met);
      ("bumps", Json.Num (float_of_int t.Tilos.bumps));
      ("sizes", jfloats t.Tilos.sizes) ]

let step_record (s : Engine.step) =
  let base =
    [ ("record", Json.Str "step");
      ("iter", Json.Num (float_of_int s.Engine.step_iter));
      ("solver", Json.Str s.Engine.step_solver);
      ("eta", Json.Num s.Engine.step_eta);
      ("area", Json.Num s.Engine.step_area);
      ("cp", Json.Num s.Engine.step_cp);
      ("predicted", Json.Num s.Engine.step_predicted);
      ("sizes", jfloats s.Engine.step_sizes);
      ("budgets", jfloats s.Engine.step_budgets) ]
  in
  let lp =
    match s.Engine.step_certificate with
    | Some c -> [ ("lp", jlp c) ]
    | None -> []
  in
  Json.Obj (base @ lp)

let final_record (r : Engine.result) =
  Json.Obj
    [ ("record", Json.Str "final");
      ("area", Json.Num r.Engine.area);
      ("cp", Json.Num r.Engine.cp);
      ("met", Json.Bool r.Engine.met);
      ("iterations", Json.Num (float_of_int r.Engine.iterations));
      ("stop", Json.Str (Engine.stop_reason_to_string r.Engine.stop));
      ("sizes", jfloats r.Engine.sizes) ]

(* the trace of a finished run, one line per record. A sequence, not a
   list: a step record with its LP is several times the size of the step,
   so each is built only when it is written *)
let lines model ~circuit ~target ~steps (r : Engine.result) =
  Seq.map Json.to_string
    (Seq.append
       (List.to_seq [ header model ~circuit ~target; tilos_record r.Engine.tilos ])
       (Seq.append (Seq.map step_record (List.to_seq steps))
          (Seq.return (final_record r))))

(* The first storage failure ends the write: a trace that cannot be
   completed is worthless to the auditor, so there is no point hammering a
   full disk once per record. *)
let write_run path model ~circuit ~target ~steps r =
  match Io.create_sink path with
  | Error e -> Error e
  | Ok sink ->
    let rec write seq =
      match seq () with
      | Seq.Nil -> Ok ()
      | Seq.Cons (l, rest) ->
        Result.bind (Io.sink_write_line sink l) (fun () -> write rest)
    in
    let written = write (lines model ~circuit ~target ~steps r) in
    Io.sink_close sink;
    written

(* ---------- auditor ---------- *)

(* The auditor trusts nothing but the circuit model it was handed: every
   claimed number is recomputed from the recorded sizes, every recorded LP
   is rebuilt from scratch at the preceding sizing, every flow certificate
   goes through the same first-principles checks as [minflo audit-cert].
   Any single tampered field therefore surfaces as a typed finding:

   - structural damage (bad JSON, wrong order, wrong lengths)  -> MF210
   - area / delay / feasibility claims vs. recomputation, and
     budgets vs. the ones the step's certificate gives          -> MF211
   - W-phase budgets not met by the recorded sizes              -> MF212
   - area not strictly decreasing across accepted steps         -> MF213
   - final record infeasible or contradicting the run           -> MF214
   - recorded LP differing from the independent rebuild         -> MF215
   - flow certificate invalid (bounds/conservation/slackness)   -> MF101+ *)

type acc = { mutable per_rule : (Rule.t * (string * string list) list) list }

let add acc rule ?(related = []) msg =
  let cur = try List.assq rule acc.per_rule with Not_found -> [] in
  acc.per_rule <-
    (rule, (msg, related) :: cur) :: List.remove_assq rule acc.per_rule

let rel_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let floats_field key j =
  match Json.member key j with
  | Some (Json.List l) ->
    let ok = ref true in
    let a =
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_num v with
             | Some f -> f
             | None ->
               ok := false;
               nan)
           l)
    in
    if !ok then Some a else None
  | _ -> None

let ints_field key j =
  match Json.member key j with
  | Some (Json.List l) ->
    let ok = ref true in
    let a =
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_int v with
             | Some i -> i
             | None ->
               ok := false;
               0)
           l)
    in
    if !ok then Some a else None
  | _ -> None

let parse_lp j =
  let open Json in
  match
    ( int_field "num_nodes" j,
      member "arcs" j,
      ints_field "supply" j,
      Option.bind (str_field "status" j) status_of_string,
      ints_field "flow" j,
      ints_field "potential" j,
      int_field "objective" j )
  with
  | ( Some num_nodes,
      Some (List arcs),
      Some supply,
      Some status,
      Some flow,
      Some potential,
      Some objective ) ->
    let ok = ref true in
    let arcs =
      Array.of_list
        (List.map
           (fun a ->
             match a with
             | List [ s; d; c; w ] -> (
               match (to_int s, to_int d, to_num c, to_int w) with
               | Some src, Some dst, Some cap, Some cost ->
                 { Mcf.src; dst; cap = cap_of_float cap; cost }
               | _ ->
                 ok := false;
                 { Mcf.src = 0; dst = 0; cap = 0; cost = 0 })
             | _ ->
               ok := false;
               { Mcf.src = 0; dst = 0; cap = 0; cost = 0 })
           arcs)
    in
    if not !ok then None
    else
      Some
        ( { Mcf.num_nodes; arcs; supply },
          { Mcf.status; flow; potential; objective } )
  | _ -> None

let lp_mismatch (recorded : Mcf.problem) (rebuilt : Mcf.problem) =
  if recorded.Mcf.num_nodes <> rebuilt.Mcf.num_nodes then
    Some
      (Printf.sprintf "recorded %d LP nodes, independent rebuild has %d"
         recorded.Mcf.num_nodes rebuilt.Mcf.num_nodes)
  else if Array.length recorded.Mcf.arcs <> Array.length rebuilt.Mcf.arcs then
    Some
      (Printf.sprintf "recorded %d LP arcs, independent rebuild has %d"
         (Array.length recorded.Mcf.arcs)
         (Array.length rebuilt.Mcf.arcs))
  else if recorded.Mcf.supply <> rebuilt.Mcf.supply then
    Some "recorded LP supplies differ from the independent rebuild"
  else begin
    let bad = ref None in
    Array.iteri
      (fun k (a : Mcf.arc) ->
        let b = rebuilt.Mcf.arcs.(k) in
        if !bad = None && (a.src <> b.src || a.dst <> b.dst) then
          bad := Some (Printf.sprintf "arc %d endpoints differ from rebuild" k);
        if !bad = None && a.cap <> b.cap then
          bad :=
            Some
              (Printf.sprintf "arc %d capacity %d, rebuild says %d" k a.cap
                 b.cap);
        if !bad = None && a.cost <> b.cost then
          bad :=
            Some
              (Printf.sprintf "arc %d cost %d, rebuild says %d" k a.cost b.cost))
      recorded.Mcf.arcs;
    !bad
  end

let audit (model : Delay_model.t) ~target content =
  let acc = { per_rule = [] } in
  let flow_findings = ref [] in
  let n = Delay_model.num_vertices model in
  let lines =
    List.filteri
      (fun _ l -> String.trim l <> "")
      (String.split_on_char '\n' content)
  in
  let records =
    List.mapi
      (fun k l ->
        match Json.parse l with
        | Ok j -> Some (k + 1, j)
        | Error e ->
          add acc Rule.mf210_trace_malformed
            (Printf.sprintf "line %d: not valid JSON (%s)" (k + 1) e);
          None)
      lines
  in
  let records = List.filter_map Fun.id records in
  let kind j = Option.value ~default:"?" (Json.str_field "record" j) in
  (match records with
  | [] -> add acc Rule.mf210_trace_malformed "trace is empty"
  | (ln, header) :: rest ->
    (* header *)
    if kind header <> "header" then
      add acc Rule.mf210_trace_malformed
        (Printf.sprintf "line %d: expected the header record first, got %S" ln
           (kind header))
    else begin
      (match Json.int_field "version" header with
      | Some v when v = version -> ()
      | v ->
        add acc Rule.mf210_trace_malformed
          (Printf.sprintf "header: unsupported trace version %s"
             (match v with Some v -> string_of_int v | None -> "<missing>")));
      (match Json.int_field "n" header with
      | Some hn when hn = n -> ()
      | hn ->
        add acc Rule.mf210_trace_malformed
          (Printf.sprintf
             "header: trace is for a %s-vertex circuit, the given circuit \
              has %d vertices"
             (match hn with Some v -> string_of_int v | None -> "?")
             n));
      match Json.num_field "target" header with
      | Some ht when rel_close ht target -> ()
      | ht ->
        add acc Rule.mf210_trace_malformed
          (Printf.sprintf
             "header: trace targets %s, the audit was asked to verify \
              target %g"
             (match ht with Some v -> Printf.sprintf "%g" v | None -> "?")
             target)
    end;
    (* tilos seed *)
    let prev = ref None in
    (* (sizes, area) of the last verified waypoint *)
    let steps_seen = ref 0 in
    let final_seen = ref None in
    let check_claims rule ~what ~related j =
      (* shared by tilos / step / final: recompute every claim from the
         recorded sizes and compare *)
      match floats_field "sizes" j with
      | None ->
        add acc Rule.mf210_trace_malformed
          (Printf.sprintf "%s: missing or non-numeric sizes array" what);
        None
      | Some sizes when Array.length sizes <> n ->
        add acc Rule.mf210_trace_malformed
          (Printf.sprintf "%s: sizes has %d entries, circuit has %d vertices"
             what (Array.length sizes) n);
        None
      | Some sizes ->
        if not (Array.for_all (Tolerance.in_box model) sizes) then
          add acc rule ~related
            (Printf.sprintf "%s: recorded sizes leave the [%g, %g] size box"
               what model.Delay_model.min_size model.Delay_model.max_size);
        let delays = Delay_model.delays model sizes in
        let area = Delay_model.area model sizes in
        let cp = Sta.critical_path_only model ~delays in
        (match Json.num_field "area" j with
        | Some a when rel_close a area -> ()
        | a ->
          add acc rule ~related
            (Printf.sprintf
               "%s: claims area %s but the recorded sizes have area %.17g"
               what
               (match a with
               | Some v -> Printf.sprintf "%.17g" v
               | None -> "<missing>")
               area));
        (match Json.num_field "cp" j with
        | Some c when rel_close c cp -> ()
        | c ->
          add acc rule ~related
            (Printf.sprintf
               "%s: claims critical path %s but the recorded sizes give %.17g"
               what
               (match c with
               | Some v -> Printf.sprintf "%.17g" v
               | None -> "<missing>")
               cp));
        (match Json.bool_field "met" j with
        | None -> ()
        | Some m ->
          if m && not (Tolerance.meets ~target cp) then
            add acc rule ~related
              (Printf.sprintf
                 "%s: claims the target %g is met but the recorded sizes \
                  give critical path %.17g"
                 what target cp));
        Some (sizes, delays, area, cp)
    in
    List.iter
      (fun (ln, j) ->
        match kind j with
        | "header" ->
          add acc Rule.mf210_trace_malformed
            (Printf.sprintf "line %d: duplicate header" ln)
        | "tilos" ->
          if !prev <> None || !steps_seen > 0 then
            add acc Rule.mf210_trace_malformed
              (Printf.sprintf "line %d: tilos record after the seed position"
                 ln)
          else begin
            match
              check_claims Rule.mf211_trace_claim ~what:"tilos" ~related:[] j
            with
            | Some (sizes, _, area, _) -> prev := Some (sizes, area)
            | None -> ()
          end
        | "step" -> (
          if !final_seen <> None then
            add acc Rule.mf210_trace_malformed
              (Printf.sprintf "line %d: step after the final record" ln);
          incr steps_seen;
          let what = Printf.sprintf "step %d" !steps_seen in
          (match Json.int_field "iter" j with
          | Some it when it = !steps_seen -> ()
          | it ->
            add acc Rule.mf210_trace_malformed
              (Printf.sprintf "%s: iter is %s, expected %d" what
                 (match it with
                 | Some v -> string_of_int v
                 | None -> "<missing>")
                 !steps_seen));
          match
            check_claims Rule.mf211_trace_claim ~what ~related:[] j
          with
          | None -> ()
          | Some (sizes, delays, area, _) ->
            (* W-phase fixpoint claim: every recorded delay budget is met *)
            (match floats_field "budgets" j with
            | None ->
              add acc Rule.mf210_trace_malformed
                (Printf.sprintf "%s: missing or non-numeric budgets array"
                   what)
            | Some budgets when Array.length budgets <> n ->
              add acc Rule.mf210_trace_malformed
                (Printf.sprintf "%s: budgets has %d entries, expected %d" what
                   (Array.length budgets) n)
            | Some budgets ->
              Array.iteri
                (fun i d ->
                  let b = budgets.(i) in
                  if not (Tolerance.budget_met ~budget:b d) then
                    add acc Rule.mf212_trace_budget
                      ~related:[ model.Delay_model.labels.(i) ]
                      (Printf.sprintf
                         "%s: vertex %s delay %.17g exceeds its recorded \
                          budget %.17g"
                         what model.Delay_model.labels.(i) d b))
                delays);
            (* monotone progress against the previous waypoint *)
            (match !prev with
            | Some (prev_sizes, prev_area) ->
              if not (area < prev_area) then
                add acc Rule.mf213_trace_progress
                  (Printf.sprintf
                     "%s: area %.17g does not improve on the previous %.17g"
                     what area prev_area);
              (* the LP certificate, re-verified and re-built *)
              let solver =
                Option.value ~default:"?" (Json.str_field "solver" j)
              in
              (match (Json.member "lp" j, solver) with
              | None, _ when solver = Dphase.solver_name `Bellman_ford ->
                (* the feasibility rung has no certificate by design *)
                ()
              | None, _ ->
                add acc Rule.mf210_trace_malformed
                  (Printf.sprintf
                     "%s: solver %s must carry an LP certificate" what solver)
              | Some lp_json, _ -> (
                match parse_lp lp_json with
                | None ->
                  add acc Rule.mf210_trace_malformed
                    (Printf.sprintf "%s: malformed LP certificate" what)
                | Some (problem, solution) ->
                  List.iter
                    (fun (f : Finding.t) ->
                      flow_findings :=
                        { f with
                          message = Printf.sprintf "%s: %s" what f.message }
                        :: !flow_findings)
                    (Audit.check problem solution);
                  let eta =
                    Option.value ~default:Engine.eta0 (Json.num_field "eta" j)
                  in
                  let dopts = { Dphase.default_options with eta } in
                  let prev_delays = Delay_model.delays model prev_sizes in
                  (* the recorded budgets must be the ones the certificate's
                     potentials give at the preceding sizes *)
                  (match floats_field "budgets" j with
                  | Some budgets
                    when Array.length budgets = n
                         && Array.length solution.Mcf.potential >= 2 * n ->
                    let expect, _ =
                      Dphase.budgets_of_potentials ~options:dopts
                        ~delays:prev_delays solution.Mcf.potential
                    in
                    Array.iteri
                      (fun i b ->
                        if not (rel_close b expect.(i)) then
                          add acc Rule.mf211_trace_claim
                            ~related:[ model.Delay_model.labels.(i) ]
                            (Printf.sprintf
                               "%s: vertex %s recorded budget %.17g, the \
                                certificate's potentials give %.17g"
                               what model.Delay_model.labels.(i) b expect.(i)))
                      budgets
                  | _ -> ());
                  (match
                     Dphase.displacement_problem ~options:dopts model
                       ~sizes:prev_sizes ~delays:prev_delays ~deadline:target
                   with
                  | Error e ->
                    add acc Rule.mf215_trace_lp
                      (Printf.sprintf
                         "%s: the displacement LP cannot even be rebuilt at \
                          the preceding sizes: %s"
                         what (Minflo_robust.Diag.to_string e))
                  | Ok rebuilt -> (
                    match lp_mismatch problem rebuilt with
                    | Some msg ->
                      add acc Rule.mf215_trace_lp
                        (Printf.sprintf "%s: %s" what msg)
                    | None -> ()))))
            | None ->
              add acc Rule.mf210_trace_malformed
                (Printf.sprintf "%s: appears before the tilos seed" what));
            prev := Some (sizes, area))
        | "final" ->
          if !final_seen <> None then
            add acc Rule.mf210_trace_malformed
              (Printf.sprintf "line %d: duplicate final record" ln)
          else begin
            (match Json.int_field "iterations" j with
            | Some k when k = !steps_seen -> ()
            | k ->
              add acc Rule.mf214_trace_final
                (Printf.sprintf
                   "final: claims %s iterations but the trace records %d \
                    accepted steps"
                   (match k with
                   | Some v -> string_of_int v
                   | None -> "<missing>")
                   !steps_seen));
            match
              check_claims Rule.mf214_trace_final ~what:"final" ~related:[] j
            with
            | None -> final_seen := Some None
            | Some (sizes, _, _, _) ->
              (match !prev with
              | Some (prev_sizes, _) when sizes <> prev_sizes ->
                add acc Rule.mf214_trace_final
                  "final: sizes differ from the last recorded waypoint"
              | _ -> ());
              final_seen := Some (Some sizes)
          end
        | other ->
          add acc Rule.mf210_trace_malformed
            (Printf.sprintf "line %d: unknown record kind %S" ln other))
      rest;
    if !final_seen = None then
      add acc Rule.mf210_trace_malformed
        "trace ends without a final record (truncated run?)");
  List.concat_map
    (fun (rule, items) -> Audit.capped rule (List.rev items))
    (List.rev acc.per_rule)
  @ List.rev !flow_findings

let audit_file model ~target path =
  Result.map (audit model ~target) (Io.read_file path)

let check_run model ~target ~steps r =
  let b = Buffer.create 4096 in
  (* the auditor never reads the circuit name *)
  Seq.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (lines model ~circuit:"" ~target ~steps r);
  audit model ~target (Buffer.contents b)
