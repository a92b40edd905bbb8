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

(* A non-finite [Json.Num] prints as [null]; built as [Null], it reaches
   the in-process auditor as the file's parser would give it back. *)
let jnum f = if Float.is_finite f then Json.Num f else Json.Null
let jint i = Json.Num (float_of_int i)
let jfloats a = Json.List (Array.fold_right (fun f l -> jnum f :: l) a [])
let jints a = Json.List (Array.fold_right (fun i l -> jint i :: l) a [])

(* [Mcf.infinite_capacity] is [max_int / 8], far beyond exact float range;
   a JSON number would come back changed and every capacity comparison
   would be noise. The wire encodes it as -1. *)
let jcap c = Json.Num (if c >= Mcf.infinite_capacity then -1.0 else float_of_int c)
let cap_of_float f = if f < 0.0 then Mcf.infinite_capacity else int_of_float f

let jlp (c : Dphase.certificate) =
  let p = c.problem and s = c.solution in
  Json.Obj
    [ ("num_nodes", jint p.Mcf.num_nodes);
      ( "arcs",
        Json.List
          (Array.fold_right
             (fun (a : Mcf.arc) l ->
               Json.List [ jint a.src; jint a.dst; jcap a.cap; jint a.cost ] :: l)
             p.Mcf.arcs []) );
      ("supply", jints p.Mcf.supply);
      ("status", Json.Str (Mcf.status_to_string s.Mcf.status));
      ("flow", jints s.Mcf.flow);
      ("potential", jints s.Mcf.potential);
      ("objective", jint s.Mcf.objective) ]

let header (model : Delay_model.t) ~circuit ~target =
  Json.Obj
    [ ("record", Json.Str "header");
      ("version", jint version);
      ("circuit", Json.Str circuit);
      ("n", jint (Delay_model.num_vertices model));
      ("target", jnum target);
      ("min_size", jnum model.Delay_model.min_size);
      ("max_size", jnum model.Delay_model.max_size) ]

let tilos_record (t : Tilos.result) =
  Json.Obj
    [ ("record", Json.Str "tilos");
      ("area", jnum t.Tilos.area);
      ("cp", jnum t.Tilos.final_cp);
      ("met", Json.Bool t.Tilos.met);
      ("bumps", jint t.Tilos.bumps);
      ("sizes", jfloats t.Tilos.sizes) ]

let step_record (s : Engine.step) =
  Json.Obj
    ([ ("record", Json.Str "step");
       ("iter", jint s.Engine.step_iter);
       ("solver", Json.Str s.Engine.step_solver);
       ("eta", jnum s.Engine.step_eta);
       ("area", jnum s.Engine.step_area);
       ("cp", jnum s.Engine.step_cp);
       ("predicted", jnum s.Engine.step_predicted);
       ("sizes", jfloats s.Engine.step_sizes);
       ("budgets", jfloats s.Engine.step_budgets) ]
    @ Option.fold ~none:[]
        ~some:(fun c -> [ ("lp", jlp c) ])
        s.Engine.step_certificate)

let final_record (r : Engine.result) =
  Json.Obj
    [ ("record", Json.Str "final");
      ("area", jnum r.Engine.area);
      ("cp", jnum r.Engine.cp);
      ("met", Json.Bool r.Engine.met);
      ("iterations", jint r.Engine.iterations);
      ("stop", Json.Str (Engine.stop_reason_to_string r.Engine.stop));
      ("sizes", jfloats r.Engine.sizes) ]

(* the records of a finished run, in file order. A sequence, not a list: a
   step record with its LP is several times the size of the step, so each
   is built only when it is written or audited *)
let records model ~circuit ~target ~steps (r : Engine.result) =
  Seq.append
    (List.to_seq [ header model ~circuit ~target; tilos_record r.Engine.tilos ])
    (Seq.append (Seq.map step_record (List.to_seq steps))
       (Seq.return (final_record r)))

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
      | Seq.Cons (j, rest) ->
        Result.bind (Io.sink_write_line sink (Json.to_string j)) (fun () ->
            write rest)
    in
    let written = write (records model ~circuit ~target ~steps r) in
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

let rel_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let arc_of_json = function
  | Json.List [ s; d; c; w ] -> (
    match Json.(to_int s, to_int d, to_num c, to_int w) with
    | Some src, Some dst, Some cap, Some cost ->
      Some { Mcf.src; dst; cap = cap_of_float cap; cost }
    | _ -> None)
  | _ -> None

let parse_lp j =
  let open Json in
  match
    ( int_field "num_nodes" j,
      array_field arc_of_json "arcs" j,
      array_field to_int "supply" j,
      Option.bind (str_field "status" j) Mcf.status_of_string,
      array_field to_int "flow" j,
      array_field to_int "potential" j,
      int_field "objective" j )
  with
  | ( Some num_nodes,
      Some arcs,
      Some supply,
      Some status,
      Some flow,
      Some potential,
      Some objective ) ->
    Some
      ( { Mcf.num_nodes; arcs; supply },
        { Mcf.status; flow; potential; objective } )
  | _ -> None

(* the first difference, an arc's endpoints before its capacity and cost *)
let lp_mismatch (recorded : Mcf.problem) (rebuilt : Mcf.problem) =
  let m = Array.length recorded.Mcf.arcs in
  let rec arc k =
    if k = m then None
    else
      let (a : Mcf.arc) = recorded.Mcf.arcs.(k) and b = rebuilt.Mcf.arcs.(k) in
      if a.src <> b.src || a.dst <> b.dst then
        Some (Printf.sprintf "arc %d endpoints differ from rebuild" k)
      else if a.cap <> b.cap then
        Some (Printf.sprintf "arc %d capacity %d, rebuild says %d" k a.cap b.cap)
      else if a.cost <> b.cost then
        Some (Printf.sprintf "arc %d cost %d, rebuild says %d" k a.cost b.cost)
      else arc (k + 1)
  in
  if recorded.Mcf.num_nodes <> rebuilt.Mcf.num_nodes then
    Some
      (Printf.sprintf "recorded %d LP nodes, independent rebuild has %d"
         recorded.Mcf.num_nodes rebuilt.Mcf.num_nodes)
  else if m <> Array.length rebuilt.Mcf.arcs then
    Some
      (Printf.sprintf "recorded %d LP arcs, independent rebuild has %d" m
         (Array.length rebuilt.Mcf.arcs))
  else if recorded.Mcf.supply <> rebuilt.Mcf.supply then
    Some "recorded LP supplies differ from the independent rebuild"
  else arc 0

module Auditor = struct
  (* A fold over the records in file order. Its state is what a record
     needs of those before it: the last verified waypoint's sizes, delays
     and area and the running counts the final record is checked against. *)
  type t = {
    model : Delay_model.t;
    target : float;
    n : int;
    mutable per_rule : (Rule.t * (string * string list) list) list;
    mutable flow_findings : Finding.t list;
    mutable line : int;  (** line of the last record fed *)
    mutable fed : int;  (** records fed *)
    mutable prev : (float array * float array * float) option;
        (** (sizes, delays, area) of the last verified waypoint *)
    mutable steps_seen : int;
    mutable final_seen : bool;
  }

  let create model ~target =
    { model;
      target;
      n = Delay_model.num_vertices model;
      per_rule = [];
      flow_findings = [];
      line = 0;
      fed = 0;
      prev = None;
      steps_seen = 0;
      final_seen = false }

  let add t rule ?(related = []) msg =
    let cur = try List.assq rule t.per_rule with Not_found -> [] in
    t.per_rule <-
      (rule, (msg, related) :: cur) :: List.remove_assq rule t.per_rule

  let malformed t msg = add t Rule.mf210_trace_malformed msg
  let shown f = function Some v -> f v | None -> "<missing>"

  let check_header t j =
    (match Json.int_field "version" j with
    | Some v when v = version -> ()
    | v ->
      malformed t
        (Printf.sprintf "header: unsupported trace version %s"
           (shown string_of_int v)));
    (match Json.int_field "n" j with
    | Some hn when hn = t.n -> ()
    | hn ->
      malformed t
        (Printf.sprintf
           "header: trace is for a %s-vertex circuit, the given circuit has \
            %d vertices"
           (match hn with Some v -> string_of_int v | None -> "?")
           t.n));
    match Json.num_field "target" j with
    | Some ht when rel_close ht t.target -> ()
    | ht ->
      malformed t
        (Printf.sprintf
           "header: trace targets %s, the audit was asked to verify target %g"
           (match ht with Some v -> Printf.sprintf "%g" v | None -> "?")
           t.target)

  (* shared by tilos / step / final: recompute every claim from the
     recorded sizes and compare *)
  let check_claims t rule ~what j =
    let model = t.model in
    match Json.array_field Json.to_num "sizes" j with
    | None ->
      malformed t
        (Printf.sprintf "%s: missing or non-numeric sizes array" what);
      None
    | Some sizes when Array.length sizes <> t.n ->
      malformed t
        (Printf.sprintf "%s: sizes has %d entries, circuit has %d vertices"
           what (Array.length sizes) t.n);
      None
    | Some sizes ->
      if not (Array.for_all (Tolerance.in_box model) sizes) then
        add t rule
          (Printf.sprintf "%s: recorded sizes leave the [%g, %g] size box"
             what model.Delay_model.min_size model.Delay_model.max_size);
      let delays = Delay_model.delays model sizes in
      let area = Delay_model.area model sizes in
      let cp = Sta.critical_path_only model ~delays in
      (match Json.num_field "area" j with
      | Some a when rel_close a area -> ()
      | a ->
        add t rule
          (Printf.sprintf
             "%s: claims area %s but the recorded sizes have area %.17g" what
             (shown (Printf.sprintf "%.17g") a)
             area));
      (match Json.num_field "cp" j with
      | Some c when rel_close c cp -> ()
      | c ->
        add t rule
          (Printf.sprintf
             "%s: claims critical path %s but the recorded sizes give %.17g"
             what
             (shown (Printf.sprintf "%.17g") c)
             cp));
      (match Json.bool_field "met" j with
      | Some true when not (Tolerance.meets ~target:t.target cp) ->
        add t rule
          (Printf.sprintf
             "%s: claims the target %g is met but the recorded sizes give \
              critical path %.17g"
             what t.target cp)
      | _ -> ());
      Some (sizes, delays, area)

  (* the step's LP certificate: verified from first principles, its
     potentials re-derived into the recorded budgets, its LP rebuilt at the
     preceding waypoint *)
  let check_certificate t ~what ~prev_sizes ~prev_delays j =
    let model = t.model and n = t.n in
    let solver = Option.value ~default:"?" (Json.str_field "solver" j) in
    match Json.member "lp" j with
    | None when solver = Dphase.solver_name `Bellman_ford ->
      (* the feasibility rung has no certificate by design *)
      ()
    | None ->
      malformed t
        (Printf.sprintf "%s: solver %s must carry an LP certificate" what
           solver)
    | Some lp_json -> (
      match parse_lp lp_json with
      | None -> malformed t (Printf.sprintf "%s: malformed LP certificate" what)
      | Some (problem, solution) -> (
        List.iter
          (fun (f : Finding.t) ->
            t.flow_findings <-
              { f with message = Printf.sprintf "%s: %s" what f.message }
              :: t.flow_findings)
          (Audit.check problem solution);
        let eta = Option.value ~default:Engine.eta0 (Json.num_field "eta" j) in
        let dopts = { Dphase.default_options with eta } in
        (* the recorded budgets must be the ones the certificate's
           potentials give at the preceding sizes *)
        (match Json.array_field Json.to_num "budgets" j with
        | Some budgets
          when Array.length budgets = n
               && Array.length solution.Mcf.potential >= 2 * n ->
          let expect, _ =
            Dphase.budgets_of_potentials ~options:dopts ~delays:prev_delays
              solution.Mcf.potential
          in
          Array.iteri
            (fun i b ->
              if not (rel_close b expect.(i)) then
                add t Rule.mf211_trace_claim
                  ~related:[ model.Delay_model.labels.(i) ]
                  (Printf.sprintf
                     "%s: vertex %s recorded budget %.17g, the certificate's \
                      potentials give %.17g"
                     what model.Delay_model.labels.(i) b expect.(i)))
            budgets
        | _ -> ());
        match
          Dphase.displacement_problem ~options:dopts model ~sizes:prev_sizes
            ~delays:prev_delays ~deadline:t.target
        with
        | Error e ->
          add t Rule.mf215_trace_lp
            (Printf.sprintf
               "%s: the displacement LP cannot even be rebuilt at the \
                preceding sizes: %s"
               what (Minflo_robust.Diag.to_string e))
        | Ok rebuilt -> (
          match lp_mismatch problem rebuilt with
          | Some msg -> add t Rule.mf215_trace_lp (Printf.sprintf "%s: %s" what msg)
          | None -> ())))

  let check_step t j =
    if t.final_seen then
      malformed t (Printf.sprintf "line %d: step after the final record" t.line);
    t.steps_seen <- t.steps_seen + 1;
    let what = Printf.sprintf "step %d" t.steps_seen in
    (match Json.int_field "iter" j with
    | Some it when it = t.steps_seen -> ()
    | it ->
      malformed t
        (Printf.sprintf "%s: iter is %s, expected %d" what
           (shown string_of_int it) t.steps_seen));
    match check_claims t Rule.mf211_trace_claim ~what j with
    | None -> ()
    | Some (sizes, delays, area) ->
      (* W-phase fixpoint claim: every recorded delay budget is met *)
      (match Json.array_field Json.to_num "budgets" j with
      | None ->
        malformed t
          (Printf.sprintf "%s: missing or non-numeric budgets array" what)
      | Some budgets when Array.length budgets <> t.n ->
        malformed t
          (Printf.sprintf "%s: budgets has %d entries, expected %d" what
             (Array.length budgets) t.n)
      | Some budgets ->
        Array.iteri
          (fun i d ->
            let b = budgets.(i) in
            if not (Tolerance.budget_met ~budget:b d) then
              add t Rule.mf212_trace_budget
                ~related:[ t.model.Delay_model.labels.(i) ]
                (Printf.sprintf
                   "%s: vertex %s delay %.17g exceeds its recorded budget \
                    %.17g"
                   what t.model.Delay_model.labels.(i) d b))
          delays);
      (* monotone progress against the previous waypoint *)
      (match t.prev with
      | Some (prev_sizes, prev_delays, prev_area) ->
        if not (area < prev_area) then
          add t Rule.mf213_trace_progress
            (Printf.sprintf
               "%s: area %.17g does not improve on the previous %.17g" what
               area prev_area);
        check_certificate t ~what ~prev_sizes ~prev_delays j
      | None ->
        malformed t (Printf.sprintf "%s: appears before the tilos seed" what));
      t.prev <- Some (sizes, delays, area)

  let check_final t j =
    if t.final_seen then
      malformed t (Printf.sprintf "line %d: duplicate final record" t.line)
    else begin
      t.final_seen <- true;
      (match Json.int_field "iterations" j with
      | Some k when k = t.steps_seen -> ()
      | k ->
        add t Rule.mf214_trace_final
          (Printf.sprintf
             "final: claims %s iterations but the trace records %d accepted \
              steps"
             (shown string_of_int k) t.steps_seen));
      match check_claims t Rule.mf214_trace_final ~what:"final" j with
      | Some (sizes, _, _) -> (
        match t.prev with
        | Some (prev_sizes, _, _) when sizes <> prev_sizes ->
          add t Rule.mf214_trace_final
            "final: sizes differ from the last recorded waypoint"
        | _ -> ())
      | None -> ()
    end

  let kind j = Option.value ~default:"?" (Json.str_field "record" j)

  (* the first record takes the header's slot whatever it is *)
  let feed_at t ~line j =
    t.line <- line;
    t.fed <- t.fed + 1;
    if t.fed = 1 then
      if kind j = "header" then check_header t j
      else
        malformed t
          (Printf.sprintf "line %d: expected the header record first, got %S"
             line (kind j))
    else
      match kind j with
      | "header" -> malformed t (Printf.sprintf "line %d: duplicate header" line)
      | "tilos" -> (
        if t.prev <> None || t.steps_seen > 0 then
          malformed t
            (Printf.sprintf "line %d: tilos record after the seed position" line)
        else
          match check_claims t Rule.mf211_trace_claim ~what:"tilos" j with
          | Some waypoint -> t.prev <- Some waypoint
          | None -> ())
      | "step" -> check_step t j
      | "final" -> check_final t j
      | other ->
        malformed t
          (Printf.sprintf "line %d: unknown record kind %S" line other)

  let feed t j = feed_at t ~line:(t.line + 1) j

  let finish t =
    if t.fed = 0 then malformed t "trace is empty"
    else if not t.final_seen then
      malformed t "trace ends without a final record (truncated run?)";
    List.concat_map
      (fun (rule, items) -> Audit.capped rule (List.rev items))
      (List.rev t.per_rule)
    @ List.rev t.flow_findings
end

(* physical lines, numbered from 1; blank ones carry no record *)
let audit model ~target content =
  let a = Auditor.create model ~target in
  List.iteri
    (fun k l ->
      if String.trim l <> "" then
        match Json.parse l with
        | Ok j -> Auditor.feed_at a ~line:(k + 1) j
        | Error e ->
          Auditor.malformed a
            (Printf.sprintf "line %d: not valid JSON (%s)" (k + 1) e))
    (String.split_on_char '\n' content);
  Auditor.finish a

let audit_file model ~target path =
  Result.map (audit model ~target) (Io.read_file path)

(* the auditor never reads the circuit name *)
let check_run model ~target ~steps r =
  let a = Auditor.create model ~target in
  Seq.iter (Auditor.feed a) (records model ~circuit:"" ~target ~steps r);
  Auditor.finish a
