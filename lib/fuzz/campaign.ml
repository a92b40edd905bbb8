module Diag = Minflo_robust.Diag
module Rng = Minflo_util.Rng
module Netlist = Minflo_netlist.Netlist
module Supervisor = Minflo_runner.Supervisor

type config = {
  seed : int;
  iterations : int;
  oracle : Oracle.config;
  profile : Gen_mut.profile;
  corpus_dir : string option;
  known : string list;
  shrink : bool;
  shrink_checks : int;
  isolate : bool;
  timeout_seconds : float option;
}

type bucket = {
  fingerprint : Fingerprint.t;
  count : int;
  first_seed : int;
  info : string;
  fresh : bool;
  repro_path : string option;
  shrunk_gates : int option;
  replay_deterministic : bool option;
}

type report = {
  cases : int;
  failing_cases : int;
  buckets : bucket list;
  fresh : int;
}

let case_seeds ~seed ~n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.int rng 0x3FFFFFFF)

(* ---------- one case through the oracle ---------- *)

(* failures of the harness itself (generator crash, supervised child hang
   or death) fingerprint under their own phases so they bucket cleanly *)
let generator_failure exn =
  { Oracle.fingerprint =
      Fingerprint.make ~phase:"generator" ~code:"crash"
        ~detail:(Printexc.to_string exn) ();
    info = Printf.sprintf "case generator raised: %s" (Printexc.to_string exn) }

let runner_failure (e : Diag.error) =
  let code =
    match e with
    | Diag.Job_timeout _ -> "hang"
    | Diag.Job_crashed _ -> "crash"
    | _ -> Diag.error_code e
  in
  { Oracle.fingerprint = Fingerprint.make ~phase:"runner" ~code ();
    info = Diag.to_string e }

let run_case cfg nl =
  if cfg.isolate then begin
    let sup_cfg =
      { Supervisor.parallel = 1;
        timeout_seconds = cfg.timeout_seconds;
        retries = 0;
        backoff_base = 0.0;
        isolate = true;
        watchdog_seconds = None }
    in
    match
      Supervisor.run_all_tasks ~config:sup_cfg
        [ ("fuzz-case", fun _ -> Ok (Oracle.run cfg.oracle nl)) ]
    with
    | [ (_, { Supervisor.verdict = Ok outcome; _ }) ] -> outcome
    | [ (_, { Supervisor.verdict = Error e; _ }) ] ->
      { Oracle.failures = [ runner_failure e ];
        gates = Netlist.gate_count nl;
        met = false;
        area = nan }
    | _ ->
      { Oracle.failures =
          [ { fingerprint =
                Fingerprint.make ~phase:"runner" ~code:"crash"
                  ~detail:"supervisor-protocol" ();
              info = "supervisor returned an unexpected outcome list" } ];
        gates = Netlist.gate_count nl;
        met = false;
        area = nan }
  end
  else Oracle.run cfg.oracle nl

(* ---------- triage ---------- *)

type raw_bucket = {
  mutable rcount : int;
  rb_seed : int;
  rb_info : string;
  rb_netlist : Minflo_netlist.Netlist.t option;  (* first exhibit *)
}

let shrinkable (fp : Fingerprint.t) = fp.phase <> "runner"

let known_fingerprints cfg =
  let from_corpus =
    match cfg.corpus_dir with
    | None -> []
    | Some dir ->
      List.filter_map
        (fun path ->
          match Corpus.load path with
          | Ok r -> Some (Fingerprint.to_string r.Corpus.fingerprint)
          | Error _ -> None)
        (Corpus.list dir)
  in
  cfg.known @ from_corpus

let run ?progress cfg =
  let seeds = case_seeds ~seed:cfg.seed ~n:cfg.iterations in
  let known = known_fingerprints cfg in
  let buckets : (string, raw_bucket) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let failing_cases = ref 0 in
  Array.iteri
    (fun i case_seed ->
      let nl, gen_failure =
        match Gen_mut.case ~profile:cfg.profile ~seed:case_seed () with
        | nl -> (Some nl, None)
        | exception exn -> (None, Some (generator_failure exn))
      in
      let failures =
        match (nl, gen_failure) with
        | Some nl, None -> (run_case cfg nl).Oracle.failures
        | _, Some f -> [ f ]
        | None, None -> []
      in
      if failures <> [] then incr failing_cases;
      (* one bucket entry per distinct fingerprint per case *)
      let seen_here = Hashtbl.create 4 in
      List.iter
        (fun (f : Oracle.failure) ->
          let key = Fingerprint.to_string f.fingerprint in
          if not (Hashtbl.mem seen_here key) then begin
            Hashtbl.add seen_here key ();
            match Hashtbl.find_opt buckets key with
            | Some rb -> rb.rcount <- rb.rcount + 1
            | None ->
              Hashtbl.add buckets key
                { rcount = 1;
                  rb_seed = case_seed;
                  rb_info = f.info;
                  rb_netlist = nl };
              order := key :: !order
          end)
        failures;
      match progress with Some p -> p i | None -> ())
    seeds;
  let finalize key =
    let rb = Hashtbl.find buckets key in
    let fingerprint =
      match Fingerprint.of_string key with
      | Some fp -> fp
      | None -> Fingerprint.make ~phase:"runner" ~code:"bad-fingerprint" ()
    in
    let fresh = not (List.mem key known) in
    let repro_path, shrunk_gates, replay_deterministic =
      match (fresh, cfg.corpus_dir, rb.rb_netlist) with
      | true, Some dir, Some first_nl ->
        let can_rerun = shrinkable fingerprint in
        let minimal =
          if cfg.shrink && can_rerun then begin
            let keep nl =
              List.exists
                (Fingerprint.equal fingerprint)
                (Oracle.fingerprints (Oracle.run cfg.oracle nl))
            in
            Shrink.shrink ~max_checks:cfg.shrink_checks ~keep first_nl
          end
          else first_nl
        in
        let deterministic =
          if can_rerun then begin
            let fps () = Oracle.fingerprints (Oracle.run cfg.oracle minimal) in
            let a = fps () and b = fps () in
            Some (List.length a = List.length b && List.for_all2 Fingerprint.equal a b)
          end
          else None
        in
        let repro =
          { Corpus.fingerprint;
            seed = rb.rb_seed;
            config = cfg.oracle;
            netlist = minimal }
        in
        let path =
          match Corpus.save ~dir repro with
          | Ok p -> Some p
          | Error _ -> None
        in
        (path, Some (Netlist.gate_count minimal), deterministic)
      | _ -> (None, None, None)
    in
    { fingerprint;
      count = rb.rcount;
      first_seed = rb.rb_seed;
      info = rb.rb_info;
      fresh;
      repro_path;
      shrunk_gates;
      replay_deterministic }
  in
  let bucket_list =
    List.rev_map finalize !order
    |> List.sort (fun a b -> Fingerprint.compare a.fingerprint b.fingerprint)
  in
  { cases = cfg.iterations;
    failing_cases = !failing_cases;
    buckets = bucket_list;
    fresh = List.length (List.filter (fun (b : bucket) -> b.fresh) bucket_list) }

(* ---------- replay ---------- *)

type replay_outcome = {
  repro : Corpus.repro;
  observed : Fingerprint.t list;
  reproduced : bool;
  deterministic : bool;
}

let replay path =
  match Corpus.load path with
  | Error e -> Error e
  | Ok repro ->
    let fps () =
      Oracle.fingerprints (Oracle.run repro.Corpus.config repro.Corpus.netlist)
    in
    let a = fps () in
    let b = fps () in
    Ok
      { repro;
        observed = a;
        reproduced = List.exists (Fingerprint.equal repro.Corpus.fingerprint) a;
        deterministic =
          List.length a = List.length b && List.for_all2 Fingerprint.equal a b }
