module Diag = Minflo_robust.Diag
module Json = Minflo_util.Json
module Job = Minflo_runner.Job
module Dphase = Minflo_sizing.Dphase
module Stats = Minflo_util.Stats

type config = {
  endpoint : Transport.endpoint;
  retry : Client.retry;
  circuits : string list;
  factor : float;
  solver : Dphase.solver;
  count : int;           (* well-formed sizing jobs *)
  sleep_seconds : float; (* artificial latency per job *)
  lint_bad : int;        (* jobs that must be rejected by the lint gate *)
  tiny_budget : int;     (* jobs with a 1-iteration budget (best-feasible path) *)
  poll_interval : float;
  deadline_seconds : float;
}

let default_config =
  { endpoint = Transport.Unix_sock "minflo.sock";
    retry = Client.default_retry;
    circuits = [ "c17" ];
    factor = 1.3;
    solver = `Simplex;
    count = 4;
    sleep_seconds = 0.0;
    lint_bad = 0;
    tiny_budget = 0;
    poll_interval = 0.05;
    deadline_seconds = 300.0 }

let submit_spec cfg i : Protocol.submit =
  let circuit =
    List.nth cfg.circuits (i mod max 1 (List.length cfg.circuits))
  in
  (* distinct delay targets keep the job keys distinct *)
  { Protocol.circuit;
    factor = cfg.factor +. (0.002 *. float_of_int (i / List.length cfg.circuits));
    solver = cfg.solver;
    max_seconds = None;
    max_iterations = None;
    max_pivots = None;
    sleep_seconds = cfg.sleep_seconds }

let run (cfg : config) : (Json.t, Diag.error) result =
  let session = Client.session ~retry:cfg.retry cfg.endpoint in
  let accepted = ref [] in
  (* submit->terminal latency per accepted id; observed at poll
     granularity, so [poll_interval] bounds the measurement error *)
  let submit_time : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let latencies = ref [] in
  let overloaded = ref 0 in
  let draining = ref 0 in
  let lint_rejected = ref 0 in
  let other_rejected = ref 0 in
  let resubmitted = ref 0 in
  let failure = ref None in
  let submit spec ~expect_lint =
    match
      Client.rpc session (Protocol.request_to_json (Protocol.Submit spec))
    with
    | Error e -> failure := Some e
    | Ok response -> (
      match (Json.bool_field "ok" response, Json.str_field "code" response)
      with
      | Some true, _ ->
        if Json.bool_field "resubmitted" response = Some true then
          incr resubmitted;
        (match Json.str_field "id" response with
        | Some id ->
          (* a retried submit whose first send did reach the daemon comes
             back [resubmitted]; the id must still count once, and its
             clock starts at the first acceptance *)
          if not (List.mem id !accepted) then begin
            accepted := id :: !accepted;
            Hashtbl.replace submit_time id (Minflo_robust.Mono.now ())
          end
        | None -> ())
      | _, Some "overloaded" -> incr overloaded
      | _, Some "draining" -> incr draining
      | _, Some _ when expect_lint -> incr lint_rejected
      | _, _ -> incr other_rejected)
  in
  for i = 0 to cfg.count - 1 do
    if !failure = None then submit (submit_spec cfg i) ~expect_lint:false
  done;
  for i = 0 to cfg.lint_bad - 1 do
    if !failure = None then
      submit
        { (submit_spec cfg i) with
          Protocol.circuit = Printf.sprintf "no-such-circuit-%d" i }
        ~expect_lint:true
  done;
  for i = 0 to cfg.tiny_budget - 1 do
    if !failure = None then
      submit
        { (submit_spec cfg (cfg.count + i)) with
          Protocol.max_iterations = Some 1 }
        ~expect_lint:false
  done;
  match !failure with
  | Some e ->
    Client.close_session session;
    Error e
  | None -> (
    (* poll every accepted job to a terminal state *)
    let deadline = Minflo_robust.Mono.now () +. cfg.deadline_seconds in
    let terminal = Hashtbl.create 16 in
    let rec poll () =
      let open_jobs =
        List.filter (fun id -> not (Hashtbl.mem terminal id)) !accepted
      in
      if open_jobs = [] then Ok ()
      else if Minflo_robust.Mono.now () > deadline then
        Error
          (Diag.Internal
             (Printf.sprintf "loadgen: %d jobs still pending at deadline"
                (List.length open_jobs)))
      else begin
        List.iter
          (fun id ->
            match
              Client.rpc session
                (Protocol.request_to_json (Protocol.Status id))
            with
            | Error e -> failure := Some e
            | Ok response -> (
              match Json.str_field "state" response with
              | Some (("done" | "failed" | "cancelled") as st) ->
                Hashtbl.replace terminal id st;
                (match Hashtbl.find_opt submit_time id with
                | Some t0 ->
                  latencies := (Minflo_robust.Mono.now () -. t0) :: !latencies
                | None -> ())
              | _ -> ()))
          open_jobs;
        match !failure with
        | Some e -> Error e
        | None ->
          Unix.sleepf cfg.poll_interval;
          poll ()
      end
    in
    match poll () with
    | Error e ->
      Client.close_session session;
      Error e
    | Ok () -> (
      let count st =
        Hashtbl.fold
          (fun _ s acc -> if s = st then acc + 1 else acc)
          terminal 0
      in
      let latency_percentile p =
        match !latencies with
        | [] -> 0.0
        | l -> Stats.percentile (Array.of_list l) p
      in
      let stats =
        Client.rpc session (Protocol.request_to_json Protocol.Stats)
      in
      Client.close_session session;
      match stats with
      | Error _ as e -> e
      | Ok stats ->
        Ok
          (Json.Obj
             [ ( "submitted",
                 Json.Num
                   (float_of_int
                      (cfg.count + cfg.lint_bad + cfg.tiny_budget)) );
               ( "accepted",
                 Json.Num (float_of_int (List.length !accepted)) );
               ("resubmitted", Json.Num (float_of_int !resubmitted));
               ("overloaded", Json.Num (float_of_int !overloaded));
               ("draining", Json.Num (float_of_int !draining));
               ("lint_rejected", Json.Num (float_of_int !lint_rejected));
               ("other_rejected", Json.Num (float_of_int !other_rejected));
               ("done", Json.Num (float_of_int (count "done")));
               ("failed", Json.Num (float_of_int (count "failed")));
               ("cancelled", Json.Num (float_of_int (count "cancelled")));
               ("latency_p50_seconds", Json.Num (latency_percentile 50.0));
               ("latency_p99_seconds", Json.Num (latency_percentile 99.0));
               ("stats", stats) ])))
