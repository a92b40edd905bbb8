type mode = Clean | Torn

let mode_to_string = function Clean -> "clean" | Torn -> "torn"

type outcome =
  | Crashed
  | Crash_swallowed
  | Never_fired
  | Errored of string

type sim = {
  sim_boundary : int;
  sim_mode : mode;
  sim_outcome : outcome;
  sim_violations : string list;
}

type report = { total_boundaries : int; sims : sim list }

let crash_points r =
  List.length
    (List.filter
       (fun s ->
         match s.sim_outcome with
         | Crashed | Crash_swallowed -> true
         | Never_fired | Errored _ -> false)
       r.sims)

let violations r =
  List.concat_map (fun s -> List.map (fun v -> (s, v)) s.sim_violations) r.sims

(* Child exit-code protocol: the parent cannot see the child's exception,
   only how it died, so the wrapper encodes the interesting cases. *)
let exit_crashed = 77
let exit_swallowed = 78
let exit_errored = 76

let rec waitpid_retry pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let silence_child () =
  match Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | null ->
    (try Unix.dup2 null Unix.stdout with Unix.Unix_error _ -> ());
    (try Unix.dup2 null Unix.stderr with Unix.Unix_error _ -> ());
    (try Unix.close null with Unix.Unix_error _ -> ())

let child_body ~seed ~boundary ~mode workload =
  silence_child ();
  Io.reset ();
  let plan = Fault.create ~seed () in
  let action =
    match mode with
    | Clean -> Fault.Fail (Diag.Fault_injected { site = "io.crash-after-write" })
    | Torn -> Fault.Perturb 0.5
  in
  Fault.arm plan ~site:"io.crash-after-write" ~after:(boundary - 1) ~count:1
    action;
  Io.set_fault (Some plan);
  let code =
    match workload () with
    | () -> if Io.crashed () then exit_swallowed else 0
    | exception Io.Simulated_crash _ -> exit_crashed
    | exception exn ->
      if Io.crashed () then exit_swallowed
      else begin
        prerr_endline (Printexc.to_string exn);
        exit_errored
      end
  in
  Unix._exit code

let classify status =
  match status with
  | Unix.WEXITED c when c = exit_crashed -> Crashed
  | Unix.WEXITED c when c = exit_swallowed -> Crash_swallowed
  | Unix.WEXITED 0 -> Never_fired
  | Unix.WEXITED c -> Errored (Printf.sprintf "child exited %d" c)
  | Unix.WSIGNALED s -> Errored (Printf.sprintf "child killed by signal %d" s)
  | Unix.WSTOPPED s -> Errored (Printf.sprintf "child stopped by signal %d" s)

let modes = [ Clean; Torn ]

let select_boundaries ~total ~max_sims =
  let all = List.init total (fun i -> i + 1) in
  match max_sims with
  | None -> all
  | Some cap ->
    let per_mode = max 1 (cap / List.length modes) in
    if total <= per_mode then all
    else begin
      (* stride evenly so early (journal-open, first appends) and late
         (final checkpoint, seals) boundaries are both covered. *)
      let stride = float_of_int total /. float_of_int per_mode in
      List.init per_mode (fun i ->
          min total (1 + int_of_float (float_of_int i *. stride)))
      |> List.sort_uniq compare
    end

let run ?(seed = 0) ?max_sims ?progress ~setup ~workload ~verify () =
  (* phase 1: count the workload's write boundaries, fault-free *)
  Io.set_fault None;
  Io.reset ();
  setup ();
  (match workload () with
  | () -> ()
  | exception Diag.Error_exn e -> Diag.fail e
  | exception exn ->
    Diag.fail
      (Diag.Internal
         (Printf.sprintf "torture: fault-free workload failed: %s"
            (Printexc.to_string exn))));
  let total = Io.boundaries () in
  if total = 0 then
    Error (Diag.Internal "torture: workload crossed no write boundaries")
  else begin
    let ks = select_boundaries ~total ~max_sims in
    let sims_planned = List.length ks * List.length modes in
    let done_ = ref 0 in
    let sims =
      List.concat_map
        (fun k ->
          List.map
            (fun m ->
              setup ();
              flush stdout;
              flush stderr;
              let sim_outcome =
                match Unix.fork () with
                | 0 -> child_body ~seed ~boundary:k ~mode:m workload
                | pid ->
                  let _, status = waitpid_retry pid in
                  classify status
              in
              Io.set_fault None;
              Io.reset ();
              let harness_violations =
                match sim_outcome with
                | Crashed | Crash_swallowed -> []
                | Never_fired ->
                  [ Printf.sprintf
                      "boundary %d never reached on replay (workload \
                       non-deterministic?)"
                      k ]
                | Errored msg ->
                  [ Printf.sprintf "child died outside the crash protocol: %s" msg ]
              in
              let sim_violations =
                harness_violations @ verify ~boundary:k ~mode:m
              in
              incr done_;
              (match progress with
              | Some f -> f !done_ sims_planned
              | None -> ());
              { sim_boundary = k; sim_mode = m; sim_outcome; sim_violations })
            modes)
        ks
    in
    Ok { total_boundaries = total; sims }
  end

let run ?seed ?max_sims ?progress ~setup ~workload ~verify () =
  try run ?seed ?max_sims ?progress ~setup ~workload ~verify ()
  with Diag.Error_exn e -> Error e
