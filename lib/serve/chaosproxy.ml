module Diag = Minflo_robust.Diag
module Fault = Minflo_robust.Fault
module Io = Minflo_robust.Io
module Json = Minflo_util.Json
module Mono = Minflo_robust.Mono

type fault_arm = {
  site : string;
  count : int option;
  prob : float option;
}

type config = {
  listen : Transport.endpoint;
  upstream : Transport.endpoint;
  faults : fault_arm list;
  seed : int;
  delay_seconds : float;
  connect_timeout : float;
  report_path : string option;
}

let default_config =
  { listen = Transport.Tcp ("127.0.0.1", 0);
    upstream = Transport.Unix_sock "minflo.sock";
    faults = [];
    seed = 0;
    delay_seconds = 0.2;
    connect_timeout = 5.0;
    report_path = None }

(* One proxied connection: a client descriptor and its dedicated upstream
   descriptor, with a line buffer per direction. Forwarding is
   line-oriented so every fault lands on a whole protocol unit: a request
   can be stalled, a response delayed, torn mid-line, or the connection
   dropped at accept — exactly the failure taxonomy clients must absorb. *)
type pair = {
  cfd : Unix.file_descr;
  ufd : Unix.file_descr;
  c2u : Buffer.t;   (* bytes from the client, not yet split into lines *)
  u2c : Buffer.t;
  mutable alive : bool;
}

(* a line waiting out an injected stall/delay before it is forwarded *)
type pending = {
  release : float;
  dest : [ `Upstream | `Client ];
  pair : pair;
  line : string;    (* includes the trailing newline *)
  torn : bool;      (* forward only half, skip the newline, then drop *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let kill_pair p =
  if p.alive then begin
    p.alive <- false;
    close_quietly p.cfd;
    close_quietly p.ufd
  end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let deliver (p : pending) =
  if p.pair.alive then
    if p.torn then begin
      (* half the line, no newline, then a hard close: the client sees a
         torn response and must answer with the typed diagnostic *)
      let keep = String.length p.line / 2 in
      write_all p.pair.cfd (String.sub p.line 0 keep);
      kill_pair p.pair
    end
    else
      write_all
        (match p.dest with `Upstream -> p.pair.ufd | `Client -> p.pair.cfd)
        p.line

let report_json plan =
  Json.Obj
    (List.map
       (fun site -> (site, Json.Num (float_of_int (Fault.fired plan ~site))))
       (Fault.sites plan))

let run ?(config = default_config) () : (unit, Diag.error) result =
  let cfg = config in
  let plan = Fault.create ~seed:cfg.seed () in
  List.iter
    (fun { site; count; prob } ->
      Fault.arm plan ~site ?count ?prob (Fault.Perturb 0.0))
    cfg.faults;
  match Transport.listen cfg.listen with
  | Error e -> Error e
  | Ok (lfd, actual) ->
    (* the chosen endpoint on stdout: with port 0, this is how the test
       harness (or operator) finds the proxy *)
    print_endline (Transport.to_string actual);
    (try flush stdout with Sys_error _ -> ());
    let old_pipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let stop = ref false in
    let install sg =
      try Some (Sys.signal sg (Sys.Signal_handle (fun _ -> stop := true)))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let old_term = install Sys.sigterm in
    let old_int = install Sys.sigint in
    let pairs : pair list ref = ref [] in
    let queue : pending list ref = ref [] in
    let fire site = Fault.fire plan ~site <> None in
    let accept_one () =
      match Unix.accept lfd with
      | cfd, _ ->
        if fire "net.accept-drop" then close_quietly cfd
        else (
          match Transport.connect ~timeout:cfg.connect_timeout cfg.upstream with
          | Error _ ->
            (* upstream down: drop the client; its retry layer redials *)
            close_quietly cfd
          | Ok ufd ->
            pairs :=
              { cfd;
                ufd;
                c2u = Buffer.create 256;
                u2c = Buffer.create 256;
                alive = true }
              :: !pairs)
      | exception Unix.Unix_error _ -> ()
    in
    (* split [buf] into complete lines, leaving the partial tail *)
    let take_lines buf =
      let s = Buffer.contents buf in
      match String.rindex_opt s '\n' with
      | None -> []
      | Some last ->
        Buffer.clear buf;
        Buffer.add_substring buf s (last + 1) (String.length s - last - 1);
        List.map
          (fun l -> l ^ "\n")
          (String.split_on_char '\n' (String.sub s 0 last))
    in
    let forward p line ~dest =
      let now = Mono.now () in
      match dest with
      | `Upstream ->
        if fire "net.read-stall" then
          queue :=
            { release = now +. cfg.delay_seconds;
              dest;
              pair = p;
              line;
              torn = false }
            :: !queue
        else deliver { release = now; dest; pair = p; line; torn = false }
      | `Client ->
        if fire "net.torn-write" then
          deliver { release = now; dest; pair = p; line; torn = true }
        else if fire "net.delayed-response" then
          queue :=
            { release = now +. cfg.delay_seconds;
              dest;
              pair = p;
              line;
              torn = false }
            :: !queue
        else deliver { release = now; dest; pair = p; line; torn = false }
    in
    let pump p fd buf ~dest =
      let bytes = Bytes.create 4096 in
      match Unix.read fd bytes 0 4096 with
      | 0 ->
        (* one side closed: flush nothing further, tear the pair down —
           any queued lines for it are dropped by [deliver]'s guard *)
        kill_pair p
      | n ->
        Buffer.add_subbytes buf bytes 0 n;
        List.iter (fun line -> forward p line ~dest) (take_lines buf)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> kill_pair p
    in
    while not !stop do
      let fds =
        lfd
        :: List.concat_map
             (fun p -> if p.alive then [ p.cfd; p.ufd ] else [])
             !pairs
      in
      let readable =
        match Unix.select fds [] [] 0.02 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if List.mem lfd readable then accept_one ();
      List.iter
        (fun p ->
          if p.alive && List.mem p.cfd readable then
            pump p p.cfd p.c2u ~dest:`Upstream;
          if p.alive && List.mem p.ufd readable then
            pump p p.ufd p.u2c ~dest:`Client)
        !pairs;
      (* release anything whose injected delay has elapsed *)
      let now = Mono.now () in
      let due, later = List.partition (fun q -> q.release <= now) !queue in
      queue := later;
      (* deliveries in arrival order: the queue is a LIFO accumulator *)
      List.iter deliver (List.rev due);
      pairs := List.filter (fun p -> p.alive) !pairs
    done;
    List.iter kill_pair !pairs;
    close_quietly lfd;
    (match cfg.listen with
    | Transport.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ());
    let written =
      match cfg.report_path with
      | Some path -> Io.write_file path (Json.to_string (report_json plan) ^ "\n")
      | None -> Ok ()
    in
    let restore sg old =
      match old with
      | Some b -> (
        try Sys.set_signal sg b with Invalid_argument _ | Sys_error _ -> ())
      | None -> ()
    in
    restore Sys.sigpipe old_pipe;
    restore Sys.sigterm old_term;
    restore Sys.sigint old_int;
    written
