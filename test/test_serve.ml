(* The sizing-as-a-service daemon: wire format, admission queue, and
   end-to-end lifecycle tests that fork a real daemon over a unix socket —
   including the acceptance scenario (SIGKILL with in-flight jobs, restart
   on the same run directory, bit-identical recovered results). *)

module Json = Minflo_util.Json
module Protocol = Minflo_serve.Protocol
module Bounded_queue = Minflo_serve.Bounded_queue
module Server = Minflo_serve.Server
module Transport = Minflo_serve.Transport
module Client = Minflo_serve.Client
module Result_cache = Minflo_serve.Result_cache
module Chaosproxy = Minflo_serve.Chaosproxy
module Loadgen = Minflo_serve.Loadgen
module Journal = Minflo_runner.Journal
module Diag = Minflo_robust.Diag

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("minflo-" ^ name) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let src = {|{"a": 1, "b": [true, null, "xé\n"], "c": -2.5}|} in
  (match Json.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j ->
    check (Alcotest.option Alcotest.int) "int field" (Some 1)
      (Json.int_field "a" j);
    (match Json.member "b" j with
    | Some (Json.List [ Json.Bool true; Json.Null; Json.Str s ]) ->
      check string "escapes decoded" "x\xc3\xa9\n" s
    | _ -> Alcotest.fail "array shape");
    check (Alcotest.option (Alcotest.float 0.)) "negative number" (Some (-2.5))
      (Json.num_field "c" j);
    (* print/parse round trip is structural identity *)
    match Json.parse (Json.to_string j) with
    | Ok j2 -> check string "reprint stable" (Json.to_string j) (Json.to_string j2)
    | Error e -> Alcotest.failf "reparse: %s" e);
  (match Json.parse {|"\u00e9\u0041\u20AC"|} with
  | Ok (Json.Str s) -> check string "\\u decoded as UTF-8" "\xc3\xa9A\xe2\x82\xac" s
  | _ -> Alcotest.fail "\\u escapes not decoded");
  (* network input: malformed values are refused, and a \u escape takes
     exactly four hex digits *)
  List.iter
    (fun src ->
      match Json.parse src with
      | Error _ -> ()
      | Ok j -> Alcotest.failf "%s accepted as %s" src (Json.to_string j))
    [ {|{"a": 1} trailing|}; {|{"a": }|}; {|"\u1_23"|}; {|"\u_123"|};
      {|"\u12"|}; {|"\u12g4"|}; {|"\u 123"|} ]

let test_json_number_bits () =
  (* the daemon's bit-identical recovery rides on numbers surviving
     print/parse unchanged *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num g) ->
        if Int64.bits_of_float f <> Int64.bits_of_float g then
          Alcotest.failf "%h reparsed as %h" f g
      | _ -> Alcotest.failf "%h did not reparse as a number" f)
    [ 0.0; -0.0; 0.1; 1.0 /. 3.0; 1e300; 4.94e-324; 12345.6789;
      1.0000000000000002; 745.0; -42.125 ]

(* ---------- protocol ---------- *)

let roundtrip req =
  let j = Protocol.request_to_json req in
  match Protocol.request_of_json j with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok req2 ->
    check string "request round trip"
      (Json.to_string j)
      (Json.to_string (Protocol.request_to_json req2))

let submit_spec ?max_seconds ?max_iterations ?max_pivots ?(sleep = 0.0)
    ?(factor = 1.3) circuit =
  { Protocol.circuit; factor; solver = `Simplex; max_seconds; max_iterations;
    max_pivots; sleep_seconds = sleep }

let test_protocol_roundtrip () =
  roundtrip (Protocol.Submit (submit_spec "c17"));
  roundtrip
    (Protocol.Submit
       (submit_spec ~max_seconds:2.5 ~max_iterations:7 ~max_pivots:1000
          ~sleep:0.25 ~factor:0.45 "c432"));
  roundtrip (Protocol.Status "some-id");
  roundtrip (Protocol.Result { id = "some-id"; wait = true });
  roundtrip (Protocol.Result { id = "some-id"; wait = false });
  roundtrip (Protocol.Cancel "some-id");
  roundtrip Protocol.Stats;
  roundtrip Protocol.Health;
  roundtrip Protocol.Drain

let test_protocol_validation () =
  let reject j what =
    match Protocol.request_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  reject (Json.Obj [ ("op", Json.Str "launch-missiles") ]) "unknown op";
  reject
    (Json.Obj
       [ ("op", Json.Str "submit"); ("circuit", Json.Str "c17");
         ("factor", Json.Num (-1.0)) ])
    "negative factor";
  reject
    (Json.Obj
       [ ("op", Json.Str "submit"); ("circuit", Json.Str "c17");
         ("factor", Json.Num 1.3); ("solver", Json.Str "quantum") ])
    "unknown solver";
  reject (Json.Obj [ ("op", Json.Str "status") ]) "status without id";
  reject (Json.Str "not an object") "non-object request"

let test_protocol_job_key () =
  let plain = Protocol.job_key (submit_spec "c17") in
  check Alcotest.bool "default budgets need no suffix" false
    (String.contains plain '#');
  let budgeted = Protocol.job_key (submit_spec ~max_iterations:3 "c17") in
  check Alcotest.bool "custom budget gets a suffix" true
    (String.contains budgeted '#');
  if plain = budgeted then
    Alcotest.fail "budget must change the job identity";
  let other = Protocol.job_key (submit_spec ~max_iterations:4 "c17") in
  if budgeted = other then
    Alcotest.fail "different budgets must have different identities";
  check string "same spec, same key" budgeted
    (Protocol.job_key (submit_spec ~max_iterations:3 "c17"))

(* the submit record's one codec: the wire request and the journal's
   [serve-accepted] line *)
let test_submit_codec_round_trip () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, (s : Protocol.submit)) ->
      let printed = Json.to_string (Json.Obj (Protocol.submit_fields s)) in
      match Result.map Protocol.submit_of_json (Json.parse printed) with
      | Ok (Ok s') ->
        check string (name ^ ": print, parse, print") printed
          (Json.to_string (Json.Obj (Protocol.submit_fields s')));
        check Alcotest.bool (name ^ ": bit-equal record") true
          (s.circuit = s'.circuit && s.solver = s'.solver
          && bits s.factor = bits s'.factor
          && Option.map bits s.max_seconds = Option.map bits s'.max_seconds
          && s.max_iterations = s'.max_iterations
          && s.max_pivots = s'.max_pivots
          && bits s.sleep_seconds = bits s'.sleep_seconds)
      | Ok (Error e) -> Alcotest.failf "%s: %s does not decode: %s" name printed e
      | Error e -> Alcotest.failf "%s: %s does not parse: %s" name printed e)
    [ ("defaults", submit_spec "c17");
      ( "every field",
        { (submit_spec ~max_seconds:2.5 ~max_iterations:7 ~max_pivots:1000
             ~sleep:0.25 ~factor:(0.1 +. 0.2) "c432")
          with
          solver = `Bellman_ford } );
      ( "subnormal",
        submit_spec ~max_seconds:(Int64.float_of_bits 1L)
          ~factor:(Int64.float_of_bits 1L) "c17" );
      ( "max_float",
        submit_spec ~max_seconds:Float.max_float ~sleep:Float.max_float
          ~factor:Float.max_float "c17" ) ]

(* [serve-accepted] lines as earlier builds wrote them still recover *)
let test_submit_codec_reads_old_lines () =
  let decode line =
    match Result.map Protocol.submit_of_json (Json.parse line) with
    | Ok (Ok s) -> s
    | Ok (Error e) -> Alcotest.failf "literal line does not decode: %s" e
    | Error e -> Alcotest.failf "literal line does not parse: %s" e
  in
  let same what (a : Protocol.submit) (b : Protocol.submit) =
    check string what
      (Json.to_string (Json.Obj (Protocol.submit_fields a)))
      (Json.to_string (Json.Obj (Protocol.submit_fields b)));
    check string (what ^ ": key") (Protocol.job_key a) (Protocol.job_key b)
  in
  same "budgeted"
    (decode
       {|{"event":"serve-accepted","seq":2,"t":0.01,"job":"c17@0.700/ssp#s=2.5,it=7,pv=1000,zz=0.25","circuit":"c17","factor":0.7,"solver":"ssp","max_seconds":2.5,"max_iterations":7,"max_pivots":1000,"sleep_seconds":0.25}|})
    { (submit_spec ~max_seconds:2.5 ~max_iterations:7 ~max_pivots:1000
         ~sleep:0.25 ~factor:0.7 "c17")
      with
      solver = `Ssp };
  same "plain"
    (decode
       {|{"event":"serve-accepted","seq":5,"t":0.02,"job":"c17@0.050/auto","circuit":"c17","factor":0.05,"solver":"auto"}|})
    { (submit_spec ~factor:0.05 "c17") with solver = `Auto }

(* ---------- bounded queue ---------- *)

let test_bounded_queue () =
  let q = Bounded_queue.create ~capacity:2 in
  check Alcotest.bool "starts empty" true (Bounded_queue.is_empty q);
  (match Bounded_queue.push q "a" with Ok () -> () | Error _ -> Alcotest.fail "push a");
  (match Bounded_queue.push q "b" with Ok () -> () | Error _ -> Alcotest.fail "push b");
  (match Bounded_queue.push q "c" with
  | Error (`Full 2) -> ()
  | Error (`Full n) -> Alcotest.failf "full at depth %d" n
  | Ok () -> Alcotest.fail "push past capacity accepted");
  check (Alcotest.option string) "fifo pop" (Some "a") (Bounded_queue.pop q);
  (match Bounded_queue.push q "c" with Ok () -> () | Error _ -> Alcotest.fail "push c");
  (* recovery path may exceed the bound *)
  Bounded_queue.push_force q "forced";
  check int "forced past capacity" 3 (Bounded_queue.length q);
  check int "capacity unchanged" 2 (Bounded_queue.capacity q);
  check int "peak is the high-water mark" 3 (Bounded_queue.peak q);
  check (Alcotest.option string) "pop b" (Some "b") (Bounded_queue.pop q);
  check (Alcotest.option string) "pop c" (Some "c") (Bounded_queue.pop q);
  check (Alcotest.option string) "pop forced" (Some "forced") (Bounded_queue.pop q);
  check (Alcotest.option string) "drained" None (Bounded_queue.pop q)

(* ---------- transport ---------- *)

let endpoint_t : Transport.endpoint Alcotest.testable =
  Alcotest.testable
    (fun ppf ep -> Format.pp_print_string ppf (Transport.to_string ep))
    ( = )

let test_transport_parse () =
  let ok s want =
    match Transport.parse s with
    | Ok got -> check endpoint_t s want got
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "127.0.0.1:8080" (Transport.Tcp ("127.0.0.1", 8080));
  ok "localhost:0" (Transport.Tcp ("localhost", 0));
  ok "unix:/tmp/x.sock" (Transport.Unix_sock "/tmp/x.sock");
  ok "minflo.sock" (Transport.Unix_sock "minflo.sock");
  (* a colon whose suffix is not a port keeps meaning "socket path" *)
  ok "/var/run/odd:name" (Transport.Unix_sock "/var/run/odd:name");
  List.iter
    (fun s ->
      match Transport.parse s with
      | Error _ -> ()
      | Ok ep ->
        Alcotest.failf "%s accepted as %s" s (Transport.to_string ep))
    [ ""; "unix:"; "host:70000"; ":9" ]

(* ---------- result cache ---------- *)

let test_result_cache_lru () =
  let c = Result_cache.create ~budget_bytes:100 in
  Result_cache.put c "a" 1 ~bytes:40;
  Result_cache.put c "b" 2 ~bytes:40;
  check (Alcotest.option int) "a resident" (Some 1) (Result_cache.find c "a");
  (* the [find] above made "a" hot, so pressure evicts "b" *)
  Result_cache.put c "c" 3 ~bytes:40;
  check (Alcotest.option int) "cold entry evicted" None (Result_cache.find c "b");
  check (Alcotest.option int) "hot entry kept" (Some 1) (Result_cache.find c "a");
  check (Alcotest.option int) "new entry kept" (Some 3) (Result_cache.find c "c");
  check int "bytes within budget" 80 (Result_cache.bytes c);
  check int "one eviction so far" 1 (Result_cache.evictions c);
  (* an entry larger than the whole budget passes straight through *)
  Result_cache.put c "big" 4 ~bytes:200;
  check (Alcotest.option int) "oversized never resident" None
    (Result_cache.find c "big");
  check int "oversized flushed everything" 0 (Result_cache.bytes c);
  check int "evictions accumulate" 4 (Result_cache.evictions c);
  (* replacement re-accounts instead of double-counting *)
  Result_cache.put c "x" 5 ~bytes:50;
  Result_cache.put c "x" 6 ~bytes:60;
  check int "replace keeps one entry" 1 (Result_cache.entries c);
  check int "replace re-accounts bytes" 60 (Result_cache.bytes c);
  check (Alcotest.option int) "replace keeps latest" (Some 6)
    (Result_cache.find c "x")

(* ---------- end to end: a forked daemon over a real socket ---------- *)

let daemon_cfg ?(parallel = 2) ?(queue = 16) ?tcp ?watchdog
    ?(io_timeout = 30.0) ?(cache_bytes = 64 * 1024 * 1024) dir =
  { Server.socket_path = Filename.concat dir "minflo.sock";
    tcp;
    run_dir = Filename.concat dir "run";
    parallel;
    queue_capacity = queue;
    timeout_seconds = Some 60.0;
    watchdog_seconds = watchdog;
    io_timeout_seconds = io_timeout;
    cache_bytes;
    retries = 1;
    backoff_base = 0.05;
    preflight = true }

let start_daemon cfg =
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.dup2 devnull Unix.stderr;
    let code =
      match Server.run cfg with
      | Ok () -> 0
      | Error (Diag.Journal_locked _) -> 3
      | Error _ -> 1
    in
    Unix._exit code
  | pid -> pid

(* Run [f pid] and make sure the child [pid] is gone afterwards: if it
   still runs when [f] returns or raises, SIGKILL and reap it. A failed
   assertion then cannot leave an orphan holding the test's stdout open,
   which hangs the run. [f] may reap [pid] itself. *)
let reaped pid f =
  Fun.protect
    ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () -> f pid)

(* [f pid] against a daemon forked on [cfg]; see [reaped] *)
let with_daemon cfg f = reaped (start_daemon cfg) f

let unix_ep cfg = Transport.Unix_sock cfg.Server.socket_path

(* test helpers talk straight to the daemon: one attempt, no backoff, so
   a broken daemon fails the test instead of being papered over *)
let no_retry = { Client.default_retry with attempts = 1; timeout = None }

let rpc_ep ep req =
  match
    Client.one_shot ~retry:no_retry ~endpoint:ep (Protocol.request_to_json req)
  with
  | Ok j -> j
  | Error e -> Alcotest.failf "rpc: %s" (Diag.to_string e)

let rpc cfg req = rpc_ep (unix_ep cfg) req

let wait_ready cfg =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let up =
      match
        Client.one_shot ~retry:no_retry ~endpoint:(unix_ep cfg)
          (Protocol.request_to_json Protocol.Health)
      with
      | Ok j -> Json.bool_field "ok" j = Some true
      | Error _ -> false
    in
    if up then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon never became healthy"
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let wait_state cfg id want =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    match Json.str_field "state" (rpc cfg (Protocol.Status id)) with
    | Some st when st = want -> ()
    | _ when Unix.gettimeofday () > deadline ->
      Alcotest.failf "job %s never reached state %s" id want
    | _ ->
      Unix.sleepf 0.05;
      go ()
  in
  go ()

let submit_ok cfg spec =
  let r = rpc cfg (Protocol.Submit spec) in
  match (Json.bool_field "ok" r, Json.str_field "id" r) with
  | Some true, Some id -> (id, r)
  | _ -> Alcotest.failf "submit rejected: %s" (Json.to_string r)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  status

let journal_events cfg =
  List.map fst
    (Journal.scan (Filename.concat cfg.Server.run_dir "journal.jsonl"))

let counter_of stats name =
  match Json.member "counters" stats with
  | Some c -> Option.value (Json.int_field name c) ~default:(-1)
  | None -> -1

(* ---------- client resilience against misbehaving peers ---------- *)

(* a stub "daemon" exhibiting exactly one pathology: accept, read the
   request, then either go silent or tear the response mid-line *)
let stub_server path behavior =
  match Unix.fork () with
  | 0 ->
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 4;
       let c, _ = Unix.accept fd in
       let buf = Bytes.create 4096 in
       ignore (Unix.read c buf 0 4096);
       match behavior with
       | `Silent -> Unix.sleepf 30.0
       | `Torn ->
         ignore (Unix.write_substring c {|{"ok": tru|} 0 10);
         Unix.close c;
         Unix.sleepf 0.5
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.02
  done

let health_json = Protocol.request_to_json Protocol.Health

let test_client_connect_refused () =
  let retry =
    { Client.attempts = 3; backoff_base = 0.01; timeout = Some 0.5; seed = 7 }
  in
  let ep = Transport.Unix_sock "/nonexistent/minflo-nowhere.sock" in
  match Client.one_shot ~retry ~endpoint:ep health_json with
  | Error (Diag.Connect_refused { attempts; _ }) ->
    check int "all attempts spent" 3 attempts
  | Error e -> Alcotest.failf "wrong diagnostic: %s" (Diag.to_string e)
  | Ok _ -> Alcotest.fail "connected to nothing"

let test_client_net_timeout () =
  let dir = fresh_dir "client-timeout" in
  let path = Filename.concat dir "stub.sock" in
  reaped (stub_server path `Silent) (fun _ ->
      wait_for_socket path;
      let retry =
        { Client.attempts = 1; backoff_base = 0.01; timeout = Some 0.3; seed = 0 }
      in
      match Client.one_shot ~retry ~endpoint:(Transport.Unix_sock path) health_json with
      | Error (Diag.Net_timeout { op; seconds; _ }) ->
        check string "timed out waiting for" "response" op;
        check (Alcotest.float 0.001) "deadline reported" 0.3 seconds
      | Error e -> Alcotest.failf "wrong diagnostic: %s" (Diag.to_string e)
      | Ok _ -> Alcotest.fail "a silent peer produced a response");
  rm_rf dir

let test_client_torn_response () =
  let dir = fresh_dir "client-torn" in
  let path = Filename.concat dir "stub.sock" in
  reaped (stub_server path `Torn) (fun _ ->
      wait_for_socket path;
      let retry =
        { Client.attempts = 1; backoff_base = 0.01; timeout = Some 2.0; seed = 0 }
      in
      match Client.one_shot ~retry ~endpoint:(Transport.Unix_sock path) health_json with
      | Error (Diag.Torn_response { bytes; _ }) ->
        check int "incomplete line length" 10 bytes
      | Error e -> Alcotest.failf "wrong diagnostic: %s" (Diag.to_string e)
      | Ok _ -> Alcotest.fail "a torn line parsed as a response");
  rm_rf dir

let test_e2e_submit_result_cache () =
  let dir = fresh_dir "serve-e2e" in
  let cfg = daemon_cfg dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let id, _ = submit_ok cfg (submit_spec "c17") in
    let res = rpc cfg (Protocol.Result { id; wait = true }) in
    check (Alcotest.option string) "terminal state" (Some "done")
      (Json.str_field "state" res);
    (match Json.num_field "area" res with
    | Some a when a > 0.0 -> ()
    | _ -> Alcotest.fail "result carries no positive area");
    check (Alcotest.option Alcotest.bool) "met" (Some true)
      (Json.bool_field "met" res);
    (* idempotent resubmit is answered from the cache, not re-solved *)
    let again = rpc cfg (Protocol.Submit (submit_spec "c17")) in
    check (Alcotest.option Alcotest.bool) "resubmitted flag" (Some true)
      (Json.bool_field "resubmitted" again);
    check (Alcotest.option string) "served from cache" (Some "done")
      (Json.str_field "state" again);
    let stats = rpc cfg (Protocol.Stats) in
    check Alcotest.bool "cache hit counted" true (counter_of stats "cache_hits" >= 1);
    (* unknown ids are a typed error, not a hang *)
    let missing = rpc cfg (Protocol.Status "no-such-id") in
    check (Alcotest.option Alcotest.bool) "unknown id rejected" (Some false)
      (Json.bool_field "ok" missing);
    let bye = rpc cfg Protocol.Drain in
    check (Alcotest.option Alcotest.bool) "drain acknowledged" (Some true)
      (Json.bool_field "ok" bye);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not exit cleanly after drain"));
  let events = journal_events cfg in
  List.iter
    (fun e ->
      if not (List.mem e events) then Alcotest.failf "journal lacks %s" e)
    [ "serve-start"; "serve-accepted"; "job-result"; "serve-drain-start";
      "serve-drain-complete" ];
  rm_rf dir

let test_e2e_overload_cancel_sigterm () =
  let dir = fresh_dir "serve-overload" in
  let cfg = daemon_cfg ~parallel:1 ~queue:1 dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    (* slot: one slow job running, one parked in the admission queue *)
    let a, _ = submit_ok cfg (submit_spec ~sleep:5.0 ~factor:1.30 "c17") in
    wait_state cfg a "running";
    let b, _ = submit_ok cfg (submit_spec ~sleep:5.0 ~factor:1.31 "c17") in
    let r3 = rpc cfg (Protocol.Submit (submit_spec ~sleep:5.0 ~factor:1.32 "c17")) in
    check (Alcotest.option Alcotest.bool) "third submit rejected" (Some false)
      (Json.bool_field "ok" r3);
    check (Alcotest.option string) "typed overload" (Some "overloaded")
      (Json.str_field "code" r3);
    let stats = rpc cfg (Protocol.Stats) in
    check Alcotest.bool "rejection counted" true
      (counter_of stats "rejections" >= 1);
    (* cancel the queued job, then the running one *)
    let cb = rpc cfg (Protocol.Cancel b) in
    check (Alcotest.option Alcotest.bool) "queued cancel ok" (Some true)
      (Json.bool_field "ok" cb);
    let ca = rpc cfg (Protocol.Cancel a) in
    check (Alcotest.option Alcotest.bool) "running cancel ok" (Some true)
      (Json.bool_field "ok" ca);
    let ra = rpc cfg (Protocol.Result { id = a; wait = true }) in
    check (Alcotest.option string) "running job cancelled" (Some "cancelled")
      (Json.str_field "state" ra);
    (* cancelling a terminal job is a typed no-op *)
    let again = rpc cfg (Protocol.Cancel a) in
    check (Alcotest.option string) "already terminal" (Some "already-terminal")
      (Json.str_field "code" again);
    (* SIGTERM drains: nothing is in flight, so the exit is prompt and clean *)
    (match stop_daemon pid with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly on SIGTERM"));
  let events = journal_events cfg in
  check Alcotest.bool "drain journaled" true
    (List.mem "serve-drain-start" events
    && List.mem "serve-drain-complete" events);
  check Alcotest.bool "cancellations journaled" true
    (List.length (List.filter (fun e -> e = "job-cancelled") events) >= 2);
  rm_rf dir

(* fields whose equality defines "the same sizing result" — identity and
   provenance fields ([id] embeds the sleep suffix, [resumed] records the
   recovery itself) are excluded by construction *)
let result_signature res =
  String.concat ";"
    (List.map
       (fun k ->
         let v =
           match Json.member k res with
           | Some v -> Json.to_string v
           | None -> "<missing>"
         in
         k ^ "=" ^ v)
       [ "circuit"; "factor"; "solver"; "area"; "area_ratio"; "cp"; "target";
         "met"; "iterations"; "saving_pct"; "stop" ])

let test_e2e_sigkill_restart_recovers () =
  (* baseline: the same two sizings served by an uninterrupted daemon *)
  let base_dir = fresh_dir "serve-baseline" in
  let base = daemon_cfg base_dir in
  let sig1, sig2 =
    with_daemon base (fun bpid ->
      wait_ready base;
      let b1, _ = submit_ok base (submit_spec ~factor:1.30 "c17") in
      let b2, _ = submit_ok base (submit_spec ~factor:1.35 "c17") in
      let sig1 = result_signature (rpc base (Protocol.Result { id = b1; wait = true })) in
      let sig2 = result_signature (rpc base (Protocol.Result { id = b2; wait = true })) in
      ignore (rpc base Protocol.Drain);
      ignore (Unix.waitpid [] bpid);
      (sig1, sig2))
  in
  rm_rf base_dir;
  (* the crash run: one job mid-flight, one queued, daemon SIGKILLed *)
  let dir = fresh_dir "serve-recover" in
  let cfg = daemon_cfg ~parallel:1 dir in
  let k1, k2 =
    with_daemon cfg (fun pid ->
      wait_ready cfg;
      let k1, _ = submit_ok cfg (submit_spec ~sleep:2.0 ~factor:1.30 "c17") in
      let k2, _ = submit_ok cfg (submit_spec ~sleep:2.0 ~factor:1.35 "c17") in
      wait_state cfg k1 "running";
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      (k1, k2))
  in
  (* restart on the same run directory: the journal replays, both accepted
     jobs are requeued and must reach terminal states *)
  with_daemon cfg (fun pid2 ->
    wait_ready cfg;
    let events = journal_events cfg in
    check Alcotest.bool "recovery journaled" true
      (List.mem "serve-recovered" events);
    let r1 = rpc cfg (Protocol.Result { id = k1; wait = true }) in
    let r2 = rpc cfg (Protocol.Result { id = k2; wait = true }) in
    check (Alcotest.option string) "k1 terminal" (Some "done")
      (Json.str_field "state" r1);
    check (Alcotest.option string) "k2 terminal" (Some "done")
      (Json.str_field "state" r2);
    check string "k1 bit-identical to uninterrupted run" sig1 (result_signature r1);
    check string "k2 bit-identical to uninterrupted run" sig2 (result_signature r2);
    (* a served key resubmitted after recovery is a pure cache hit *)
    let again =
      rpc cfg (Protocol.Submit (submit_spec ~sleep:2.0 ~factor:1.30 "c17"))
    in
    check (Alcotest.option Alcotest.bool) "recovered result is cached" (Some true)
      (Json.bool_field "resubmitted" again);
    let stats = rpc cfg (Protocol.Stats) in
    check Alcotest.bool "cache hit counted after recovery" true
      (counter_of stats "cache_hits" >= 1);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid2 with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "restarted daemon did not drain cleanly"));
  (* audit: every accepted job reached a terminal journal event *)
  let events = journal_events cfg in
  let count e = List.length (List.filter (( = ) e) events) in
  check Alcotest.bool "no accepted job lost" true
    (count "serve-accepted" = 2 && count "job-result" >= 2);
  rm_rf dir

(* the MF201 admission gate: a factor below the circuit's static delay
   floor is answered at once, yet accepted and journaled like any job, so
   a restarted daemon reports the same terminal failure, message and all *)
let test_e2e_infeasible_target_quarantined () =
  let dir = fresh_dir "serve-infeasible" in
  let cfg = daemon_cfg dir in
  let spec = submit_spec ~factor:0.05 "c17" in
  let key = Protocol.job_key spec in
  let error_of j =
    Option.fold ~none:"<missing>" ~some:Json.to_string (Json.member "error" j)
  in
  let r, before =
    with_daemon cfg (fun pid ->
      wait_ready cfg;
      let r = rpc cfg (Protocol.Submit spec) in
      check (Alcotest.option Alcotest.bool) "rejected" (Some false)
        (Json.bool_field "ok" r);
      check (Alcotest.option string) "typed code" (Some "infeasible-target")
        (Json.str_field "code" r);
      check (Alcotest.option string) "carries its id" (Some key)
        (Json.str_field "id" r);
      let job_events () =
        List.filter_map
          (fun (event, j) ->
            if Json.str_field "job" j = Some key then Some event else None)
          (Journal.scan (Filename.concat cfg.Server.run_dir "journal.jsonl"))
      in
      check (Alcotest.list string) "journal: accepted, then quarantined"
        [ "serve-accepted"; "job-infeasible-quarantined" ] (job_events ());
      let before =
        Json.to_string (rpc cfg (Protocol.Result { id = key; wait = false }))
      in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      (r, before))
  in
  with_daemon cfg (fun pid2 ->
    wait_ready cfg;
    check (Alcotest.option string) "status after restart" (Some "failed")
      (Json.str_field "state" (rpc cfg (Protocol.Status key)));
    let res = rpc cfg (Protocol.Result { id = key; wait = false }) in
    check (Alcotest.option string) "result code after restart"
      (Some "infeasible-target") (Json.str_field "code" res);
    check string "same error object after restart" (error_of r) (error_of res);
    check string "same result bytes after restart" before (Json.to_string res);
    ignore (rpc cfg Protocol.Drain);
    ignore (Unix.waitpid [] pid2));
  rm_rf dir

let test_e2e_second_daemon_locked () =
  let dir = fresh_dir "serve-locked" in
  let cfg = daemon_cfg dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    (* same run directory, different socket: must fail fast, typed *)
    let cfg2 =
      { cfg with Server.socket_path = Filename.concat dir "other.sock" }
    in
    with_daemon cfg2 (fun pid2 ->
      match Unix.waitpid [] pid2 with
      | _, Unix.WEXITED 3 -> ()
      | _, Unix.WEXITED 0 -> Alcotest.fail "second daemon ran on a locked run dir"
      | _ -> Alcotest.fail "second daemon died with the wrong diagnostic");
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "first daemon did not drain cleanly"));
  rm_rf dir

let test_e2e_loadgen_mix () =
  let dir = fresh_dir "serve-loadgen" in
  let cfg = daemon_cfg dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let summary =
      match
        Loadgen.run
          { Loadgen.endpoint = unix_ep cfg;
            retry = Client.default_retry;
            circuits = [ "c17" ];
            factor = 1.3;
            solver = `Simplex;
            count = 2;
            sleep_seconds = 0.0;
            lint_bad = 1;
            tiny_budget = 1;
            poll_interval = 0.05;
            deadline_seconds = 60.0 }
      with
      | Ok j -> j
      | Error e -> Alcotest.failf "loadgen: %s" (Diag.to_string e)
    in
    let field k = Option.value (Json.int_field k summary) ~default:(-1) in
    check int "submitted" 4 (field "submitted");
    check int "lint gate rejected the bad circuit" 1 (field "lint_rejected");
    (* the tiny-budget job still terminates (best-feasible or failed), and
       every well-formed job reaches "done" *)
    check Alcotest.bool "all accepted jobs terminal" true
      (field "accepted" = field "done" + field "failed" + field "cancelled");
    check Alcotest.bool "well-formed jobs done" true (field "done" >= 2);
    (* latency percentiles: present, finite, non-negative, ordered *)
    let fl k =
      match Json.num_field k summary with
      | Some v -> v
      | None -> Alcotest.failf "summary lacks %s" k
    in
    let p50 = fl "latency_p50_seconds" and p99 = fl "latency_p99_seconds" in
    check Alcotest.bool "p50 sane" true (Float.is_finite p50 && p50 >= 0.0);
    check Alcotest.bool "p99 >= p50" true (Float.is_finite p99 && p99 >= p50);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"));
  rm_rf dir

(* the actual TCP endpoint (port 0 resolved) from the serve-start line *)
let tcp_endpoint_of_journal cfg =
  let path = Filename.concat cfg.Server.run_dir "journal.jsonl" in
  match
    List.find_map
      (fun (event, j) ->
        if event = "serve-start" then Json.str_field "tcp" j else None)
      (Journal.scan path)
  with
  | None -> Alcotest.fail "serve-start journaled no tcp endpoint"
  | Some s -> (
    match Transport.parse s with
    | Ok ep -> ep
    | Error e -> Alcotest.failf "journaled tcp endpoint %S: %s" s e)

let test_e2e_tcp () =
  let dir = fresh_dir "serve-tcp" in
  let cfg = daemon_cfg ~tcp:"127.0.0.1:0" dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let ep = tcp_endpoint_of_journal cfg in
    (match ep with
    | Transport.Tcp (_, port) ->
      check Alcotest.bool "kernel-assigned port journaled" true (port > 0)
    | Transport.Unix_sock _ -> Alcotest.fail "journaled endpoint is not TCP");
    let id =
      let r = rpc_ep ep (Protocol.Submit (submit_spec "c17")) in
      match (Json.bool_field "ok" r, Json.str_field "id" r) with
      | Some true, Some id -> id
      | _ -> Alcotest.failf "tcp submit rejected: %s" (Json.to_string r)
    in
    let res = rpc_ep ep (Protocol.Result { id; wait = true }) in
    check (Alcotest.option string) "solved over tcp" (Some "done")
      (Json.str_field "state" res);
    (* both transports front the same daemon: the unix socket sees the job *)
    let st = rpc cfg (Protocol.Status id) in
    check (Alcotest.option string) "same state over unix socket" (Some "done")
      (Json.str_field "state" st);
    let bye = rpc_ep ep Protocol.Drain in
    check (Alcotest.option Alcotest.bool) "drain over tcp" (Some true)
      (Json.bool_field "ok" bye);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not exit cleanly after tcp drain"));
  rm_rf dir

let test_e2e_io_deadline_reaps_stalled_peer () =
  let dir = fresh_dir "serve-deadline" in
  let cfg = daemon_cfg ~io_timeout:0.4 dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    (* half a request, then silence: the daemon must reap us, not wait *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX cfg.Server.socket_path);
    ignore (Unix.write_substring fd {|{"op":|} 0 6);
    Transport.set_io_timeout fd 10.0;
    let buf = Bytes.create 16 in
    (match Unix.read fd buf 0 16 with
    | 0 -> ()
    | n -> Alcotest.failf "expected EOF from the reaper, got %d bytes" n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "daemon never reaped the stalled connection");
    Unix.close fd;
    (* the daemon itself is unharmed and still serving *)
    let h = rpc cfg Protocol.Health in
    check (Alcotest.option Alcotest.bool) "daemon healthy after reap" (Some true)
      (Json.bool_field "ok" h);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"));
  rm_rf dir

(* the worker pid the supervisor journaled for [id]'s latest spawn *)
let worker_pid cfg id =
  let path = Filename.concat cfg.Server.run_dir "journal.jsonl" in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let hit =
      List.find_map
        (fun (event, j) ->
          if event = "job-spawn" && Json.str_field "job" j = Some id then
            Json.int_field "pid" j
          else None)
        (Journal.scan path)
    in
    match hit with
    | Some pid -> pid
    | None when Unix.gettimeofday () > deadline ->
      Alcotest.failf "no job-spawn journaled for %s" id
    | None ->
      Unix.sleepf 0.05;
      go ()
  in
  go ()

let test_e2e_watchdog_kills_silent_worker () =
  let dir = fresh_dir "serve-watchdog" in
  let cfg = daemon_cfg ~parallel:1 ~watchdog:0.4 dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let id, _ = submit_ok cfg (submit_spec ~sleep:2.5 "c17") in
    wait_state cfg id "running";
    (* freeze the worker: heartbeats stop, the watchdog must notice *)
    let victim = worker_pid cfg id in
    Unix.kill victim Sys.sigstop;
    let res = rpc cfg (Protocol.Result { id; wait = true }) in
    check (Alcotest.option string) "requeued job still completes" (Some "done")
      (Json.str_field "state" res);
    (match Json.num_field "area" res with
    | Some a when a > 0.0 -> ()
    | _ -> Alcotest.fail "retried result carries no positive area");
    let events = journal_events cfg in
    check Alcotest.bool "watchdog kill journaled" true
      (List.mem "job-watchdog-kill" events);
    check Alcotest.bool "job respawned after the kill" true
      (List.length (List.filter (( = ) "job-spawn") events) >= 2);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"));
  rm_rf dir

let test_e2e_cache_eviction_under_pressure () =
  let dir = fresh_dir "serve-evict" in
  (* a budget smaller than two rendered results: the third job must evict *)
  let cfg = daemon_cfg ~cache_bytes:400 dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let ids =
      List.map
        (fun factor ->
          let id, _ = submit_ok cfg (submit_spec ~factor "c17") in
          let r = rpc cfg (Protocol.Result { id; wait = true }) in
          check (Alcotest.option string) "job done" (Some "done")
            (Json.str_field "state" r);
          id)
        [ 1.30; 1.31; 1.32 ]
    in
    let stats = rpc cfg Protocol.Stats in
    (match Json.member "cache" stats with
    | None -> Alcotest.fail "stats carries no cache block"
    | Some c ->
      let get k = Option.value (Json.int_field k c) ~default:(-1) in
      check Alcotest.bool "evictions under pressure" true (get "evictions" >= 1);
      check Alcotest.bool "resident bytes within budget" true
        (get "bytes" >= 0 && get "bytes" <= get "budget");
      check int "budget echoed" 400 (get "budget"));
    check Alcotest.bool "evictions perf counter ticked" true
      (counter_of stats "evictions" >= 1);
    (* evicted results are re-read from the journal, not lost: every id —
       at most one can still be resident — answers done, and a resubmit of
       the first key is still the idempotent cache path *)
    List.iter
      (fun id ->
        let r = rpc cfg (Protocol.Result { id; wait = false }) in
        check (Alcotest.option string) "evicted result recovered" (Some "done")
          (Json.str_field "state" r);
        match Json.num_field "area" r with
        | Some a when a > 0.0 -> ()
        | _ -> Alcotest.fail "recovered result carries no positive area")
      ids;
    let again = rpc cfg (Protocol.Submit (submit_spec ~factor:1.30 "c17")) in
    check (Alcotest.option Alcotest.bool) "resubmit of evicted key" (Some true)
      (Json.bool_field "resubmitted" again);
    check (Alcotest.option string) "answered terminal" (Some "done")
      (Json.str_field "state" again);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"));
  rm_rf dir

let test_e2e_drain_edges () =
  (* drain with zero in-flight jobs: prompt, clean, fully journaled *)
  let dir = fresh_dir "serve-drain-idle" in
  let cfg = daemon_cfg dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let bye = rpc cfg Protocol.Drain in
    check (Alcotest.option Alcotest.bool) "idle drain acknowledged" (Some true)
      (Json.bool_field "ok" bye);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "idle daemon did not drain cleanly"));
  let events = journal_events cfg in
  check Alcotest.bool "idle drain journaled" true
    (List.mem "serve-drain-start" events
    && List.mem "serve-drain-complete" events);
  rm_rf dir;
  (* submit during drain with a full queue: the typed answer must be
     [draining], not [overloaded] — drain outranks the queue bound *)
  let dir = fresh_dir "serve-drain-full" in
  let cfg = daemon_cfg ~parallel:1 ~queue:1 dir in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let a, _ = submit_ok cfg (submit_spec ~sleep:1.0 ~factor:1.30 "c17") in
    wait_state cfg a "running";
    let _b, _ = submit_ok cfg (submit_spec ~sleep:1.0 ~factor:1.31 "c17") in
    ignore (rpc cfg Protocol.Drain);
    let r3 =
      rpc cfg (Protocol.Submit (submit_spec ~sleep:1.0 ~factor:1.32 "c17"))
    in
    check (Alcotest.option Alcotest.bool) "submit during drain rejected"
      (Some false) (Json.bool_field "ok" r3);
    check (Alcotest.option string) "draining outranks overloaded"
      (Some "draining") (Json.str_field "code" r3);
    (* both accepted jobs still finish before the daemon exits *)
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "draining daemon did not exit cleanly"));
  let events = journal_events cfg in
  check Alcotest.bool "accepted jobs resolved during drain" true
    (List.length (List.filter (( = ) "job-result") events) >= 2);
  rm_rf dir

(* a socket the daemon cannot bind (its directory does not exist) is a
   typed [Io_error] naming the socket, not an escaping [Unix_error] *)
let test_e2e_unbindable_socket () =
  let dir = fresh_dir "serve-nosockdir" in
  let sock = Filename.concat (Filename.concat dir "missing") "x.sock" in
  let cfg = { (daemon_cfg dir) with Server.socket_path = sock } in
  (match Server.run cfg with
  | Error (Diag.Io_error { file; _ }) -> check string "names the socket" sock file
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "daemon ran without a socket");
  rm_rf dir

(* directories the daemon cannot make fail typed: a run dir under a
   regular file is an [Error] from [Server.run], not an escaping ENOTDIR;
   a checkpoint directory that cannot be made rejects a submit with
   [storage-error], and a recovered job still runs (without resume
   points), instead of either killing the daemon *)
let test_e2e_unmakeable_dirs () =
  let dir = fresh_dir "serve-enotdir" in
  let blocker = Filename.concat dir "blocker" in
  close_out (open_out blocker);
  let cfg =
    { (daemon_cfg dir) with Server.run_dir = Filename.concat blocker "run" }
  in
  (match Server.run cfg with
  | Error (Diag.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Diag.to_string e)
  | Ok () -> Alcotest.fail "daemon ran under a regular file");
  let cfg = daemon_cfg dir in
  Unix.mkdir cfg.Server.run_dir 0o755;
  close_out (open_out (Filename.concat cfg.Server.run_dir "checkpoints"));
  (* a job accepted by a previous life, for recovery to requeue *)
  let recovered = submit_spec ~factor:1.31 "c17" in
  let key = Protocol.job_key recovered in
  (match
     Journal.open_append (Filename.concat cfg.Server.run_dir "journal.jsonl")
   with
  | Error e -> Alcotest.failf "journal: %s" (Diag.to_string e)
  | Ok jr ->
    Journal.event jr ~job:key
      ~fields:
        [ ("circuit", Json.Str "c17");
          ("factor", Json.Num 1.31);
          ("solver", Json.Str "simplex") ]
      "serve-accepted";
    Journal.close jr);
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    let r = rpc cfg (Protocol.Submit (submit_spec "c17")) in
    check (Alcotest.option string) "typed rejection" (Some "storage-error")
      (Json.str_field "code" r);
    wait_state cfg key "done";
    let job_events =
      List.filter_map
        (fun (event, j) ->
          if Json.str_field "job" j = Some key then Some event else None)
        (Journal.scan (Filename.concat cfg.Server.run_dir "journal.jsonl"))
    in
    (* recovery says why before the job's first spawn *)
    check Alcotest.(list string) "recovered job requeued after a typed event"
      [ "serve-accepted"; "job-checkpoint-failed"; "job-spawn" ]
      (List.filteri (fun i _ -> i < 3) job_events);
    ignore (rpc cfg Protocol.Drain);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"));
  rm_rf dir

(* the acceptance scenario: a loaded daemon behind a fault-injecting
   proxy, one worker SIGKILLed mid-load — every accepted job must still
   resolve, bit-identical to the fault-free baseline *)
let test_e2e_chaos_bit_identical () =
  let specs ~slow =
    (* the first job sleeps long enough to be murdered mid-flight; sleeps
       are identity-only (the key suffix), never part of the signature *)
    List.map
      (fun (factor, s) ->
        submit_spec ~sleep:(if slow then s else 0.0) ~factor "c17")
      [ (1.30, 2.0); (1.31, 0.3); (1.32, 0.3); (1.33, 0.3) ]
  in
  (* baseline: the same sizings from an unmolested daemon *)
  let base_dir = fresh_dir "chaos-base" in
  let base = daemon_cfg base_dir in
  let sigs_base =
    with_daemon base (fun bpid ->
      wait_ready base;
      let sigs_base =
        List.map
          (fun spec ->
            let id, _ = submit_ok base spec in
            result_signature (rpc base (Protocol.Result { id; wait = true })))
          (specs ~slow:false)
      in
      ignore (rpc base Protocol.Drain);
      ignore (Unix.waitpid [] bpid);
      sigs_base)
  in
  rm_rf base_dir;
  (* the chaos run *)
  let dir = fresh_dir "chaos-run" in
  let cfg = daemon_cfg ~parallel:2 dir in
  let proxy_sock = Filename.concat dir "proxy.sock" in
  let report = Filename.concat dir "chaos-report.json" in
  let arm ?count site = { Chaosproxy.site; count; prob = None } in
  let pcfg =
    { Chaosproxy.default_config with
      Chaosproxy.listen = Transport.Unix_sock proxy_sock;
      upstream = unix_ep cfg;
      faults =
        [ arm ~count:1 "net.accept-drop";
          arm ~count:1 "net.read-stall";
          arm ~count:1 "net.torn-write";
          arm ~count:2 "net.delayed-response" ];
      seed = 42;
      delay_seconds = 0.1;
      report_path = Some report }
  in
  let start_proxy () =
    match Unix.fork () with
    | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.dup2 devnull Unix.stderr;
      ignore (Chaosproxy.run ~config:pcfg ());
      Unix._exit 0
    | p -> p
  in
  with_daemon cfg (fun pid ->
    wait_ready cfg;
    reaped (start_proxy ()) (fun ppid ->
      wait_for_socket proxy_sock;
      let retry =
        { Client.attempts = 8; backoff_base = 0.05; timeout = Some 10.0; seed = 1 }
      in
      let s = Client.session ~retry (Transport.Unix_sock proxy_sock) in
      let chaos_rpc req =
        match Client.rpc s (Protocol.request_to_json req) with
        | Ok j -> j
        | Error e -> Alcotest.failf "chaos rpc: %s" (Diag.to_string e)
      in
      let ids =
        List.map
          (fun spec ->
            let r = chaos_rpc (Protocol.Submit spec) in
            match (Json.bool_field "ok" r, Json.str_field "id" r) with
            | Some true, Some id -> id
            | _ -> Alcotest.failf "chaos submit rejected: %s" (Json.to_string r))
          (specs ~slow:true)
      in
      (* murder the worker on the slow job, mid-load *)
      Unix.kill (worker_pid cfg (List.hd ids)) Sys.sigkill;
      let sigs_chaos =
        List.map
          (fun id ->
            let r = chaos_rpc (Protocol.Result { id; wait = true }) in
            check (Alcotest.option string) "chaos job terminal" (Some "done")
              (Json.str_field "state" r);
            result_signature r)
          ids
      in
      Client.close_session s;
      List.iter2
        (fun a b -> check string "bit-identical under chaos" a b)
        sigs_base sigs_chaos;
      (* audit: nothing accepted was lost, and the kill forced a respawn *)
      let events = journal_events cfg in
      let count e = List.length (List.filter (( = ) e) events) in
      check Alcotest.bool "every accepted job resolved" true
        (count "serve-accepted" = 4 && count "job-result" >= 4);
      check Alcotest.bool "killed worker respawned" true (count "job-spawn" >= 5);
      ignore (rpc cfg Protocol.Drain);
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "chaos daemon did not drain cleanly");
      (* the proxy's report proves the faults actually fired *)
      (try Unix.kill ppid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] ppid)));
  (match
     Json.parse (In_channel.with_open_text report In_channel.input_all)
   with
  | Ok rep ->
    check (Alcotest.option int) "accept-drop fired once" (Some 1)
      (Json.int_field "net.accept-drop" rep);
    check Alcotest.bool "torn-write fired" true
      (Option.value (Json.int_field "net.torn-write" rep) ~default:0 >= 1)
  | Error e -> Alcotest.failf "chaos report unreadable: %s" e);
  rm_rf dir

(* CI asserts on the fired-count report, so a report that cannot be
   written must fail the proxy typed rather than exit 0 *)
let test_chaos_report_write_fails_typed () =
  let dir = fresh_dir "chaos-report" in
  let proxy_sock = Filename.concat dir "proxy.sock" in
  let pcfg =
    { Chaosproxy.default_config with
      Chaosproxy.listen = Transport.Unix_sock proxy_sock;
      upstream = Transport.Unix_sock (Filename.concat dir "no-daemon.sock");
      report_path = Some (Filename.concat dir "missing/report.json") }
  in
  let start_proxy () =
    match Unix.fork () with
    | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix._exit
        (match Chaosproxy.run ~config:pcfg () with
        | Error (Diag.Io_error _) -> 2
        | Error _ -> 3
        | Ok () -> 0)
    | p -> p
  in
  reaped (start_proxy ()) (fun ppid ->
      wait_for_socket proxy_sock;
      (* with no upstream the proxy drops each client it accepts; the EOF
         proves its loop, and so its SIGTERM handler, is live *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect probe (Unix.ADDR_UNIX proxy_sock);
      ignore (Unix.read probe (Bytes.create 1) 0 1);
      Unix.close probe;
      Unix.kill ppid Sys.sigterm;
      match Unix.waitpid [] ppid with
      | _, Unix.WEXITED code -> check int "typed Io_error from run" 2 code
      | _ -> Alcotest.fail "proxy killed instead of exiting");
  rm_rf dir

let () =
  Alcotest.run "serve"
    [ ( "json",
        [ Alcotest.test_case "parse/print round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers keep their bits" `Quick
            test_json_number_bits ] );
      ( "protocol",
        [ Alcotest.test_case "request round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
          Alcotest.test_case "job identity" `Quick test_protocol_job_key;
          Alcotest.test_case "submit codec round trip, bit-exact" `Quick
            test_submit_codec_round_trip;
          Alcotest.test_case "submit codec reads journal lines" `Quick
            test_submit_codec_reads_old_lines ] );
      ( "queue",
        [ Alcotest.test_case "bounded fifo with high-water mark" `Quick
            test_bounded_queue ] );
      ( "transport",
        [ Alcotest.test_case "endpoint parsing" `Quick test_transport_parse ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction under a byte budget" `Quick
            test_result_cache_lru ] );
      ( "client",
        [ Alcotest.test_case "connect refused after bounded retries" `Quick
            test_client_connect_refused;
          Alcotest.test_case "silent peer is a typed timeout" `Quick
            test_client_net_timeout;
          Alcotest.test_case "torn line is a typed error, not a crash" `Quick
            test_client_torn_response ] );
      ( "daemon",
        [ Alcotest.test_case "submit, result, cache, drain" `Quick
            test_e2e_submit_result_cache;
          Alcotest.test_case "overload, cancel, sigterm drain" `Quick
            test_e2e_overload_cancel_sigterm;
          Alcotest.test_case "sigkill + restart recovers bit-identically" `Slow
            test_e2e_sigkill_restart_recovers;
          Alcotest.test_case "infeasible target quarantined at admission"
            `Quick test_e2e_infeasible_target_quarantined;
          Alcotest.test_case "second daemon is locked out" `Quick
            test_e2e_second_daemon_locked;
          Alcotest.test_case "loadgen mix reaches terminal states" `Quick
            test_e2e_loadgen_mix;
          Alcotest.test_case "tcp transport fronts the same daemon" `Quick
            test_e2e_tcp;
          Alcotest.test_case "io deadline reaps a stalled peer" `Quick
            test_e2e_io_deadline_reaps_stalled_peer;
          Alcotest.test_case "watchdog kills a silent worker" `Slow
            test_e2e_watchdog_kills_silent_worker;
          Alcotest.test_case "cache eviction under memory pressure" `Quick
            test_e2e_cache_eviction_under_pressure;
          Alcotest.test_case "unmakeable directories fail typed" `Quick
            test_e2e_unmakeable_dirs;
          Alcotest.test_case "unbindable socket fails typed" `Quick
            test_e2e_unbindable_socket;
          Alcotest.test_case "drain edges: idle exit, full-queue submit" `Quick
            test_e2e_drain_edges;
          Alcotest.test_case "chaos run is bit-identical to fault-free" `Slow
            test_e2e_chaos_bit_identical;
          Alcotest.test_case "chaos report write fails typed" `Quick
            test_chaos_report_write_fails_typed ] ) ]
