(* The simulation service: HTTP codec unit tests from strings, then
   live-server tests against an ephemeral port — routing, the
   structured error paths (400/404/405/413/503/408), the warm
   trace-cache contract on repeated /run requests, graceful drain, and
   the observability surface: /version, Prometheus /metrics,
   X-Request-Id propagation, and the /trace span invariants for a
   cold and a warm request. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

module Http = Rc_serve.Http
module Server = Rc_serve.Server
module E = Rc_harness.Experiments

(* --- codec ------------------------------------------------------------- *)

let parse ?limits s = Http.read_request ?limits (Http.reader_of_string s)

let test_http_parse () =
  match
    parse
      "POST /run?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody"
  with
  | Error _ -> Alcotest.fail "valid request rejected"
  | Ok req ->
      check_str "method" "POST" req.Http.meth;
      check_str "query stripped" "/run" req.Http.path;
      check_str "body" "body" req.Http.body;
      check_bool "headers lowercased" true (Http.header req "host" = Some "x")

let test_http_malformed () =
  (match parse "NOT-HTTP\r\n\r\n" with
  | Error (Http.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage request line accepted");
  match parse "POST /run HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Error (Http.Malformed _) -> ()
  | _ -> Alcotest.fail "POST without Content-Length accepted"

let test_http_limits () =
  let limits = { Http.default_limits with Http.max_body = 8 } in
  (match
     parse ~limits
       "POST /run HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"
   with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized body accepted");
  let limits = { Http.default_limits with Http.max_headers = 2 } in
  match
    parse ~limits "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"
  with
  | Error (Http.Header_overflow _) -> ()
  | _ -> Alcotest.fail "header flood accepted"

let test_http_closed () =
  match parse "POST /run HTTP/1.1\r\nContent-Le" with
  | Error Http.Closed -> ()
  | _ -> Alcotest.fail "mid-request EOF not reported as Closed"

(* Request-smuggling vectors: this server never implements chunked
   bodies, so any Transfer-Encoding must be refused outright (501),
   and a request bearing two Content-Length headers is ambiguous about
   where its body ends — reject it rather than pick one (400). *)
let test_http_smuggling () =
  (match
     parse
       "POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\
        Content-Length: 4\r\n\r\nbody"
   with
  | Error (Http.Not_implemented _) -> ()
  | _ -> Alcotest.fail "Transfer-Encoding + Content-Length accepted");
  (match parse "POST /run HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n" with
  | Error (Http.Not_implemented _) -> ()
  | _ -> Alcotest.fail "bare Transfer-Encoding accepted");
  (match
     parse
       "POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 10\r\n\r\n\
        body"
   with
  | Error (Http.Malformed _) -> ()
  | _ -> Alcotest.fail "conflicting Content-Lengths accepted");
  (* ...even when the copies agree: still ambiguous per RFC 9110. *)
  match
    parse
      "POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody"
  with
  | Error (Http.Malformed _) -> ()
  | _ -> Alcotest.fail "duplicate Content-Lengths accepted"

(* --- live server harness ----------------------------------------------- *)

(* One request per connection, Connection: close: read to EOF. *)
let request ~port ~meth ~path ?(headers = []) ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: localhost\r\n%sContent-Length: %d\r\n\r\n%s" meth
      path extra (String.length body) body
  in
  let rec send off =
    if off < String.length req then
      send (off + Unix.write_substring fd req off (String.length req - off))
  in
  send 0;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        recv ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
  in
  recv ();
  Unix.close fd;
  let raw = Buffer.contents buf in
  let status = int_of_string (String.sub raw 9 3) in
  let body =
    let rec scan i =
      if i + 3 >= String.length raw then ""
      else if
        raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
        && raw.[i + 3] = '\n'
      then String.sub raw (i + 4) (String.length raw - i - 4)
      else scan (i + 1)
    in
    scan 0
  in
  (status, raw, body)

(* Ephemeral port, Replay engine (the `rcc serve` default), jobs 2. *)
let with_server ?(config = Server.default_config) ?(jobs = 2) f =
  let ctx = E.create ~scale:1 ~jobs ~engine:E.Replay () in
  let srv = Server.create ~config:{ config with Server.port = 0 } ctx in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d;
      E.shutdown ctx)
    (fun () -> f srv (Server.port srv))

let json_of body =
  match Rc_obs.Json.of_string body with
  | Ok j -> j
  | Error m -> Alcotest.fail ("response is not JSON: " ^ m)

let error_detail body =
  match Rc_obs.Json.member "error" (json_of body) with
  | Some e -> (
      match Rc_obs.Json.member "detail" e with
      | Some (Rc_obs.Json.Str d) -> d
      | _ -> Alcotest.fail "error body lacks a detail string")
  | None -> Alcotest.fail ("not a structured error body: " ^ body)

(* --- routing and error paths ------------------------------------------- *)

let test_routing () =
  with_server (fun _srv port ->
      let st, _, body = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "healthz" 200 st;
      (match Rc_obs.Json.member "status" (json_of body) with
      | Some (Rc_obs.Json.Str "ok") -> ()
      | _ -> Alcotest.fail "healthz status is not ok");
      (match Rc_obs.Json.member "inflight" (json_of body) with
      | Some (Rc_obs.Json.Int n) -> check_bool "inflight >= 0" true (n >= 0)
      | _ -> Alcotest.fail "healthz lacks inflight");
      (match Rc_obs.Json.member "uptime_s" (json_of body) with
      | Some (Rc_obs.Json.Float u) -> check_bool "uptime >= 0" true (u >= 0.0)
      | _ -> Alcotest.fail "healthz lacks uptime_s");
      let st, _, _ = request ~port ~meth:"GET" ~path:"/nope" () in
      check "404 for unknown path" 404 st;
      let st, _, _ = request ~port ~meth:"GET" ~path:"/run" () in
      check "405 for GET /run" 405 st;
      let st, _, body = request ~port ~meth:"POST" ~path:"/run" ~body:"{" () in
      check "400 for malformed JSON" 400 st;
      check_bool "malformed detail" true
        (String.length (error_detail body) > 0);
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/run"
          ~body:{|{"bench":"cmp","mystery":1}|} ()
      in
      check "400 for unknown field" 400 st;
      ignore (error_detail body);
      let st, _, _ =
        request ~port ~meth:"POST" ~path:"/run" ~body:{|{"bench":"nope"}|} ()
      in
      check "400 for unknown bench" 400 st)

let test_too_large () =
  let config = { Server.default_config with Server.max_body = 64 } in
  with_server ~config (fun _srv port ->
      let body = String.make 100 ' ' in
      let st, _, _ = request ~port ~meth:"POST" ~path:"/run" ~body () in
      check "413 beyond max_body" 413 st)

let test_shed () =
  (* max_inflight 0: every request is shed with 503 + Retry-After. *)
  let config = { Server.default_config with Server.max_inflight = 0 } in
  with_server ~config (fun _srv port ->
      let st, raw, body = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "503 when saturated" 503 st;
      check_bool "Retry-After present" true
        (let lower = String.lowercase_ascii raw in
         let n = "retry-after:" in
         let rec scan i =
           i + String.length n <= String.length lower
           && (String.sub lower i (String.length n) = n || scan (i + 1))
         in
         scan 0);
      ignore (error_detail body))

let test_deadline () =
  (* Send only half a request: the receive timeout must answer 408
     instead of pinning the worker forever. *)
  let config = { Server.default_config with Server.deadline_s = 0.2 } in
  with_server ~config (fun _srv port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd "POST /run HT" 0 12);
      let buf = Bytes.create 4096 in
      let got = Buffer.create 256 in
      (try
         let rec recv () =
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> ()
           | n ->
               Buffer.add_subbytes got buf 0 n;
               recv ()
         in
         recv ()
       with Unix.Unix_error _ -> ());
      Unix.close fd;
      let raw = Buffer.contents got in
      check_bool "408 response" true
        (String.length raw >= 12 && String.sub raw 9 3 = "408"))

(* --- the cache-reuse contract ------------------------------------------ *)

let test_warm_cache () =
  with_server (fun _srv port ->
      let body = {|{"bench":"cmp","rc":true,"core_int":8}|} in
      let st1, _, b1 = request ~port ~meth:"POST" ~path:"/run" ~body () in
      let st2, _, b2 = request ~port ~meth:"POST" ~path:"/run" ~body () in
      check "first /run" 200 st1;
      check "second /run" 200 st2;
      let engine b =
        match Rc_obs.Json.member "engine" (json_of b) with
        | Some (Rc_obs.Json.Str e) -> e
        | _ -> Alcotest.fail "no engine field"
      in
      check_str "first executes" "execute" (engine b1);
      check_str "second replays" "replay" (engine b2);
      let machine b =
        (* Only the machine counters: the surrounding result carries
           per-pass wall-clock, the one nondeterministic field. *)
        match Rc_obs.Json.member "result" (json_of b) with
        | Some r -> (
            match Rc_obs.Json.member "machine" r with
            | Some m -> Rc_obs.Json.to_string m
            | None -> Alcotest.fail "no machine object")
        | None -> Alcotest.fail "no result object"
      in
      check_str "replay is bit-identical" (machine b1) (machine b2);
      let st, _, mbody = request ~port ~meth:"GET" ~path:"/metrics.json" () in
      check "metrics.json" 200 st;
      let hits =
        match Rc_obs.Json.member "experiments" (json_of mbody) with
        | Some e -> (
            match Rc_obs.Json.member "trace_cache" e with
            | Some c -> (
                match Rc_obs.Json.member "hits" c with
                | Some (Rc_obs.Json.Int n) -> n
                | _ -> Alcotest.fail "no hits counter")
            | None -> Alcotest.fail "no trace_cache")
        | None -> Alcotest.fail "no experiments"
      in
      check_bool "at least one trace-cache hit" true (hits >= 1))

let test_figures_endpoint () =
  with_server (fun _srv port ->
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/figures" ~body:{|{"ids":["table1"]}|}
          ()
      in
      check "figures" 200 st;
      (match Rc_obs.Json.member "tables" (json_of body) with
      | Some (Rc_obs.Json.List [ _ ]) -> ()
      | _ -> Alcotest.fail "expected one table");
      let st, _, _ =
        request ~port ~meth:"POST" ~path:"/figures" ~body:{|{"ids":["nope"]}|}
          ()
      in
      check "400 for unknown figure id" 400 st)

(* --- observability ------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A machine parameter below 1 would spin the scheduler forever on a
   pool domain: it must be refused up front with a 400 naming the
   field, leaving the server free to answer. *)
let test_nonpositive_machine () =
  with_server (fun _srv port ->
      List.iter
        (fun (field, v) ->
          let st, _, body =
            request ~port ~meth:"POST" ~path:"/run"
              ~body:(Printf.sprintf {|{"bench":"cmp","%s":%d}|} field v)
              ()
          in
          check (Fmt.str "400 for %s %d" field v) 400 st;
          let detail = error_detail body in
          check_bool
            (Fmt.str "detail %S names %s" detail field)
            true
            (contains ~needle:field detail))
        [
          ("mem_channels", 0);
          ("mem_channels", -1);
          ("issue", 0);
          ("issue", -1);
          ("load", 0);
          ("load", 65);
          ("connect", 2);
        ];
      let st, _, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "healthz still answers" 200 st)

let test_core_count_bounds () =
  with_server (fun _srv port ->
      List.iter
        (fun (field, v) ->
          let st, _, body =
            request ~port ~meth:"POST" ~path:"/run"
              ~body:(Printf.sprintf {|{"bench":"cmp","%s":%d}|} field v)
              ()
          in
          check (Fmt.str "400 for %s %d" field v) 400 st;
          let detail = error_detail body in
          check_bool
            (Fmt.str "detail %S names %s" detail field)
            true
            (contains ~needle:field detail))
        [
          ("core_int", 5);
          ("core_int", 2049);
          ("core_int", 1_000_000);
          ("core_float", 3);
        ];
      let st, _, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "healthz still answers" 200 st)

let test_version () =
  with_server (fun _srv port ->
      let st, _, body = request ~port ~meth:"GET" ~path:"/version" () in
      check "version" 200 st;
      (match Rc_obs.Json.member "version" (json_of body) with
      | Some (Rc_obs.Json.Str v) -> check_str "version string" Server.version v
      | _ -> Alcotest.fail "no version string");
      match Rc_obs.Json.member "ocaml" (json_of body) with
      | Some (Rc_obs.Json.Str v) -> check_str "ocaml" Sys.ocaml_version v
      | _ -> Alcotest.fail "no ocaml version")

let test_prometheus () =
  with_server (fun _srv port ->
      let body = {|{"bench":"cmp","rc":true,"core_int":8}|} in
      let st, _, _ = request ~port ~meth:"POST" ~path:"/run" ~body () in
      check "/run" 200 st;
      let st, raw, prom = request ~port ~meth:"GET" ~path:"/metrics" () in
      check "metrics" 200 st;
      check_bool "prom content type" true
        (contains
           ~needle:"text/plain; version=0.0.4"
           (String.lowercase_ascii raw));
      List.iter
        (fun needle -> check_bool needle true (contains ~needle prom))
        [
          "# TYPE rcc_requests_total counter";
          {|rcc_requests_total{endpoint="/run",status="200"} 1|};
          "# TYPE rcc_request_duration_seconds histogram";
          {|rcc_request_duration_seconds_bucket{endpoint="/run",le="+Inf"} 1|};
          {|rcc_request_duration_seconds_count{endpoint="/run"} 1|};
          "# TYPE rcc_inflight gauge";
          "# TYPE rcc_trace_cache_hits_total counter";
          "# TYPE rcc_uptime_seconds gauge";
        ];
      check_bool "ends with newline" true
        (prom <> "" && prom.[String.length prom - 1] = '\n'))

let test_request_id () =
  with_server (fun _srv port ->
      (* Client-supplied ids are echoed... *)
      let _, raw, _ =
        request ~port ~meth:"GET" ~path:"/healthz"
          ~headers:[ ("X-Request-Id", "my-req-17") ]
          ()
      in
      check_bool "client id echoed" true
        (contains ~needle:"X-Request-Id: my-req-17" raw);
      (* ...and absent ones are assigned. *)
      let _, raw, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check_bool "server id assigned" true (contains ~needle:"X-Request-Id: r" raw);
      (* A client id with control bytes must never be echoed: a bare CR
         survives header parsing, and reflecting it would hand the
         client a header-splitting / log-injection primitive.  The
         server drops it and assigns its own id instead. *)
      let hostile = "evil\rX-Injected: 1" in
      let _, raw, _ =
        request ~port ~meth:"GET" ~path:"/healthz"
          ~headers:[ ("X-Request-Id", hostile) ]
          ()
      in
      check_bool "hostile id not reflected" false (contains ~needle:hostile raw);
      check_bool "hostile id not echoed in part" false
        (contains ~needle:"X-Injected" raw);
      check_bool "replacement id assigned" true
        (contains ~needle:"X-Request-Id: r" raw);
      (* Oversized ids are dropped too. *)
      let _, raw, _ =
        request ~port ~meth:"GET" ~path:"/healthz"
          ~headers:[ ("X-Request-Id", String.make 300 'a') ]
          ()
      in
      check_bool "oversized id not reflected" false
        (contains ~needle:(String.make 129 'a') raw))

(* --- user-submitted kernels -------------------------------------------- *)

(* The same document the committed corpus fixture carries; its id is
   pinned there by the `corpus spec fixtures admissible` check test. *)
let spec_doc =
  {|{"seed":0,"slots":8,"funcs":[{"arity":0,"nvars":2,"nfvars":1,"body":[["set",0,["const","1"]],["loop",1,6,[["set",0,["bin","add",["var",0],["var",1]]],["store",1,["var",0]],["load",1,1]]],["emit",["var",0]]]}]}|}

let str_member name j =
  match Rc_obs.Json.member name j with
  | Some (Rc_obs.Json.Str s) -> s
  | _ -> Alcotest.failf "no %S string field" name

(* The front door end to end: POST /compile admits the spec and hands
   back a kernel id; /run accepts that id, and the second run comes
   from the trace cache; /figures sweeps the kernel; the admission
   counters show up on /metrics. *)
let test_spec_compile_run () =
  with_server (fun _srv port ->
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/compile" ~body:spec_doc ()
      in
      check "compile" 200 st;
      let j = json_of body in
      let id = str_member "kernel" j in
      check_str "deterministic kernel id" "k3dcde33718c5" id;
      check_str "bench name" ("spec:" ^ id) (str_member "bench" j);
      (* Resubmission is idempotent: same document, same id. *)
      let st, _, body2 =
        request ~port ~meth:"POST" ~path:"/compile" ~body:spec_doc ()
      in
      check "recompile" 200 st;
      check_str "id stable across resubmission" id
        (str_member "kernel" (json_of body2));
      (* Run it by id, twice: execute then replay. *)
      let run_body = Printf.sprintf {|{"kernel":%S}|} id in
      let st1, _, b1 =
        request ~port ~meth:"POST" ~path:"/run" ~body:run_body ()
      in
      let st2, _, b2 =
        request ~port ~meth:"POST" ~path:"/run" ~body:run_body ()
      in
      check "first run by id" 200 st1;
      check "second run by id" 200 st2;
      check_str "first executes" "execute" (str_member "engine" (json_of b1));
      check_str "second replays" "replay" (str_member "engine" (json_of b2));
      (* Inline specs work without a prior /compile... *)
      let st, _, b3 =
        request ~port ~meth:"POST" ~path:"/run"
          ~body:(Printf.sprintf {|{"spec":%s}|} spec_doc)
          ()
      in
      check "inline spec run" 200 st;
      check_str "inline spec hits the same cache" "replay"
        (str_member "engine" (json_of b3));
      (* ...and the kernel sweeps like a built-in bench. *)
      let st, _, fig =
        request ~port ~meth:"POST" ~path:"/figures" ~body:run_body ()
      in
      check "figures for kernel" 200 st;
      (match Rc_obs.Json.member "tables" (json_of fig) with
      | Some (Rc_obs.Json.List (_ :: _ :: _)) -> ()
      | _ -> Alcotest.fail "expected kernel-speedup and kernel-size tables");
      (* Admission shows up in the metrics. *)
      let st, _, prom = request ~port ~meth:"GET" ~path:"/metrics" () in
      check "metrics" 200 st;
      check_bool "admitted counter" true
        (contains ~needle:{|rcc_spec_submissions_total{outcome="admitted"}|}
           prom);
      check_bool "kernel gauge" true (contains ~needle:"rcc_spec_kernels" prom))

(* The oracle gate: an agreeing kernel reports its verdict inline. *)
let test_spec_oracle () =
  with_server (fun _srv port ->
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/run"
          ~body:(Printf.sprintf {|{"spec":%s,"oracle":256}|} spec_doc)
          ()
      in
      check "oracle-gated run" 200 st;
      match Rc_obs.Json.member "oracle" (json_of body) with
      | Some v -> (
          match Rc_obs.Json.member "verdict" v with
          | Some (Rc_obs.Json.Str "agree") -> ()
          | _ -> Alcotest.fail "oracle verdict is not agreement")
      | None -> Alcotest.fail "no oracle verdict in response")

(* The rejection ladder: unknown id 404, malformed 400 (with the JSON
   path), over-budget 413, smuggling vector 501 — all structured
   errors, never a dropped connection. *)
let test_spec_rejections () =
  with_server (fun _srv port ->
      let st, _, _ =
        request ~port ~meth:"POST" ~path:"/run"
          ~body:{|{"kernel":"k000000000000"}|} ()
      in
      check "unknown kernel" 404 st;
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/compile" ~body:{|{"funcs":3}|} ()
      in
      check "malformed spec" 400 st;
      check_bool "error names the JSON path" true
        (contains ~needle:"$.funcs" (error_detail body));
      let st, _, _ =
        request ~port ~meth:"POST" ~path:"/compile" ~body:"{not json" ()
      in
      check "unparsable body" 400 st;
      let st, _, body =
        request ~port ~meth:"POST" ~path:"/compile"
          ~body:
            {|{"seed":0,"slots":100000,"funcs":[{"arity":0,"nvars":1,"nfvars":1,"body":[["emit",["var",0]]]}]}|}
          ()
      in
      check "over-budget spec" 413 st;
      check_bool "limit named" true
        (contains ~needle:"limit" (error_detail body));
      let st, _, _ =
        request ~port ~meth:"POST" ~path:"/run"
          ~headers:[ ("Transfer-Encoding", "chunked") ]
          ~body:spec_doc ()
      in
      check "Transfer-Encoding refused" 501 st;
      (* The server is still healthy after the whole ladder. *)
      let st, _, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "still serving" 200 st)

(* One cold and one warm /run, tagged with known request ids, then pull
   /trace and check the span invariants: every lifecycle phase present,
   phases contained within the request span and sorted by start, and
   the simulate span attributed to the right engine. *)
let test_trace_spans () =
  with_server (fun _srv port ->
      let body = {|{"bench":"cmp","rc":true,"core_int":8}|} in
      let run id =
        let st, _, _ =
          request ~port ~meth:"POST" ~path:"/run"
            ~headers:[ ("X-Request-Id", id) ]
            ~body ()
        in
        check ("run " ^ id) 200 st
      in
      run "trace-cold";
      run "trace-warm";
      let st, _, trace = request ~port ~meth:"GET" ~path:"/trace" () in
      check "trace" 200 st;
      let events =
        match Rc_obs.Json.member "traceEvents" (json_of trace) with
        | Some (Rc_obs.Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let str name ev =
        match Rc_obs.Json.member name ev with
        | Some (Rc_obs.Json.Str s) -> Some s
        | _ -> None
      in
      let num name ev =
        match Rc_obs.Json.member name ev with
        | Some (Rc_obs.Json.Float f) -> f
        | Some (Rc_obs.Json.Int n) -> float_of_int n
        | _ -> Alcotest.failf "event lacks numeric %s" name
      in
      (* Complete spans belonging to request [id], in file order (the
         server sorts phases by start before export). *)
      let spans_of id =
        List.filter
          (fun ev ->
            str "ph" ev = Some "X"
            && (match Rc_obs.Json.member "args" ev with
               | Some args -> str "id" args = Some id
               | None -> false))
          events
      in
      let check_request id expected_engine =
        let spans = spans_of id in
        let parent, phases =
          List.partition (fun ev -> str "name" ev = Some "POST /run") spans
        in
        let parent =
          match parent with
          | [ p ] -> p
          | l -> Alcotest.failf "%s: %d request spans" id (List.length l)
        in
        let phase_names = List.filter_map (str "name") phases in
        List.iter
          (fun ph ->
            check_bool
              (Printf.sprintf "%s has %s span" id ph)
              true
              (List.mem ph phase_names))
          [ "queue"; "read"; "parse"; "compile"; "simulate"; "render"; "write" ];
        (* Containment within the request span, with a little slack for
           microsecond rounding in the export. *)
        let p0 = num "ts" parent and p1 = num "ts" parent +. num "dur" parent in
        List.iter
          (fun ev ->
            let t0 = num "ts" ev and t1 = num "ts" ev +. num "dur" ev in
            check_bool
              (Printf.sprintf "%s: %s within request span" id
                 (Option.value (str "name" ev) ~default:"?"))
              true
              (t0 >= p0 -. 50.0 && t1 <= p1 +. 50.0))
          phases;
        (* Phases are exported in start order. *)
        let starts = List.map (num "ts") phases in
        check_bool (id ^ ": phases sorted by start") true
          (List.sort compare starts = starts);
        (* The simulate span carries the engine that actually ran. *)
        match
          List.find_opt (fun ev -> str "name" ev = Some "simulate") phases
        with
        | Some ev -> (
            match Rc_obs.Json.member "args" ev with
            | Some args ->
                check_str (id ^ ": simulate engine") expected_engine
                  (Option.value (str "engine" args) ~default:"?")
            | None -> Alcotest.fail "simulate span lacks args")
        | None -> Alcotest.fail "no simulate span"
      in
      check_request "trace-cold" "execute";
      check_request "trace-warm" "replay")

(* --- graceful drain ----------------------------------------------------- *)

let test_graceful_drain () =
  let ctx = E.create ~scale:1 ~jobs:2 ~engine:E.Replay () in
  let srv = Server.create ~config:{ Server.default_config with port = 0 } ctx in
  let port = Server.port srv in
  let runner = Domain.spawn (fun () -> Server.run srv) in
  let resp = ref None in
  let client =
    Domain.spawn (fun () ->
        resp :=
          Some
            (request ~port ~meth:"POST" ~path:"/run"
               ~body:{|{"bench":"eqn","rc":true}|} ()))
  in
  (* Wait until the request is actually in flight, then stop. *)
  let rec wait_admitted n =
    if Server.inflight srv = 0 && Server.served srv = 0 && n > 0 then begin
      Unix.sleepf 0.005;
      wait_admitted (n - 1)
    end
  in
  wait_admitted 1000;
  Server.stop srv;
  Domain.join runner;
  Domain.join client;
  (match !resp with
  | Some (200, _, body) ->
      check_bool "drained response is complete JSON" true
        (match Rc_obs.Json.of_string body with Ok _ -> true | Error _ -> false)
  | Some (st, _, _) -> Alcotest.failf "in-flight request answered %d" st
  | None -> Alcotest.fail "no response across stop");
  (* The listener is gone: new connections must be refused. *)
  (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
   match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
   | () ->
       Unix.close fd;
       Alcotest.fail "server still accepting after drain"
   | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Unix.close fd);
  E.shutdown ctx

(* --- connection accounting ---------------------------------------------- *)

(* A connection that closes before sending any request — a port probe,
   a cancelled client — must land in closed_early, not served. *)
let test_closed_early () =
  with_server (fun srv port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.close fd;
      let rec wait n =
        if Server.closed_early srv = 0 && n > 0 then begin
          Unix.sleepf 0.005;
          wait (n - 1)
        end
      in
      wait 1000;
      check "closed_early counts the silent connection" 1
        (Server.closed_early srv);
      check "served excludes it" 0 (Server.served srv);
      let st, _, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check "healthz still fine" 200 st;
      (* served increments after the graceful-close drain, a beat after
         the client has the response — wait, don't race it. *)
      let rec wait_served n =
        if Server.served srv = 0 && n > 0 then begin
          Unix.sleepf 0.005;
          wait_served (n - 1)
        end
      in
      wait_served 1000;
      check "real request counts as served" 1 (Server.served srv);
      check "closed_early unchanged" 1 (Server.closed_early srv))

(* --- bounded drain ------------------------------------------------------- *)

(* After answering 413 the server drains the unread body so the client
   sees the response instead of a reset — but a client that streams
   forever must hit the drain's byte budget / deadline, not pin the
   connection.  The old unbounded drain would keep reading for as long
   as this client keeps writing. *)
let test_bounded_drain () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config = { Server.default_config with Server.max_body = 64 } in
  with_server ~config (fun _srv port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let headers =
        "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 100000000\r\n\r\n"
      in
      ignore (Unix.write_substring fd headers 0 (String.length headers));
      (* Stream body bytes until the server gives up on us.  With the
         bounded drain that is at most budget + deadline away; time out
         the test well clear of it. *)
      let chunk = String.make 65536 'x' in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. 20.0 in
      let closed = ref false in
      (try
         while (not !closed) && Unix.gettimeofday () < deadline do
           ignore (Unix.write_substring fd chunk 0 (String.length chunk))
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         closed := true);
      let elapsed = Unix.gettimeofday () -. t0 in
      Unix.close fd;
      check_bool "server closed the streaming connection" true !closed;
      (* budget (256 KiB) drains instantly on loopback; the wall-clock
         cap is 2s — anything near the 20s timeout means the bound is
         gone. *)
      check_bool
        (Printf.sprintf "drain bounded (closed after %.1fs)" elapsed)
        true (elapsed < 10.0))

(* --- the on-disk trace store -------------------------------------------- *)

module Store = Rc_serve.Store
module D = Rc_machine.Dtrace

let with_temp_dir f =
  let dir = Filename.temp_file "t_serve_store" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A small deterministic trace, distinguishable by [seed]. *)
let trace_fixture seed =
  let code_len = 16 in
  let s0 = Array.init code_len (fun i -> (i + seed) mod 7) in
  let s1 = Array.init code_len (fun i -> if i mod 3 = 0 then -1 else i mod 5) in
  let d = Array.init code_len (fun i -> (i + 1) mod code_len) in
  let b = D.builder (D.arch_of_arrays ~s0 ~s1 ~d) in
  for i = 0 to 63 do
    D.add_packed b
      (D.pack ~pc:(i mod code_len) ~sp0:(-1) ~sp1:(-1) ~dp:(-1) ~map_on:false
         ~taken:false)
  done;
  match
    D.finish b ~output:[ Int64.of_int seed ]
      ~checksum:(Int64.of_int ((seed * 7919) + 13))
  with
  | Some t -> t
  | None -> Alcotest.fail "trace fixture failed to build"

let same_trace a b = D.to_string a = D.to_string b

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key = "fingerprint#cmp/rc=true scale=1" in
      check_bool "probe on empty store misses" true (Store.probe st key = None);
      let tr = trace_fixture 1 in
      Store.publish st key tr;
      (match Store.probe st key with
      | Some tr' -> check_bool "published trace decodes equal" true
            (same_trace tr tr')
      | None -> Alcotest.fail "probe missed a just-published trace");
      (* A different key must never see it. *)
      check_bool "foreign key misses" true (Store.probe st (key ^ "x") = None);
      let s = Store.stats st in
      check "one hit" 1 s.Store.hits;
      check "two misses" 2 s.Store.misses;
      check "one published" 1 s.Store.published;
      check "one file" 1 s.Store.files;
      check_bool "bytes tracked" true (s.Store.bytes > 0);
      (* A second handle on the same directory — the cold-process
         case — hits without any publish of its own. *)
      let st2 = Store.open_store ~dir () in
      check_bool "cold handle sees the occupancy" true
        ((Store.stats st2).Store.bytes > 0);
      match Store.probe st2 key with
      | Some tr' ->
          check_bool "cold-process probe replays the same trace" true
            (same_trace tr tr')
      | None -> Alcotest.fail "cold-process probe missed")

let test_store_eviction () =
  with_temp_dir (fun dir ->
      (* Learn the record size, then cap the store at two records. *)
      let probe_size =
        let st = Store.open_store ~dir () in
        Store.publish st "size-probe" (trace_fixture 0);
        let bytes = (Store.stats st).Store.bytes in
        Sys.remove
          (Filename.concat dir (Sys.readdir dir).(0));
        bytes
      in
      check_bool "fixture produces a nonempty record" true (probe_size > 0);
      let st = Store.open_store ~dir ~max_bytes:(2 * probe_size) () in
      let tra = trace_fixture 1 and trb = trace_fixture 2 and trc = trace_fixture 3 in
      Store.publish st "a" tra;
      Unix.sleepf 0.02;
      Store.publish st "b" trb;
      Unix.sleepf 0.02;
      (* Touch "a": the LRU victim must now be "b". *)
      check_bool "touch a" true (Store.probe st "a" <> None);
      Unix.sleepf 0.02;
      Store.publish st "c" trc;
      let s = Store.stats st in
      check "one eviction under the cap" 1 s.Store.evicted;
      check "two files survive" 2 s.Store.files;
      check_bool "b was the LRU victim" true (Store.probe st "b" = None);
      check_bool "a survived (recently used)" true (Store.probe st "a" <> None);
      check_bool "c survived (newest)" true (Store.probe st "c" <> None);
      (* A cap smaller than a single record still keeps the newest. *)
      let st2 = Store.open_store ~dir ~max_bytes:1 () in
      let s2 = Store.stats st2 in
      check "tiny cap keeps exactly the newest" 1 s2.Store.files;
      check_bool "the survivor decodes" true
        (Store.probe st2 "a" <> None || Store.probe st2 "c" <> None))

(* Every pool domain of a two-domain sweep or server publishes into
   one store: a publish may touch nothing process-wide that another
   domain could be initialising or toggling at the same moment. *)
let test_store_concurrent_publish () =
  with_temp_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key d i = Fmt.str "domain%d#key%d" d i in
      let go = Atomic.make false in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                for i = 0 to 24 do
                  Store.publish st (key d i) (trace_fixture ((25 * d) + i))
                done))
      in
      Atomic.set go true;
      (* [join] re-raises whatever a publish raised *)
      List.iter Domain.join domains;
      check "every publish landed" 100 (Store.stats st).Store.published;
      for d = 0 to 3 do
        for i = 0 to 24 do
          match Store.probe st (key d i) with
          | Some tr ->
              check_bool (key d i ^ " probes back") true
                (same_trace tr (trace_fixture ((25 * d) + i)))
          | None -> Alcotest.failf "%s did not probe back" (key d i)
        done
      done)

let suite =
  [
    ("http: parse request", `Quick, test_http_parse);
    ("http: malformed", `Quick, test_http_malformed);
    ("http: limits", `Quick, test_http_limits);
    ("http: closed mid-request", `Quick, test_http_closed);
    ("http: smuggling vectors", `Quick, test_http_smuggling);
    ("routing and 4xx", `Slow, test_routing);
    ("413 request too large", `Quick, test_too_large);
    ("503 load shedding", `Quick, test_shed);
    ("408 deadline expiry", `Quick, test_deadline);
    ("warm trace cache on repeat /run", `Slow, test_warm_cache);
    ("figures endpoint", `Slow, test_figures_endpoint);
    ("version endpoint", `Quick, test_version);
    ("prometheus exposition", `Slow, test_prometheus);
    ("request-id propagation", `Quick, test_request_id);
    ("spec kernels: compile, run, figures", `Slow, test_spec_compile_run);
    ("spec kernels: admission oracle", `Slow, test_spec_oracle);
    ("spec kernels: rejection ladder", `Quick, test_spec_rejections);
    ("trace span invariants", `Slow, test_trace_spans);
    ("graceful drain", `Slow, test_graceful_drain);
    ("closed_early excludes silent connections", `Quick, test_closed_early);
    ("413 drain is bounded", `Slow, test_bounded_drain);
    ("store: publish/probe round-trip", `Quick, test_store_roundtrip);
    ("store: LRU eviction under a byte cap", `Quick, test_store_eviction);
    ("non-positive machine parameters get 400", `Slow, test_nonpositive_machine);
    ("out-of-range core register counts get 400", `Slow, test_core_count_bounds);
    ("store: concurrent publishes from four domains", `Quick, test_store_concurrent_publish);
  ]
