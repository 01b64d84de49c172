(* loadgen — load driver for `rcc serve` (DESIGN.md section 16):

     loadgen --url http://127.0.0.1:8080 --rps 200 --duration 10
     loadgen --spawn ./rcc.exe --mix mixed --strict

   Replays a request mix against a running server at a target
   aggregate rate with a fixed number of client domains, open-loop:
   request k is due at [t0 + k/rps] regardless of how long earlier
   requests took, so a slow server accumulates measurable latency
   instead of silently throttling the offered load.  Client-side
   latency (connect to last byte) is recorded into the same log-linear
   histograms the server uses ({!Rc_obs.Metrics.Hist}), and the report
   cross-checks client p50/p99 per endpoint against the server's own
   /metrics.json quantiles: disagreement beyond
   [tol_ms + tol_pct% * max(client, server)] on a fresh server means
   one side's accounting is broken.

   [--spawn RCC] boots a private `RCC serve --port 0` first (the
   load-smoke alias does this), so the server histograms contain
   exactly this run's traffic and the cross-check is sharp; against a
   shared [--url] server the check still runs but prior traffic can
   legitimately shift the server's quantiles.

   The report is a single JSON document on stdout (narration on
   stderr); [--strict] exits non-zero when any 5xx was answered or the
   quantile cross-check fails, which is what CI's load-smoke
   asserts. *)

let fail fmt =
  Format.kasprintf (fun m -> prerr_endline ("loadgen: " ^ m); exit 1) fmt

module C = Serve_client

(* --- request mixes ----------------------------------------------------- *)

type shot = { sh_meth : string; sh_path : string; sh_body : string }

let run_shot body = { sh_meth = "POST"; sh_path = "/run"; sh_body = body }

let run_bodies =
  [
    {|{"bench":"cmp","rc":true,"core_int":8}|};
    {|{"bench":"grep","core_int":8}|};
    {|{"bench":"eqn","rc":true,"issue":4}|};
    {|{"bench":"compress","rc":true,"core_int":12}|};
  ]

let figures_shot =
  { sh_meth = "POST"; sh_path = "/figures"; sh_body = {|{"ids":["table1"]}|} }

let healthz_shot = { sh_meth = "GET"; sh_path = "/healthz"; sh_body = "" }

(* The reference kernel spec, exercising the user-submission path:
   /compile admission plus /run with the spec inline.  Inline specs
   carry no cross-request state, so the shots stay valid under prefork
   servers where consecutive requests land on different workers. *)
let spec_shots =
  [
    { sh_meth = "POST"; sh_path = "/compile"; sh_body = C.spec_doc };
    run_shot (Printf.sprintf {|{"spec":%s}|} C.spec_doc);
    run_shot
      (Printf.sprintf {|{"spec":%s,"rc":true,"core_int":8}|} C.spec_doc);
  ]

let mix_of_name = function
  | "run" -> List.map run_shot run_bodies
  | "figures" -> [ figures_shot ]
  | "spec" -> spec_shots
  | "mixed" ->
      (* Twelve slots: mostly /run, one /figures, one /healthz, and
         the user-submitted-kernel path. *)
      List.map run_shot run_bodies
      @ [ figures_shot ]
      @ spec_shots
      @ List.map run_shot (List.rev run_bodies)
      @ [ healthz_shot ]
  | m -> fail "unknown mix %S (run|figures|spec|mixed)" m

(* Each nonempty line of a mix file is one shot:
   {"method":"POST","path":"/run","body":{...}} (method defaults to
   POST with a body and GET without; body may be any JSON value). *)
let mix_of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let shots =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i line ->
           match Rc_obs.Json.of_string line with
           | Error m -> fail "%s:%d: not valid JSON: %s" path (i + 1) m
           | Ok j ->
               let member_str name =
                 match Rc_obs.Json.member name j with
                 | Some (Rc_obs.Json.Str s) -> Some s
                 | Some _ -> fail "%s:%d: %S is not a string" path (i + 1) name
                 | None -> None
               in
               let body =
                 match Rc_obs.Json.member "body" j with
                 | Some b -> Rc_obs.Json.to_string b
                 | None -> ""
               in
               let sh_path =
                 match member_str "path" with
                 | Some p -> p
                 | None -> fail "%s:%d: no \"path\"" path (i + 1)
               in
               let sh_meth =
                 match member_str "method" with
                 | Some m -> m
                 | None -> if body = "" then "GET" else "POST"
               in
               { sh_meth; sh_path; sh_body = body })
  in
  if shots = [] then fail "%s: empty mix file" path;
  shots

(* --- client-side accounting -------------------------------------------- *)

module M = Rc_obs.Metrics

type tally = {
  mu : Mutex.t;
  hists : (string, M.Hist.t) Hashtbl.t;  (** endpoint -> latency, seconds *)
  statuses : (int, int) Hashtbl.t;
  mutable sent : int;
  mutable conn_errors : int;
}

let tally () =
  {
    mu = Mutex.create ();
    hists = Hashtbl.create 8;
    statuses = Hashtbl.create 8;
    sent = 0;
    conn_errors = 0;
  }

let hist_for t endpoint =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.hists endpoint with
      | Some h -> h
      | None ->
          let h = M.Hist.create () in
          Hashtbl.replace t.hists endpoint h;
          h)

let record t ~endpoint ~status ~latency_s =
  M.Hist.observe (hist_for t endpoint) latency_s;
  Mutex.protect t.mu (fun () ->
      t.sent <- t.sent + 1;
      Hashtbl.replace t.statuses status
        (1 + Option.value (Hashtbl.find_opt t.statuses status) ~default:0))

let record_conn_error t =
  Mutex.protect t.mu (fun () ->
      t.sent <- t.sent + 1;
      t.conn_errors <- t.conn_errors + 1)

(* --- the open-loop driver ---------------------------------------------- *)

let drive ~port ~rps ~duration ~concurrency ~mix =
  let t = tally () in
  let shots = Array.of_list mix in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. duration in
  let worker () =
    let continue = ref true in
    while !continue do
      let k = Atomic.fetch_and_add next 1 in
      let due = t0 +. (float_of_int k /. rps) in
      if due > t_end then continue := false
      else begin
        let now = Unix.gettimeofday () in
        if due > now then Unix.sleepf (due -. now);
        let shot = shots.(k mod Array.length shots) in
        let start = Unix.gettimeofday () in
        match
          C.request ~port ~meth:shot.sh_meth ~path:shot.sh_path
            ~body:shot.sh_body ()
        with
        | status, _body ->
            record t ~endpoint:shot.sh_path ~status
              ~latency_s:(Unix.gettimeofday () -. start)
        | exception (Unix.Unix_error _ | Failure _) -> record_conn_error t
      end
    done
  in
  let domains = List.init concurrency (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  (t, Unix.gettimeofday () -. t0)

(* --- server cross-check ------------------------------------------------ *)

let number_member name j =
  match Rc_obs.Json.member name j with
  | Some (Rc_obs.Json.Float f) -> Some f
  | Some (Rc_obs.Json.Int n) -> Some (float_of_int n)
  | _ -> None

(* endpoint -> (p50_ms, p99_ms) from the server's /metrics.json. *)
let server_quantiles ~port =
  let status, body = C.request ~port ~meth:"GET" ~path:"/metrics.json" () in
  if status <> 200 then fail "/metrics.json: status %d" status;
  let j =
    match Rc_obs.Json.of_string body with
    | Ok j -> j
    | Error m -> fail "/metrics.json: bad JSON: %s" m
  in
  match
    Option.bind (Rc_obs.Json.member "server" j) (Rc_obs.Json.member "endpoints")
  with
  | Some (Rc_obs.Json.List eps) ->
      List.filter_map
        (fun ep ->
          match Rc_obs.Json.member "endpoint" ep with
          | Some (Rc_obs.Json.Str name) -> (
              match (number_member "p50_ms" ep, number_member "p99_ms" ep) with
              | Some p50, Some p99 -> Some (name, (p50, p99))
              | _ -> None)
          | _ -> None)
        eps
  | _ -> fail "/metrics.json: no server.endpoints array"

let agree ~tol_ms ~tol_pct c s =
  Float.abs (c -. s) <= tol_ms +. (tol_pct /. 100.0 *. Float.max c s)

(* --- report ------------------------------------------------------------ *)

let report ~mix_name ~rps ~duration ~concurrency ~workers ~server_jobs
    ~elapsed ~strict ~tol_ms ~tol_pct t server =
  let module J = Rc_obs.Json in
  let ms h p = 1000.0 *. M.Hist.quantile h p in
  (* Endpoints in a stable order. *)
  let endpoints =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hists []
    |> List.sort compare
  in
  let min_samples = 20 in
  let checked = ref [] in
  let ep_json =
    List.map
      (fun (name, h) ->
        let n = M.Hist.count h in
        let c50 = ms h 0.5 and c99 = ms h 0.99 in
        let server_fields, ok =
          match List.assoc_opt name server with
          | Some (s50, s99) when n >= min_samples ->
              let ok =
                agree ~tol_ms ~tol_pct c50 s50 && agree ~tol_ms ~tol_pct c99 s99
              in
              checked := (name, ok) :: !checked;
              ( [
                  ("server_p50_ms", J.Float s50);
                  ("server_p99_ms", J.Float s99);
                  ("agree", J.Bool ok);
                ],
                ok )
          | Some (s50, s99) ->
              ( [
                  ("server_p50_ms", J.Float s50);
                  ("server_p99_ms", J.Float s99);
                ],
                true )
          | None -> ([], true)
        in
        ignore ok;
        J.Obj
          ([
             ("endpoint", J.Str name);
             ("requests", J.Int n);
             ("p50_ms", J.Float c50);
             ("p90_ms", J.Float (ms h 0.9));
             ("p99_ms", J.Float c99);
             ("max_ms", J.Float (1000.0 *. M.Hist.max_value h));
           ]
          @ server_fields))
      endpoints
  in
  let statuses =
    Hashtbl.fold (fun st n acc -> (st, n) :: acc) t.statuses []
    |> List.sort compare
    |> List.map (fun (st, n) -> (string_of_int st, J.Int n))
  in
  let count_status p =
    Hashtbl.fold (fun st n acc -> if p st then acc + n else acc) t.statuses 0
  in
  let shed = count_status (fun st -> st = 503) in
  let errors_5xx = count_status (fun st -> st >= 500) in
  let agreement_ok = List.for_all snd !checked in
  let doc =
    J.Obj
      [
        ( "config",
          J.Obj
            [
              ("mix", J.Str mix_name);
              ("target_rps", J.Float rps);
              ("duration_s", J.Float duration);
              ("concurrency", J.Int concurrency);
              ("workers", J.Int workers);
              ("server_jobs", J.Int server_jobs);
              ("tol_ms", J.Float tol_ms);
              ("tol_pct", J.Float tol_pct);
            ] );
        ("elapsed_s", J.Float elapsed);
        ("sent", J.Int t.sent);
        ("achieved_rps", J.Float (float_of_int t.sent /. elapsed));
        ("conn_errors", J.Int t.conn_errors);
        ("shed", J.Int shed);
        ("errors_5xx", J.Int errors_5xx);
        ("status", J.Obj statuses);
        ("endpoints", J.List ep_json);
        ( "agreement",
          J.Obj
            [
              ("checked", J.Int (List.length !checked));
              ("ok", J.Bool agreement_ok);
            ] );
      ]
  in
  print_endline (J.to_string doc);
  if strict then begin
    if errors_5xx > 0 then fail "strict: %d responses with status >= 500" errors_5xx;
    if t.conn_errors > 0 then fail "strict: %d connection errors" t.conn_errors;
    if not agreement_ok then
      fail "strict: client/server quantiles disagree beyond tolerance on %s"
        (String.concat ", "
           (List.filter_map
              (fun (n, ok) -> if ok then None else Some n)
              !checked));
    (* With prefork workers each process keeps its own histograms and a
       /metrics.json scrape samples just one, so the cross-check is
       unsound there — the empty-checked failure only applies to the
       single-process server it was designed for. *)
    if !checked = [] && workers <= 1 then
      fail "strict: no endpoint reached %d samples for the cross-check"
        min_samples
  end

(* --- CLI ---------------------------------------------------------------- *)

let main url spawn rps duration concurrency server_jobs server_workers
    server_store mix_name mix_file tol_ms tol_pct strict =
  if rps <= 0.0 then fail "--rps must be positive";
  if duration <= 0.0 then fail "--duration must be positive";
  if concurrency < 1 then fail "--concurrency must be >= 1";
  let mix =
    match mix_file with Some f -> mix_of_file f | None -> mix_of_name mix_name
  in
  let port, stop =
    match (url, spawn) with
    | Some _, Some _ -> fail "--url and --spawn are mutually exclusive"
    | None, None -> fail "one of --url or --spawn is required"
    | Some url, None ->
        let port =
          match
            Scanf.sscanf_opt url "http://%[^:]:%d" (fun _host p -> p)
          with
          | Some p -> p
          | None -> fail "--url must look like http://127.0.0.1:PORT"
        in
        (port, fun () -> ())
    | None, Some rcc ->
        let srv =
          try
            C.spawn rcc
              ([ "--jobs"; string_of_int server_jobs; "--quiet" ]
              @ (if server_workers > 1 then
                   [ "--workers"; string_of_int server_workers ]
                 else [])
              @ match server_store with None -> [] | Some d -> [ "--store"; d ])
          with Failure m -> fail "%s" m
        in
        Fmt.epr "loadgen: spawned server on port %d (%d worker(s))@." srv.port
          server_workers;
        let stop () =
          match C.stop srv with
          | Unix.WEXITED 0, _ -> ()
          | Unix.WEXITED n, _ -> fail "spawned server exited %d" n
          | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
              fail "spawned server killed by signal %d" n
        in
        (srv.port, stop)
  in
  Fmt.epr "loadgen: %s mix, %.0f rps for %.1fs over %d domains@." mix_name rps
    duration concurrency;
  let t, elapsed = drive ~port ~rps ~duration ~concurrency ~mix in
  Fmt.epr "loadgen: sent %d requests in %.2fs (%.1f rps achieved)@." t.sent
    elapsed
    (float_of_int t.sent /. elapsed);
  (* A prefork server keeps per-worker histograms; one scrape samples a
     single worker, so its quantiles cannot be cross-checked against
     the aggregate client view. *)
  let server = if server_workers > 1 then [] else server_quantiles ~port in
  stop ();
  report ~mix_name ~rps ~duration ~concurrency ~workers:server_workers
    ~server_jobs ~elapsed ~strict ~tol_ms ~tol_pct t server

open Cmdliner

let url_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "url" ] ~docv:"URL" ~doc:"Target server, http://HOST:PORT.")

let spawn_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "spawn" ] ~docv:"RCC"
        ~doc:
          "Spawn a private $(docv) serve on an ephemeral port for the run \
           (SIGTERM-drained afterwards).")

let rps_t =
  Arg.(
    value & opt float 50.0
    & info [ "rps" ] ~docv:"N" ~doc:"Target aggregate request rate.")

let duration_t =
  Arg.(
    value & opt float 5.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Offered-load window.")

let concurrency_t =
  Arg.(
    value & opt int 4
    & info [ "concurrency" ] ~docv:"N" ~doc:"Client domains.")

let server_jobs_t =
  Arg.(
    value & opt int 2
    & info [ "server-jobs" ] ~docv:"N"
        ~doc:"Worker domains for the --spawn server.")

let server_workers_t =
  Arg.(
    value & opt int 1
    & info [ "server-workers" ] ~docv:"N"
        ~doc:
          "Prefork worker processes for the --spawn server (passes \
           --workers $(docv); disables the quantile cross-check, whose \
           server side is per-process).")

let server_store_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "server-store" ] ~docv:"DIR"
        ~doc:"On-disk trace store for the --spawn server (--store $(docv)).")

let mix_t =
  Arg.(
    value & opt string "mixed"
    & info [ "mix" ] ~docv:"NAME"
        ~doc:"Request mix: run, figures, spec or mixed.")

let mix_file_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "mix-file" ] ~docv:"FILE"
        ~doc:
          "JSONL request mix, one {\"path\":..,\"body\":..} object per line \
           (overrides --mix).")

let tol_ms_t =
  Arg.(
    value & opt float 5.0
    & info [ "tol-ms" ] ~docv:"MS"
        ~doc:"Absolute slack for the client/server quantile cross-check.")

let tol_pct_t =
  Arg.(
    value & opt float 25.0
    & info [ "tol-pct" ] ~docv:"PCT"
        ~doc:"Relative slack for the quantile cross-check, percent.")

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero on any 5xx, connection error, or quantile \
           disagreement (CI mode).")

let cmd =
  let doc = "replay a request mix against rcc serve and report latency" in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const main $ url_t $ spawn_t $ rps_t $ duration_t $ concurrency_t
      $ server_jobs_t $ server_workers_t $ server_store_t $ mix_t
      $ mix_file_t $ tol_ms_t $ tol_pct_t $ strict_t)

let () = exit (Cmd.eval cmd)
