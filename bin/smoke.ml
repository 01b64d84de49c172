(* smoke — end-to-end checks of `rcc serve` and the `rcc` front doors:

     smoke <rcc.exe> SCENARIO...

   Every check is a row of the scenario table below, and one engine
   runs them all.  A row is one action — boot or stop the scenario's
   server, send it a request, or run an `rcc` command line — with the
   status the action must end in (HTTP status or exit code) and checks
   on its answer (the response body, stdout, or the stopped server's
   stderr).  A row may save its answer under a file name: the file is
   written before the checks run, so a failing row leaves its report
   behind, and later rows compare against it with [Same].

   Scenarios:
   - serve: the HTTP contract of DESIGN.md sections 15 and 16 — /run
     equals `rcc run --json`, the second /run replays from the trace
     cache, /metrics is saved to metrics.prom (the serve-smoke alias
     validates it with `jsonck --prom`), and SIGTERM drains a request
     in flight and leaves access-log and slow-span lines on stderr.
   - store: two sequential servers on one --store directory (section
     17); the second answers its first /run from disk.  Then the same
     round trip through two `rcc run --store` processes.
   - spec: user-submitted kernels (section 19) — /compile and /run
     equal `rcc compile --json` and `rcc run --spec --json`, the second
     /run replays, and over-budget and malformed documents are shed
     with 413 and 400.
   - cli: front-door argument errors exit 124 (cmdliner's usage error),
     never as an uncaught exception.

   The first failing row exits 1, naming its scenario and action. *)

module J = Rc_obs.Json
module C = Serve_client

type action =
  | Boot of string list  (** [rcc serve --port 0 ARGS] *)
  | Http of string * string * string  (** method, path, body *)
  | Drain of string  (** POST /run this body, SIGTERM while in flight *)
  | Stop  (** SIGTERM the server; its exit code and stderr *)
  | Rcc of string list * string  (** [rcc ARGS] fed this stdin *)

type check =
  | Str of string list * string  (** member at this path is this string *)
  | Num of string list  (** member at this path is a number *)
  | At_least of string list * int  (** member is an integer >= this *)
  | Has of string  (** the answer contains this text *)
  | Lacks of string
  | Same of string
      (** equals the answer saved under this name, once [wall_s] is
          zeroed and [engine] dropped everywhere *)

type row = {
  act : action;
  status : int;
  save : string option;
  checks : check list;
}

(* Rows that name no status want 200 from the server and exit 0 from
   everything else. *)
let row ?(status = 0) ?save act checks = { act; status; save; checks }
let boot args = row (Boot args) []
let stop checks = row Stop checks
let drain body = row ~status:200 (Drain body)

let get ?(status = 200) ?save path =
  row ~status ?save (Http ("GET", path, ""))

let post ?(status = 200) ?save path body =
  row ~status ?save (Http ("POST", path, body))

let rcc ?status ?save ?(stdin = "") args =
  row ?status ?save (Rcc (args, stdin))

(* --- the table ---------------------------------------------------------- *)

let run_cmp = {|{"bench":"cmp","rc":true,"core_int":8}|}
let cli_cmp = [ "run"; "cmp"; "--rc"; "--core-int"; "8"; "--json" ]
let engine e = Str ([ "engine" ], e)

let serve =
  [
    boot [ "--jobs"; "2"; "--slow-ms"; "1" ];
    get "/healthz"
      [
        Str ([ "status" ], "ok");
        Num [ "uptime_s" ];
        At_least ([ "inflight" ], 0);
      ];
    rcc cli_cmp ~save:"serve-cli.json" [ engine "execute" ];
    post "/run" run_cmp ~save:"serve-cold.json"
      [ engine "execute"; Same "serve-cli.json" ];
    post "/run" run_cmp ~save:"serve-warm.json"
      [ engine "replay"; Same "serve-cold.json" ];
    get "/metrics.json"
      [ At_least ([ "experiments"; "trace_cache"; "hits" ], 1) ];
    get "/metrics" ~save:"metrics.prom"
      [
        Has "# TYPE rcc_requests_total counter";
        Has "# TYPE rcc_request_duration_seconds histogram";
      ];
    (* A configuration not seen yet, so the drained request executes. *)
    rcc [ "run"; "eqn"; "--rc"; "--issue"; "8"; "--json" ]
      ~save:"serve-drain-cli.json" [];
    drain {|{"bench":"eqn","rc":true,"issue":8}|}
      [ engine "execute"; Same "serve-drain-cli.json" ];
    stop
      [
        Has "rcc serve: drained";
        Has "access id=";
        Has "slow request id=";
        Has "breakdown:";
        Has "compile=";
        Has "render=";
        Has "simulate(execute)=";
        Has "simulate(replay)=";
      ];
  ]

let store =
  let server = [ "--jobs"; "2"; "--quiet"; "--store"; "store.d" ] in
  let cli = cli_cmp @ [ "--store"; "run-store.d" ] in
  [
    boot server;
    post "/run" run_cmp [ engine "execute" ];
    post "/run" run_cmp ~save:"store-warm.json" [ engine "replay" ];
    get "/metrics.json" [ At_least ([ "store"; "published" ], 1) ];
    stop [ Has "drained" ];
    (* A new process with an empty in-memory cache on the same store. *)
    boot server;
    post "/run" run_cmp ~save:"store-disk.json"
      [ engine "replay"; Same "store-warm.json" ];
    get "/metrics.json" [ At_least ([ "store"; "hits" ], 1) ];
    get "/metrics"
      [
        Has "# TYPE rcc_store_hits_total counter";
        Lacks "rcc_store_hits_total 0";
      ];
    stop [ Has "drained" ];
    rcc cli ~save:"store-run-cold.json"
      [ engine "execute"; Same "store-disk.json" ];
    rcc cli ~save:"store-run-warm.json"
      [ engine "replay"; Same "store-run-cold.json" ];
  ]

let spec =
  let id = "k3dcde33718c5" in
  let run = Printf.sprintf {|{"kernel":%S,"rc":true,"core_int":8}|} id in
  let oversize =
    {|{"seed":0,"slots":100000,"funcs":[{"arity":0,"nvars":1,"nfvars":1,"body":[["emit",["var",0]]]}]}|}
  in
  [
    boot [ "--jobs"; "2" ];
    rcc [ "compile"; "-"; "--json" ] ~stdin:C.spec_doc
      ~save:"spec-compile-cli.json"
      [ Str ([ "kernel" ], id) ];
    post "/compile" C.spec_doc ~save:"spec-compile.json"
      [ Str ([ "kernel" ], id); Same "spec-compile-cli.json" ];
    (* Resubmission: the registry deduplicates by content digest. *)
    post "/compile" C.spec_doc [ Str ([ "kernel" ], id) ];
    rcc
      [ "run"; "--spec"; "-"; "--rc"; "--core-int"; "8"; "--json" ]
      ~stdin:C.spec_doc ~save:"spec-cli.json" [ engine "execute" ];
    post "/run" run ~save:"spec-cold.json"
      [ engine "execute"; Same "spec-cli.json" ];
    post "/run" run ~save:"spec-warm.json"
      [ engine "replay"; Same "spec-cold.json" ];
    post ~status:413 "/compile" oversize [ Has "limit" ];
    post ~status:400 "/compile" {|{"funcs":3}|} [ Has "$.funcs" ];
    get "/healthz" [];
    stop [];
  ]

let cli =
  List.map
    (fun args -> rcc ~status:124 args [])
    [
      [ "run"; "cmp"; "--load"; "0" ];
      [ "run"; "cmp"; "--load"; "65" ];
      [ "run"; "cmp"; "--connect"; "2" ];
      [ "compare"; "cmp"; "--load"; "0" ];
      [ "trace"; "cmp"; "--connect"; "3" ];
      [ "check"; "cmp"; "--load"; "0" ];
      [ "run"; "cmp"; "--issue"; "0" ];
    ]

let scenarios =
  [ ("serve", serve); ("store", store); ("spec", spec); ("cli", cli) ]

(* --- the engine --------------------------------------------------------- *)

let fail fmt = Format.kasprintf failwith fmt

type state = {
  exe : string;
  mutable server : C.server option;
  saved : (string, string) Hashtbl.t;
}

let server st =
  match st.server with Some s -> s | None -> fail "no server is running"

let code = function
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "killed by signal %d" n

(* [rcc ARGS] with [stdin] on its standard input (small enough for the
   pipe buffer); stderr is discarded. *)
let run_rcc exe args stdin =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null ];
  ignore (Unix.write_substring in_w stdin 0 (String.length stdin));
  Unix.close in_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (code (snd (Unix.waitpid [] pid)), out)

let perform st = function
  | Boot args ->
      st.server <- Some (C.spawn st.exe args);
      (0, "")
  | Http (meth, path, body) ->
      C.request ~port:(server st).port ~meth ~path ~body ()
  | Drain body ->
      let srv = server st in
      let d =
        Domain.spawn (fun () ->
            C.request ~port:srv.port ~meth:"POST" ~path:"/run" ~body ())
      in
      (* Time for the request to be accepted and admitted. *)
      Unix.sleepf 0.15;
      Unix.kill srv.pid Sys.sigterm;
      Domain.join d
  | Stop ->
      let status, log = C.stop (server st) in
      st.server <- None;
      (code status, log)
  | Rcc (args, stdin) -> run_rcc st.exe args stdin

let rec member path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (member rest)

let rec normalise : J.t -> J.t = function
  | Obj fields ->
      Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "engine" -> None
             | "wall_s" -> Some (k, J.Float 0.)
             | _ -> Some (k, normalise v))
           fields)
  | List l -> List (List.map normalise l)
  | (Null | Bool _ | Int _ | Float _ | Str _) as leaf -> leaf

let json text =
  match J.of_string text with
  | Ok j -> j
  | Error m -> fail "answer is not JSON (%s): %S" m text

let check st answer c =
  let at path = member path (json answer) in
  let shown path v =
    Fmt.str "%s is %s" (String.concat "." path)
      (Option.fold ~none:"absent" ~some:J.to_string v)
  in
  match c with
  | Str (path, want) -> (
      match at path with
      | Some (J.Str s) when s = want -> ()
      | v -> fail "%s, wanted %S" (shown path v) want)
  | Num path -> (
      match at path with
      | Some (J.Int _ | J.Float _) -> ()
      | v -> fail "%s, wanted a number" (shown path v))
  | At_least (path, n) -> (
      match at path with
      | Some (J.Int v) when v >= n -> ()
      | v -> fail "%s, wanted an integer >= %d" (shown path v) n)
  | Has needle ->
      if C.find ~needle answer = None then fail "no %S in %S" needle answer
  | Lacks needle ->
      if C.find ~needle answer <> None then fail "%S in %S" needle answer
  | Same name -> (
      let norm text = J.to_string (normalise (json text)) in
      match Hashtbl.find_opt st.saved name with
      | None -> fail "nothing saved as %s" name
      | Some prev ->
          if norm answer <> norm prev then
            fail "differs from %s (wall_s zeroed, engine dropped)" name)

let run_row st r =
  let status, answer = perform st r.act in
  Option.iter
    (fun name ->
      Hashtbl.replace st.saved name answer;
      Out_channel.with_open_bin name (fun oc -> output_string oc answer))
    r.save;
  if status <> r.status then
    fail "status %d, wanted %d: %S" status r.status answer;
  List.iter (check st answer) r.checks

let describe = function
  | Boot args -> String.concat " " ("rcc serve --port 0" :: args)
  | Http (meth, path, body) ->
      let body =
        if String.length body > 48 then String.sub body 0 45 ^ "..." else body
      in
      String.concat " " (List.filter (( <> ) "") [ meth; path; body ])
  | Drain body -> "POST /run " ^ body ^ ", SIGTERM in flight"
  | Stop -> "SIGTERM, drain, exit"
  | Rcc (args, _) -> String.concat " " ("rcc" :: args)

let run_scenario exe (name, rows) =
  let st = { exe; server = None; saved = Hashtbl.create 8 } in
  List.iter
    (fun r ->
      Printf.printf "smoke: %s: %s\n%!" name (describe r.act);
      try run_row st r
      with e ->
        Option.iter
          (fun (s : C.server) -> Unix.kill s.pid Sys.sigkill)
          st.server;
        let m = match e with Failure m -> m | e -> Printexc.to_string e in
        Printf.eprintf "smoke: %s: %s: %s\n%!" name (describe r.act) m;
        exit 1)
    rows;
  Printf.printf "smoke: %s: %d rows passed\n%!" name (List.length rows)

let () =
  ignore (Unix.alarm 120);
  (* A peer that closes early — a server, an rcc that never reads its
     stdin — must be an error, not a fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: exe :: (_ :: _ as names)
    when List.for_all (fun n -> List.mem_assoc n scenarios) names ->
      let exe = C.program exe in
      List.iter (fun n -> run_scenario exe (n, List.assoc n scenarios)) names
  | _ ->
      prerr_endline "usage: smoke RCC (serve|store|spec|cli)...";
      exit 2
