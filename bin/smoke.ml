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
     cache, the third answers the same from the image the second kept,
     /metrics is saved to metrics.prom (the serve-smoke alias
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
   - memory: the stage cache's bounds (section 15), read from the
     server's VmRSS in /proc/PID/status and from /metrics.json.  5,000
     identical /run requests leave VmRSS within 2x its value after the
     first 500; 5,000 distinct configurations keep the charged bytes
     under the cap at every scrape, evict, and grow VmRSS by under 10%
     over the last 3,000; a fresh server answering every figure evicts
     nothing.

   The first failing row exits 1, naming its scenario and action. *)

module J = Rc_obs.Json
module C = Serve_client

type action =
  | Boot of string list  (** [rcc serve --port 0 ARGS] *)
  | Http of string * string * string  (** method, path, body *)
  | Drain of string  (** POST /run this body, SIGTERM while in flight *)
  | Stop  (** SIGTERM the server; its exit code and stderr *)
  | Rcc of string list * string  (** [rcc ARGS] fed this stdin *)
  | Runs of int * (int -> string)
      (** POST /run these bodies (of request 0, 1, ...), one at a time;
          the first answer that is not 200 ends the row *)
  | Rss  (** the server's VmRSS in kB, from /proc/PID/status *)

type check =
  | Str of string list * string  (** member at this path is this string *)
  | Num of string list  (** member at this path is a number *)
  | At_least of string list * int  (** member is an integer >= this *)
  | At_most of string list * int  (** member is an integer <= this *)
  | Grown_below of string * float
      (** the answer, a number, is below this factor times the number
          saved under this name *)
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

let runs n body = row ~status:200 (Runs (n, body)) []
let rss ?save checks = row ?save Rss checks

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
    (* The third request reuses the image the second one kept. *)
    post "/run" run_cmp ~save:"serve-reused.json"
      [ engine "replay"; Same "serve-cold.json" ];
    get "/metrics.json"
      [
        At_least ([ "experiments"; "trace_cache"; "hits" ], 2);
        At_least ([ "experiments"; "stage_cache"; "images" ], 1);
      ];
    get "/metrics" ~save:"metrics.prom"
      [
        Has "# TYPE rcc_requests_total counter";
        Has "# TYPE rcc_request_duration_seconds histogram";
        Has "# TYPE rcc_stage_cache_bytes gauge";
        Has "# TYPE rcc_stage_cache_entries gauge";
        Has "# TYPE rcc_stage_cache_evictions_total counter";
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

let memory =
  let cap = 64 * 1024 * 1024 in
  let cache = [ "experiments"; "stage_cache" ] in
  let server = [ "--jobs"; "1"; "--quiet" ] in
  let same _ = {|{"bench":"cmp","rc":true,"core_int":16,"issue":4,"load":2}|} in
  (* Request k's configuration, distinct for k < 8,164: RC off and on
     in turn, each of the 2,041 core sizes in a scrambled order (997 is
     prime to 2,041), issue rate 1 and then 2.  Every stretch of
     requests mixes small and large cores alike, so memory has no
     trend of its own to follow. *)
  let distinct k =
    let j = k mod 4082 in
    Printf.sprintf {|{"bench":"cmp","rc":%b,"core_int":%d,"issue":%d}|}
      (j mod 2 = 1)
      (8 + (j / 2 * 997 mod 2041))
      (1 + (k / 4082))
  in
  let bounded = [ At_most (cache @ [ "bytes" ], cap) ] in
  [
    boot server;
    runs 500 same;
    rss ~save:"memory-repeat-500.txt" [];
    runs 4500 same;
    rss ~save:"memory-repeat-5000.txt"
      [ Grown_below ("memory-repeat-500.txt", 2.0) ];
    get "/metrics.json" ~save:"memory-repeat.json"
      [
        At_least (cache @ [ "images" ], 1);
        At_least ([ "experiments"; "trace_cache"; "hits" ], 4999);
      ];
    stop [];
    boot server;
  ]
  @ List.concat
      (List.init 20 (fun i ->
           [
             runs 250 (fun k -> distinct ((250 * i) + k));
             get "/metrics.json" bounded;
           ]
           @
           if i = 7 then [ rss ~save:"memory-distinct-2000.txt" [] ] else []))
  @ [
      rss ~save:"memory-distinct-5000.txt"
        [ Grown_below ("memory-distinct-2000.txt", 1.10) ];
      get "/metrics.json" ~save:"memory-distinct.json"
        (At_least (cache @ [ "evictions" ], 1) :: bounded);
      stop [];
      boot server;
      post "/figures" "{}" [];
      get "/metrics.json" ~save:"memory-figures.json"
        (At_most (cache @ [ "evictions" ], 0) :: bounded);
      stop [];
    ]

let scenarios =
  [
    ("serve", serve);
    ("store", store);
    ("spec", spec);
    ("cli", cli);
    ("memory", memory);
  ]

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

(* The VmRSS line of /proc/PID/status, in kB: a read, nothing more. *)
let vm_rss pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "no VmRSS line in /proc/%d/status" pid
        | Some line -> (
            match Scanf.sscanf_opt line "VmRSS: %d kB" Fun.id with
            | Some kb -> kb
            | None -> go ())
      in
      go ())

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
  | Runs (n, body) ->
      let port = (server st).port in
      let rec go k =
        if k = n then (200, Printf.sprintf "%d requests answered 200" n)
        else
          match C.request ~port ~meth:"POST" ~path:"/run" ~body:(body k) () with
          | 200, _ -> go (k + 1)
          | status, answer -> (status, Printf.sprintf "request %d: %s" k answer)
      in
      go 0
  | Rss -> (0, string_of_int (vm_rss (server st).pid))

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
  | At_most (path, n) -> (
      match at path with
      | Some (J.Int v) when v <= n -> ()
      | v -> fail "%s, wanted an integer <= %d" (shown path v) n)
  | Grown_below (name, factor) -> (
      let number text =
        match float_of_string_opt (String.trim text) with
        | Some x -> x
        | None -> fail "%S is not a number" text
      in
      match Hashtbl.find_opt st.saved name with
      | None -> fail "nothing saved as %s" name
      | Some prev ->
          let now = number answer and before = number prev in
          if not (now < factor *. before) then
            fail "%g is not below %g x %g (%s)" now factor before name)
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
  | Runs (n, body) -> Printf.sprintf "POST /run x%d from %s" n (body 0)
  | Rss -> "read VmRSS"

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
      prerr_endline "usage: smoke RCC (serve|store|spec|cli|memory)...";
      exit 2
