(* The benchmark for the register-connection reproduction.

     rcbench --workload W --seed N --seconds S --trace 0|1

   Workloads: sweep-cold, sweep-warm, serve-hot, serve-cold (see
   perfbench/README.md).  With --trace 0 the last stdout line is the
   end-to-end result, with --trace 1 the per-layer one; both list
   exactly the metrics BENCHMARK.json declares.  Spans of a traced run
   are written under .bench_build/perfbench/. *)

module E = Rc_harness.Experiments
module J = Rc_obs.Json
open Util

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* --- exact-count ledger --------------------------------------------------- *)

(* Counts that must repeat exactly for one build (this executable's
   digest), whichever workload or run produced them first. *)
let ledger_check counts =
  let path = Filename.concat state_dir "exact-counts.json" in
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let all =
    match J.of_string (read_file path) with
    | Ok (J.Obj kv) -> kv
    | _ | (exception Sys_error _) -> []
  in
  let mine = match List.assoc_opt build all with Some (J.Obj kv) -> kv | _ -> [] in
  let clash =
    List.filter
      (fun (k, v) ->
        match List.assoc_opt k mine with Some (J.Int w) -> w <> v | _ -> false)
      counts
  in
  List.iter
    (fun (k, v) ->
      prerr_endline
        (Printf.sprintf "rcbench: %s = %d, but %d earlier with this build" k v
           (to_int (List.assoc k mine))))
    clash;
  let merged =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, J.Int v) :: acc)
      mine counts
  in
  Rc_obs.Fsio.write_atomic path (fun oc ->
      output_string oc
        (J.to_string (J.Obj ((build, J.Obj merged) :: List.remove_assoc build all))));
  List.length clash

(* --- sweeps ------------------------------------------------------------------ *)

(* Repeat [f] to fill about [seconds]: as many runs as the first one
   fits into [seconds], and at least two. *)
let repeat_for seconds f =
  let t0 = now () in
  let first = f () in
  let n = max 2 (int_of_float (Float.round (seconds /. (now () -. t0)))) in
  first :: List.init (n - 1) (fun _ -> f ())

(* Checks shared by every sweep report set: no experiment raised, every
   cell matches the interpreter, and every report agrees on the exact
   counts and the rendered tables. *)
let sweep_checks refs reports =
  let first = List.hd reports in
  let key r =
    ( to_int (member "cells" r), to_int (member "sim_cycles" r),
      to_int (member "code_size" r), to_str (member "tables_md5" r) )
  in
  List.fold_left
    (fun (att, bad) r ->
      let mism, seen = Sweep.checksum_mismatches refs r in
      let raised = to_int (member "failed" r) in
      let disagree = if key r = key first then 0 else 1 in
      if disagree = 1 then prerr_endline "rcbench: sweep reports disagree on counts or tables";
      if mism > 0 then
        prerr_endline (Printf.sprintf "rcbench: %d cells differ from the interpreter" mism);
      (att + List.length Sweep.ids + seen, bad + raised + mism + disagree))
    (0, 0) reports

let exact_counts r =
  [
    ("cells", to_int (member "cells" r));
    ("sim_cycles", to_int (member "sim_cycles" r));
    ("code_size", to_int (member "code_size" r));
  ]

let store_dirs n = List.init n (fun _ -> temp_dir "store")

let sweep_e2e ~warm ~seconds =
  let refs = Sweep.references () in
  let engine = if warm then E.Replay else E.Auto in
  (* Set-up: sweep-cold times a sweep process from spawn until its
     context and pool are ready (five probe processes, plus every timed
     sweep); sweep-warm times three whole store-filling sweeps, each
     into a fresh store, and keeps the last store. *)
  let fills, store =
    if warm then begin
      let dirs = store_dirs 3 in
      let fills = List.map (fun d -> Sweep.spawn ~engine ~store:d ()) dirs in
      List.iter rm_rf (List.filteri (fun i _ -> i < 2) dirs);
      (fills, Some (List.nth dirs 2))
    end
    else ([], None)
  in
  let probes = if warm then [] else List.init 5 (fun _ -> Sweep.spawn ~engine ~mode:"probe" ()) in
  let timed = repeat_for seconds (fun () -> Sweep.spawn ~engine ?store ()) in
  let setup =
    if warm then List.map (num "lifetime_s") fills
    else List.map (num "setup_s") (probes @ timed)
  in
  let attempted, failed = sweep_checks refs (fills @ timed) in
  let failed = failed + ledger_check (exact_counts (List.hd timed)) in
  (* Figure latency: every experiment of every timed sweep. *)
  let exp_ms =
    List.concat_map
      (fun r -> List.map (fun id -> 1000.0 *. num id (member "experiments" r)) Sweep.ids)
      timed
  in
  let first = List.hd timed in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", median setup);
        ("wall_s", median (List.map (num "wall_s") timed));
        ("p50_ms", median exp_ms);
        ("p99_ms", quantile 0.99 exp_ms);
        ("peak_rss_mb", median (List.map (num "vmhwm_mb") timed));
        ("sim_cycles", num "sim_cycles" first);
        ("code_size", num "code_size" first);
      ];
  }

let span_path name = Filename.concat state_dir ("trace-" ^ name ^ ".jsonl")

(* Seconds (and count) of the spans named [name] in a child report. *)
let child_span r name =
  match to_list (member name (member "spans" r)) with
  | [ s; n ] -> (to_float s, to_int n)
  | _ -> (0.0, 0)

(* Per-layer metrics of the pipeline walk (spans in this process). *)
let walk_metrics (k : Walk.counts) =
  let s = Span.total in
  let minsn issued secs = ratio (float_of_int issued /. 1e6) secs in
  [
    ("machine.execute_s", s "machine.execute");
    ("machine.record_s", s "machine.record");
    ("machine.replay_s", s "machine.replay");
    ("machine.execute_minsn_per_s", minsn k.Walk.exec_issued (s "machine.execute"));
    ("machine.replay_minsn_per_s", minsn k.Walk.replay_issued (s "machine.replay"));
    ( "machine.trace_bytes_per_kinsn",
      ratio (float_of_int k.Walk.trace_bytes) (float_of_int k.Walk.replay_issued /. 1000.0) );
    ("opt.prepare_s", s "opt.prepare");
    ("interp.profile_s", s "interp.profile");
    ("regalloc.unlimited_s", s "regalloc.unlimited");
    ("regalloc.core_s", s "regalloc.core");
    ("codegen.backend_s", s "codegen.backend");
    ("codegen.spills", float_of_int k.Walk.spills);
    ("codegen.connects", float_of_int k.Walk.connects);
  ]

let engine_metrics es =
  let n k = num k es in
  [
    ("harness.trace_hit_ratio", ratio (n "hits") (n "hits" +. n "misses" +. n "unsafe"));
    ("harness.trace_bytes", n "bytes");
    ( "machine.memo_hit_ratio",
      ratio (n "seg_hits") (n "seg_hits" +. n "seg_misses" +. n "seg_fallbacks") );
    ("machine.memo_bytes", n "memo_bytes");
  ]

let sweep_traced ~warm ~name =
  let refs = Sweep.references () in
  let engine = if warm then E.Replay else E.Auto in
  let fill, store =
    if warm then begin
      let d = List.hd (store_dirs 1) in
      (Some (Sweep.spawn ~engine ~store:d ~mode:"traced" ~span_file:(span_path (name ^ "-fill")) ()), Some d)
    end
    else (None, None)
  in
  let plain = Sweep.spawn ~engine ?store () in
  let traced = Sweep.spawn ~engine ?store ~mode:"traced" ~span_file:(span_path name) () in
  Span.set_enabled true;
  let cells = Walk.sweep_cells refs in
  let k = Walk.pipeline cells in
  Span.write (span_path (name ^ "-walk"));
  let reports = Option.to_list fill @ [ plain; traced ] in
  let attempted, failed = sweep_checks refs reports in
  let failed =
    failed + k.Walk.failures
    + ledger_check
        (exact_counts traced @ [ ("walk_spills", k.Walk.spills); ("walk_connects", k.Walk.connects) ])
  in
  let wall = num "wall_s" traced in
  let per_exp = List.map (fun id -> (id, fst (child_span traced ("harness." ^ id)))) Sweep.ids in
  let probe_s, probes = child_span traced "store.probe" in
  let publish_s, publishes =
    match fill with Some f -> child_span f "store.publish" | None -> (0.0, 0)
  in
  let st = member "store" traced in
  let busy = num "busy_s" traced and wait = num "wait_s" traced in
  {
    correct = failed = 0;
    attempted = attempted + List.length cells;
    failed;
    metrics =
      List.map (fun (id, s) -> ("harness." ^ id ^ "_s", s)) per_exp
      @ [
          ("harness.residual_s", wall -. sum (List.map snd per_exp));
          ("harness.cells", num "cells" traced);
          ("par.busy_s", busy);
          ("par.wait_s", wait);
          ("par.utilisation", ratio busy (busy +. wait));
          ("store.probes", float_of_int probes);
          ("store.probe_s", probe_s);
          ("store.hit_ratio", ratio (num "hits" st) (num "hits" st +. num "misses" st));
          ("store.publishes", float_of_int publishes);
          ("store.publish_s", publish_s);
          ("trace.overhead_s", wall -. num "wall_s" plain);
        ]
      @ engine_metrics (member "engine" traced)
      @ walk_metrics k;
  }

(* --- served traffic ------------------------------------------------------------ *)

let rcc = "_build/default/bin/rcc.exe"

(* Served traffic comes in two shapes.  The batch is a closed loop: one
   client sends its requests back to back, so the server is never idle
   and never queues, and its latency and wall clock are steady enough
   to bound; the end-to-end metrics come from it.  The stream is an
   open loop at a fixed rate (request k due at t0 + k/rate) from two
   client threads, run in the traced run for the per-layer latency,
   queueing and generator figures.  Per second of --seconds: batch
   requests about matching the server's throughput, stream requests
   at its rate. *)
let hot_batch = 200
let hot_rate = 35.0
let cold_batch = 40
let cold_rate = 10.0
let cold_walk = 64

type traffic = {
  rate : float;
  warm : (Client.request * Service.expect option) list;
  batch : (Client.request * Service.expect option) array;
  stream : (Client.request * Service.expect option) array;
}

let traffic ~hot ~seed ~seconds =
  let rs = Random.State.make [| seed |] in
  let per_s k = int_of_float (k *. seconds) in
  if hot then begin
    let configs = Service.hot_configs (Sweep.references ()) in
    {
      rate = hot_rate;
      warm = List.map (fun (r, e) -> (r, Some e)) configs;
      batch = Service.hot_mix rs configs ~n:(per_s (float_of_int hot_batch));
      stream = Service.hot_mix rs configs ~n:(per_s hot_rate);
    }
  end
  else begin
    let batch, next = Service.cold_mix rs ~first:1 ~n:(per_s (float_of_int cold_batch)) in
    let stream, _ = Service.cold_mix rs ~first:next ~n:(per_s cold_rate) in
    let r, e = Service.cold_request 0 in
    { rate = cold_rate; warm = [ (r, Some e) ]; batch; stream }
  end

let check_all t reqs outs =
  Array.iteri (fun k o -> Service.check t (fst reqs.(k)) (snd reqs.(k)) o) outs

(* Spawn a server and send the warm-up sequence; returns the server and
   the set-up time. *)
let set_up ~dir t tr =
  let t0 = now () in
  let s = Service.start ~rcc ~dir in
  List.iter
    (fun (r, e) ->
      let sent = now () in
      let status, reply = Client.send ~port:s.Service.port r in
      Service.check t r e
        { Client.due = sent; sent; finished = now (); status; reply })
    tr.warm;
  (s, now () -. t0)

(* Send [reqs] as a closed loop from one client; returns the outcomes
   and the wall clock from the first send to the last reply. *)
let closed_loop t s reqs ~tag ?on_done () =
  let outs =
    Client.open_loop ~port:s.Service.port ~rate:infinity ~threads:1 ~tag ?on_done
      (Array.map fst reqs)
  in
  check_all t reqs outs;
  let t0 = Array.fold_left (fun m o -> min m o.Client.sent) infinity outs in
  (outs, Array.fold_left (fun m o -> max m o.Client.finished) t0 outs -. t0)

let service_ms o = (o.Client.finished -. o.Client.sent) *. 1000.0

(* Exact counts of a served mix, keyed by the mix and its length (the
   spec population grows with the run). *)
let serve_counts ~hot ~seconds counts =
  let mix = Printf.sprintf "%s@%g." (if hot then "serve-hot" else "serve-cold") seconds in
  List.map (fun (k, v) -> (mix ^ k, v)) counts

let serve_e2e ~hot ~seed ~seconds =
  let tr = traffic ~hot ~seed ~seconds in
  let dir = temp_dir "serve" in
  let t = Service.tally () in
  let setups =
    List.init 5 (fun i ->
        let s, secs = set_up ~dir t tr in
        if i < 4 then Service.stop s;
        (s, secs))
  in
  let s = fst (List.nth setups 4) in
  let outs, wall = closed_loop t s tr.batch ~tag:"batch" () in
  let peak = vmhwm_mb s.Service.pid in
  Service.stop s;
  let lat = Array.to_list (Array.map service_ms outs) in
  let failed =
    t.Service.failed
    + ledger_check
        (serve_counts ~hot ~seconds
           [ ("sim_cycles", Service.sim_cycles t); ("code_size", Service.code_size t) ])
  in
  {
    correct = failed = 0;
    attempted = t.Service.attempted;
    failed;
    metrics =
      [
        ("setup_s", median (List.map snd setups));
        ("wall_s", wall);
        ("p50_ms", median lat);
        ("p99_ms", quantile 0.99 lat);
        ("peak_rss_mb", peak);
        ("sim_cycles", float_of_int (Service.sim_cycles t));
        ("code_size", float_of_int (Service.code_size t));
      ];
  }

let client_span ?(base = 0) reqs k o =
  Span.record ~req:(base + k) ("client." ^ (fst reqs.(k)).Client.kind) o.Client.sent
    o.Client.finished

let serve_traced ~hot ~seed ~seconds ~name =
  let tr = traffic ~hot ~seed ~seconds in
  let dir = temp_dir "serve" in
  let t = Service.tally () in
  let s, _ = set_up ~dir t tr in
  Span.set_enabled true;
  let outs =
    Client.open_loop ~port:s.Service.port ~rate:tr.rate ~threads:2 ~tag:"stream"
      ~on_done:(client_span tr.stream) (Array.map fst tr.stream)
  in
  check_all t tr.stream outs;
  let status, body = Client.get ~port:s.Service.port "/metrics.json" in
  (* Tracing overhead: a third of the batch untraced, then traced — on
     the same warm server for the hot mix, on a fresh one for the cold
     mix, so both meet the same caches. *)
  let part = Array.sub tr.batch 0 (Array.length tr.batch / 3) in
  Span.set_enabled false;
  let plain = snd (closed_loop t s part ~tag:"plain" ()) in
  let s2 = if hot then s else (Service.stop s; fst (set_up ~dir t tr)) in
  Span.set_enabled true;
  let traced =
    snd (closed_loop t s2 part ~tag:"traced" ~on_done:(client_span ~base:1_000_000 part) ())
  in
  Service.stop s2;
  let mj = match J.of_string body with Ok j when status = 200 -> j | _ -> J.Null in
  let endpoint name =
    List.find_opt
      (fun e -> to_str (member "endpoint" e) = name)
      (to_list (member "endpoints" (member "server" mj)))
  in
  let pool = to_list (member "pool" (member "experiments" mj)) in
  let busy = sum (List.map (num "busy_s") pool) and wait = sum (List.map (num "wait_s") pool) in
  let stream_ms = Array.to_list (Array.map Client.latency_ms outs) in
  let healthz_ms =
    List.concat
      (List.mapi
         (fun k o -> if (fst tr.stream.(k)).Client.kind = "healthz" then [ Client.latency_ms o ] else [])
         (Array.to_list outs))
  in
  (* The in-process walks over the stream's requests: all of them for
     the hot mix; for the cold one, the /run requests for the first
     [cold_walk] specs of its population (the same specs for every
     seed). *)
  let first =
    Array.fold_left
      (fun m (_, e) -> match e with Some e -> min m e.Service.index | None -> m)
      max_int tr.stream
  in
  let walked =
    List.filter
      (fun (_, (_, e)) ->
        hot
        || match e with Some e -> e.Service.index < first + cold_walk | None -> false)
      (List.mapi (fun k x -> (k, x)) (Array.to_list tr.stream))
  in
  let ctx = E.create ~scale:1 ~jobs:1 ~engine:E.Replay () in
  ignore (Walk.requests ctx ~record:false (List.mapi (fun k (r, _) -> (-1 - k, r)) tr.warm));
  let n = Walk.requests ctx (List.map (fun (k, (r, _)) -> (k, r)) walked) in
  let es = Rc_serve.Payload.engine_stats_json (E.engine_stats ctx) in
  E.shutdown ctx;
  let cells =
    List.filter_map
      (fun (k, bench, opts) ->
        Option.map
          (fun (e : Service.expect) ->
            { Walk.bench; opts; alloc_span = "regalloc.core"; reference = e.Service.checksum })
          (snd tr.stream.(k)))
      n.Walk.decoded
  in
  let k = Walk.pipeline cells in
  Span.write (span_path name);
  let per name = 1000.0 *. ratio (Span.total name) (float_of_int (Span.count name)) in
  let failed =
    t.Service.failed + n.Walk.errors + k.Walk.failures
    + (if mj = J.Null then 1 else 0)
    + ledger_check
        (serve_counts ~hot ~seconds
           [ ("walk_spills", k.Walk.spills); ("walk_connects", k.Walk.connects) ])
  in
  {
    correct = failed = 0;
    attempted = t.Service.attempted + 1 + n.Walk.runs + List.length cells;
    failed;
    metrics =
      [
        ("harness.table1_s", Span.total "harness.table1");
        ("harness.cells", float_of_int (Hashtbl.length t.Service.cells));
        ("par.busy_s", busy);
        ("par.wait_s", wait);
        ("par.utilisation", ratio busy (busy +. wait));
        ("serve.stream_p50_ms", median stream_ms);
        ("serve.stream_p99_ms", quantile 0.99 stream_ms);
        ("serve.server_p50_ms", match endpoint "/run" with Some e -> num "p50_ms" e | None -> 0.0);
        ("serve.healthz_p50_ms", median healthz_ms);
        ("serve.decode_ms", per "serve.decode");
        ("harness.compile_cell_ms", per "harness.compile_cell");
        ("harness.simulate_cell_ms", per "harness.simulate_cell");
        ("harness.replay_share", ratio (float_of_int n.Walk.replays) (float_of_int n.Walk.runs));
        ("serve.render_ms", per "serve.render");
        ("check.oracle_ms", per "check.oracle");
        ( "generator.late_p99_ms",
          quantile 0.99 (Array.to_list (Array.map Client.lateness_ms outs)) );
        ("trace.overhead_s", traced -. plain);
      ]
      @ engine_metrics es
      @ walk_metrics k;
  }

(* --- result line ------------------------------------------------------------------ *)

(* The metric names and units BENCHMARK.json declares for this mode. *)
let declared section =
  match J.of_string (read_file "BENCHMARK.json") with
  | Ok j ->
      List.map
        (fun m -> (to_str (member "name" m), to_str (member "unit" m)))
        (to_list (member section j))
  | Error m -> fail "BENCHMARK.json: %s" m

(* Print the result line: every declared metric, in declaration order.
   An end-to-end metric the workload did not produce, or any metric
   BENCHMARK.json does not declare, is a benchmark bug; a per-layer
   metric of a layer the workload never calls reads 0. *)
let emit ~traced o =
  let decl = declared (if traced then "per_layer" else "end_to_end") in
  List.iter
    (fun (k, _) -> if not (List.mem_assoc k decl) then fail "undeclared metric %s" k)
    o.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name o.metrics with
          | Some v when Float.is_finite v -> v
          | Some _ -> fail "metric %s is not finite" name
          | None when traced -> 0.0
          | None -> fail "end-to-end metric %s missing" name
        in
        (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
      decl
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool o.correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ("metrics", J.Obj metrics);
          ]))

let usage () =
  fail "usage: rcbench --workload W --seed N --seconds S --trace 0|1"

let () =
  match Array.to_list Sys.argv with
  | [ _; "sweep-child"; mode; engine; store; span_file ] ->
      let engine = Option.get (E.engine_of_string engine) in
      Sweep.child ~engine
        ~store:(if store = "-" then None else Some store)
        ~traced:(mode = "traced") ~probe:(mode = "probe") ~span_file
  | _ :: args ->
      let rec parse acc = function
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "workload" and seed = int "seed" in
      let seconds = float_of_int (int "seconds") and traced = int "trace" = 1 in
      (* Every exit path runs the at_exit hooks that stop child
         processes; a run still going after 175 s gives up. *)
      let handler = Sys.Signal_handle (fun _ -> exit 3) in
      List.iter (fun s -> Sys.set_signal s handler) [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      ignore (Unix.alarm 175);
      mkdir_p state_dir;
      let o =
        match (workload, traced) with
        | "sweep-cold", false -> sweep_e2e ~warm:false ~seconds
        | "sweep-warm", false -> sweep_e2e ~warm:true ~seconds
        | "sweep-cold", true -> sweep_traced ~warm:false ~name:workload
        | "sweep-warm", true -> sweep_traced ~warm:true ~name:workload
        | "serve-hot", false -> serve_e2e ~hot:true ~seed ~seconds
        | "serve-cold", false -> serve_e2e ~hot:false ~seed ~seconds
        | "serve-hot", true -> serve_traced ~hot:true ~seed ~seconds ~name:workload
        | "serve-cold", true -> serve_traced ~hot:false ~seed ~seconds ~name:workload
        | _ -> fail "unknown workload %S" workload
      in
      emit ~traced o
  | [] -> usage ()
