(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the two ablations described in DESIGN.md.

   Usage:
     main.exe                  print every experiment (scale 1)
     main.exe fig8 fig12       print selected experiments
     main.exe --scale 2 all    larger workload inputs
     main.exe --jobs 4 all     compute each table's cells on 4 domains
     main.exe --metrics m.json also dump per-cell telemetry (stall
                               attribution, pass metrics, pool stats)
     main.exe --engine auto    cell timing engine: execute, replay or
                               auto (see Experiments.engine)
     main.exe --save sweep.json  append this run's wall times (per
                               experiment and total, with the trace-cache
                               and timing-memo counters) to a
                               machine-readable JSON log
     main.exe --store DIR      on-disk trace store: recorded traces
                               persist and later runs replay from disk
     main.exe --save sweep.json --assert-replay-dominates
                               after saving, compare the log's replay
                               runs against its execute runs — medians
                               over every run of each engine — and exit
                               1 unless replay won (strictly on the
                               total, with a small per-experiment
                               jitter allowance)

   Flags may appear anywhere relative to the experiment ids.
   Tables are byte-identical for every --jobs value (the fan-out is
   deterministic and every cell is a memoised pure computation).

   Speedups follow the paper: base = 1-issue processor with unlimited
   registers and conventional scalar optimisation. *)

let ids = Rc_harness.Experiments.figure_ids

(** Print one experiment and return its wall time, for [--save]. *)
let print_experiment ctx id =
  let t0 = Unix.gettimeofday () in
  (match Rc_harness.Experiments.by_id ctx id with
  | Some t -> Rc_harness.Experiments.print_table Fmt.stdout t
  | None -> Fmt.epr "unknown experiment %s@." id);
  Unix.gettimeofday () -. t0

(* --- --save: machine-readable sweep wall-time log --------------------- *)

(** Append one run record to the JSON list in [path] (created if absent;
    an unreadable or non-list file is replaced, with a warning). *)
let save_sweep path ~scale ~jobs ~engine ~total_s ~timings ~stats =
  let open Rc_obs.Json in
  let previous =
    if not (Sys.file_exists path) then []
    else
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match of_string text with
      | Ok (List runs) -> runs
      | Ok _ | Error _ ->
          Fmt.epr "%s: not a JSON list of runs, starting a fresh log@." path;
          []
  in
  let run =
    Obj
      [
        ("ts", Float (Unix.gettimeofday ()));
        ("scale", Int scale);
        ("jobs", Int jobs);
        ("engine", Str (Rc_harness.Experiments.engine_name engine));
        ("total_wall_s", Float total_s);
        ( "experiments",
          List
            (List.map
               (fun (id, s) -> Obj [ ("id", Str id); ("wall_s", Float s) ])
               timings) );
        ("trace_cache", Rc_harness.Experiments.engine_stats_json stats);
      ]
  in
  (* Atomic replacement: a crash (or ENOSPC) mid-write must never
     truncate the accumulated sweep log.  [write_atomic] stages the
     bytes in a temp file in the same directory and renames over the
     destination only after an error-reporting close. *)
  let runs = previous @ [ run ] in
  Rc_obs.Fsio.write_atomic path (fun oc ->
      output_string oc (to_string (List runs));
      output_char oc '\n');
  Fmt.epr "sweep timings appended to %s (%d run%s)@." path
    (List.length runs)
    (if List.length runs = 1 then "" else "s")

(* --- --assert-replay-dominates: the perf gate ------------------------- *)

let read_json_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Rc_obs.Json.of_string text

let fail_dominates fmt =
  Format.kasprintf
    (fun m ->
      Fmt.epr "bench: --assert-replay-dominates: %s@." m;
      exit 1)
    fmt

(** The replay engine's reason to exist: over every execute and replay
    run in the sweep log (re-run each engine a few times to average
    over machine noise — single sweeps on a small box jitter by more
    than the replay margin), the median replay total wall time must be
    strictly below the median execute total, and no single experiment's
    median may be slower beyond a small jitter allowance (50 ms or 10%
    of the execute row, whichever is larger — tiny static tables
    bounce around the timer's noise floor).  The basic-block timing
    memo raised the bar from "strictly below" to a real margin: the
    replay median must come in at or below [dominate_factor] of the
    execute median.  Exits 1 with the offending rows otherwise. *)
let dominate_factor = 0.75

let assert_replay_dominates path =
  let open Rc_obs.Json in
  let runs =
    match read_json_file path with
    | Ok (List runs) -> runs
    | Ok _ -> fail_dominates "%s is not a JSON list of runs" path
    | Error m -> fail_dominates "cannot read %s: %s" path m
  in
  let of_engine name =
    List.filter
      (fun r ->
        match member "engine" r with Some (Str e) -> e = name | _ -> false)
      runs
  in
  let exs = of_engine "execute" and rps = of_engine "replay" in
  if exs = [] then fail_dominates "no execute run in %s to compare against" path;
  if rps = [] then fail_dominates "no replay run in %s" path;
  let int_field r name =
    match member name r with
    | Some (Int v) -> v
    | _ -> fail_dominates "run in %s lacks integer field %S" path name
  and float_field r name =
    match member name r with
    | Some (Float v) -> v
    | Some (Int v) -> float_of_int v
    | _ -> fail_dominates "run in %s lacks numeric field %S" path name
  in
  let r0 = List.hd exs in
  List.iter
    (fun f ->
      List.iter
        (fun r ->
          if int_field r f <> int_field r0 f then
            fail_dominates
              "execute and replay runs in %s differ in %s (%d vs %d) — not \
               comparable"
              path f (int_field r0 f) (int_field r f))
        (exs @ rps))
    [ "scale"; "jobs" ];
  let median = function
    | [] -> fail_dominates "empty sample in %s" path
    | vs ->
        let a = Array.of_list vs in
        Array.sort compare a;
        let n = Array.length a in
        if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  let timings r =
    match member "experiments" r with
    | Some (List es) ->
        List.map (fun e -> (member "id" e, float_field e "wall_s")) es
    | _ -> fail_dominates "run in %s lacks an experiments list" path
  in
  let med_rows rs =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun r ->
        List.iter
          (fun (id, s) ->
            match Hashtbl.find_opt tbl id with
            | Some cell -> cell := s :: !cell
            | None ->
                Hashtbl.add tbl id (ref [ s ]);
                order := id :: !order)
          (timings r))
      rs;
    List.rev_map (fun id -> (id, median !(Hashtbl.find tbl id))) !order
  in
  let ex_rows = med_rows exs in
  List.iter
    (fun (id, rp_s) ->
      match List.assoc_opt id ex_rows with
      | None -> ()
      | Some ex_s ->
          let slack = Float.max 0.05 (0.1 *. ex_s) in
          if rp_s > ex_s +. slack then
            fail_dominates
              "%s: median replay %.3fs vs execute %.3fs (slack %.3fs)"
              (match id with Some (Str s) -> s | _ -> "?")
              rp_s ex_s slack)
    (med_rows rps);
  let med_total rs = median (List.map (fun r -> float_field r "total_wall_s") rs) in
  let ex_total = med_total exs and rp_total = med_total rps in
  if rp_total > dominate_factor *. ex_total then
    fail_dominates
      "total: median replay %.3fs is not within %.2fx of execute %.3fs \
       (bar %.3fs)"
      rp_total dominate_factor ex_total
      (dominate_factor *. ex_total);
  Fmt.epr
    "replay dominates execute: median total %.3fs vs %.3fs (%.2fx, bar \
     %.2fx; %d+%d runs)@."
    rp_total ex_total (rp_total /. ex_total) dominate_factor
    (List.length rps) (List.length exs)

(* --- entry -------------------------------------------------------------- *)

let usage () =
  Fmt.epr
    "usage: main.exe [--scale N] [--jobs N] [--engine execute|replay|auto] \
     [--metrics FILE] [--store DIR] [--save FILE \
     [--assert-replay-dominates]] [all | <id>...]@.";
  Fmt.epr "experiments: %s@." (String.concat " " ids);
  exit 1

(** [int_flag flag arg]: a positive integer argument, or a usage error —
    never a bare [int_of_string] exception. *)
let int_flag flag = function
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          Fmt.epr "%s expects a positive integer, got %S@." flag s;
          usage ())
  | None ->
      Fmt.epr "%s needs an argument@." flag;
      usage ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let metrics = ref None in
  let engine = ref Rc_harness.Experiments.Auto in
  let save = ref None in
  let assert_dom = ref false in
  let store_dir = ref None in
  (* Flags may appear before, between or after the experiment ids. *)
  let rec parse acc = function
    | "--scale" :: rest ->
        let n, rest =
          match rest with
          | v :: tl -> (int_flag "--scale" (Some v), tl)
          | [] -> (int_flag "--scale" None, [])
        in
        scale := n;
        parse acc rest
    | "--jobs" :: rest ->
        let n, rest =
          match rest with
          | v :: tl -> (int_flag "--jobs" (Some v), tl)
          | [] -> (int_flag "--jobs" None, [])
        in
        jobs := n;
        parse acc rest
    | "--metrics" :: rest -> (
        match rest with
        | v :: tl ->
            metrics := Some v;
            parse acc tl
        | [] ->
            Fmt.epr "--metrics needs an argument@.";
            usage ())
    | "--engine" :: rest -> (
        match rest with
        | v :: tl -> (
            match Rc_harness.Experiments.engine_of_string v with
            | Some e ->
                engine := e;
                parse acc tl
            | None ->
                Fmt.epr "--engine expects execute, replay or auto, got %S@." v;
                usage ())
        | [] ->
            Fmt.epr "--engine needs an argument@.";
            usage ())
    | "--save" :: rest -> (
        match rest with
        | v :: tl ->
            save := Some v;
            parse acc tl
        | [] ->
            Fmt.epr "--save needs an argument@.";
            usage ())
    | "--assert-replay-dominates" :: rest ->
        assert_dom := true;
        parse acc rest
    | "--store" :: rest -> (
        match rest with
        | v :: tl ->
            store_dir := Some v;
            parse acc tl
        | [] ->
            Fmt.epr "--store needs an argument@.";
            usage ())
    | x :: _ when String.length x > 1 && x.[0] = '-' ->
        Fmt.epr "unknown option %s@." x;
        usage ()
    | x :: rest -> parse (x :: acc) rest
    | [] -> List.rev acc
  in
  let sel = match parse [] args with [] | [ "all" ] -> ids | sel -> sel in
  (match List.filter (fun id -> not (List.mem id ids)) sel with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown experiment%s: %s@."
        (if List.length unknown > 1 then "s" else "")
        (String.concat " " unknown);
      usage ());
  let ctx =
    Rc_harness.Experiments.create ~scale:!scale ~jobs:!jobs ~engine:!engine ()
  in
  (match !store_dir with
  | None -> ()
  | Some dir ->
      let st = Rc_serve.Store.open_store ~dir () in
      Rc_harness.Experiments.set_store ctx ~probe:(Rc_serve.Store.probe st)
        ~publish:(Rc_serve.Store.publish st));
  Fun.protect
    ~finally:(fun () -> Rc_harness.Experiments.shutdown ctx)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let timings = List.map (fun id -> (id, print_experiment ctx id)) sel in
      let total_s = Unix.gettimeofday () -. t0 in
      (match !save with
      | None ->
          if !assert_dom then begin
            Fmt.epr "--assert-replay-dominates requires --save FILE@.";
            usage ()
          end
      | Some path ->
          (try
             save_sweep path ~scale:!scale ~jobs:!jobs ~engine:!engine
               ~total_s ~timings
               ~stats:(Rc_harness.Experiments.engine_stats ctx)
           with Sys_error m ->
             Fmt.epr "bench: cannot save sweep log: %s@." m;
             exit 1);
          if !assert_dom then assert_replay_dominates path);
      (* Dump the telemetry while the pool is still alive so its
         per-domain stats are included. *)
      match !metrics with
      | None -> ()
      | Some path -> (
          try
            Rc_obs.Fsio.write_atomic path (fun oc ->
                output_string oc
                  (Rc_obs.Json.to_string
                     (Rc_harness.Experiments.metrics_json ctx));
                output_char oc '\n');
            Fmt.epr "metrics written to %s@." path
          with Sys_error m ->
            Fmt.epr "bench: cannot write metrics: %s@." m;
            exit 1))
