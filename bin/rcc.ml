(* rcc — compile-and-simulate driver for the Register Connection
   reproduction.

   Subcommands:
     list                        the twelve benchmark kernels
     run <bench> [options]       compile one kernel and simulate it
     compile <file> [options]    admit a kernel spec document (id + summary)
     compare <bench> [options]   without-RC vs with-RC vs unlimited
     figures [ids] [options]     regenerate the paper's tables and figures
     serve [options]             persistent HTTP simulation service
     dump <bench> [options]      print the generated machine code
     trace <bench> [options]     structured trace (JSONL or Chrome JSON)
     check <bench> [options]     pass-level oracle + machine-vs-oracle lockstep
     fuzz [options]              random programs over the configuration grid

   run and compare take --json for machine-readable output with stable
   key names; trace emits compile-pass spans and a windowed per-cycle
   machine track loadable in Perfetto (--format chrome).  check and
   fuzz exit non-zero on the first divergence and print the report
   (JSON with --json).
*)

open Cmdliner

(* --- shared options ------------------------------------------------------ *)

(** Strictly positive integer argument: a zero or negative value is a
    usage error, never a zero-domain pool or an empty sweep. *)
let pos_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg (Fmt.str "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Fmt.int)

(** Integer argument from [lo] to [hi]: anything else is a usage
    error, never an exception from the library below. *)
let int_in ~what lo hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some _ | None ->
        Error
          (`Msg (Fmt.str "%s must be an integer in [%d, %d], got %S" what lo hi s))
  in
  Arg.conv (parse, Fmt.int)

(** Core register count of a class, in the range
    {!Rc_harness.Pipeline.options} accepts. *)
let core_count cls ~what =
  int_in ~what (Rc_harness.Pipeline.min_core cls) Rc_harness.Pipeline.max_core

let bench_arg =
  let doc = "Benchmark kernel name (see $(b,rcc list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* run accepts a registry kernel *or* a spec document; the positional
   is optional there and checked against --spec below. *)
let bench_opt_arg =
  let doc =
    "Benchmark kernel name (see $(b,rcc list)); omit when running a \
     submitted spec with $(b,--spec)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let spec_file_arg =
  let doc =
    "Kernel spec document (JSON; $(b,-) reads standard input) to compile \
     and run instead of a registry benchmark.  The document is admitted \
     exactly as $(b,POST /compile) would: strict decode, then the size, \
     depth, function-count and dynamic-weight budgets."
  in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

let oracle_arg =
  let doc =
    "Lockstep the first $(docv) machine cycles against the sequential \
     reference interpreter before timing; a divergence rejects the kernel \
     and prints the differential report."
  in
  Arg.(
    value
    & opt (some (pos_int ~what:"--oracle")) None
    & info [ "oracle" ] ~docv:"CYCLES" ~doc)

let read_spec_file path =
  let read_all ic =
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 4096
       done
     with End_of_file -> ());
    Buffer.contents b
  in
  if path = "-" then Ok (read_all stdin)
  else
    match open_in_bin path with
    | ic ->
        let text = read_all ic in
        close_in ic;
        Ok text
    | exception Sys_error m -> Error m

let issue =
  let doc = "Issue rate (instructions per cycle): 1, 2, 4 or 8." in
  Arg.(
    value & opt (pos_int ~what:"--issue") 4 & info [ "issue" ] ~docv:"N" ~doc)

let core_int =
  let doc = "Core integer registers visible to the instruction set." in
  Arg.(
    value
    & opt (core_count Rc_isa.Reg.Int ~what:"--core-int") 16
    & info [ "core-int" ] ~docv:"N" ~doc)

let core_float =
  let doc = "Core floating-point registers (simulator registers)." in
  Arg.(
    value
    & opt (core_count Rc_isa.Reg.Float ~what:"--core-float") 16
    & info [ "core-float" ] ~docv:"N" ~doc)

let rc =
  let doc = "Enable Register Connection support (256-register file)." in
  Arg.(value & flag & info [ "rc" ] ~doc)

let load_lat =
  let doc =
    Fmt.str "Memory load latency in cycles (the paper's are 2 and 4; 1 to %d)."
      Rc_isa.Latency.max_load
  in
  Arg.(
    value
    & opt (int_in ~what:"--load" 1 Rc_isa.Latency.max_load) 2
    & info [ "load" ] ~docv:"CYCLES" ~doc)

let connect_lat =
  let doc = "Connect instruction latency (0 or 1)." in
  Arg.(
    value
    & opt (int_in ~what:"--connect" 0 1) 0
    & info [ "connect" ] ~docv:"CYCLES" ~doc)

let mem_channels =
  let doc = "Memory channels per cycle (default: 2, or 4 at 8-issue)." in
  Arg.(
    value
    & opt (some (pos_int ~what:"--mem-channels")) None
    & info [ "mem-channels" ] ~docv:"N" ~doc)

let extra_stage =
  let doc = "Model an extra decode stage for mapping-table access." in
  Arg.(value & flag & info [ "extra-stage" ] ~doc)

let model =
  let doc =
    "Automatic reset model: 1 (no-reset), 2 (write-reset), 3 \
     (write-reset-read-update, the paper's choice) or 4 (read-write-reset)."
  in
  let parse s =
    match Rc_core.Model.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown model " ^ s))
  in
  let print ppf m = Rc_core.Model.pp ppf m in
  Arg.(
    value
    & opt (conv (parse, print)) Rc_core.Model.default
    & info [ "model" ] ~docv:"MODEL" ~doc)

let scale =
  let doc = "Workload input scale factor (positive)." in
  Arg.(
    value
    & opt (pos_int ~what:"--scale") 1
    & info [ "scale" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for multi-configuration subcommands (compare); \
     positive."
  in
  Arg.(
    value
    & opt (pos_int ~what:"--jobs") (Domain.recommended_domain_count ())
    & info [ "jobs" ] ~docv:"N" ~doc)

let no_unroll =
  let doc = "Disable the ILP loop unrolling (classical optimisation only)." in
  Arg.(value & flag & info [ "no-unroll" ] ~doc)

let json_flag =
  let doc =
    "Machine-readable JSON output (stable key names, one object per \
     configuration) instead of the formatted text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let engine_arg =
  let doc =
    "Timing engine: $(b,execute) (execution-driven simulation), $(b,replay) \
     (record the dynamic trace once, re-time by trace replay), or $(b,auto) \
     (replay whenever a recorded trace for the compiled image is available). \
     All engines produce identical results."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("execute", Rc_harness.Experiments.Execute);
             ("replay", Rc_harness.Experiments.Replay);
             ("auto", Rc_harness.Experiments.Auto);
           ])
        Rc_harness.Experiments.Auto
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let store_dir_arg =
  let doc =
    "On-disk trace store directory (created if missing): recorded traces \
     persist there and later processes — another $(b,rcc run), a figures \
     sweep, a restarted server — re-time by replay instead of executing."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let store_max_bytes_arg =
  let doc =
    "Byte cap for $(b,--store): beyond it the least-recently-used records \
     are evicted (default: unbounded)."
  in
  Arg.(
    value
    & opt (some (pos_int ~what:"--store-max-bytes")) None
    & info [ "store-max-bytes" ] ~docv:"BYTES" ~doc)

let open_store store_dir store_max_bytes =
  Option.map
    (fun dir ->
      Rc_serve.Store.open_store ~dir
        ?max_bytes:store_max_bytes ())
    store_dir

let attach_store ctx =
  Option.iter (fun st ->
      Rc_harness.Experiments.set_store ctx ~probe:(Rc_serve.Store.probe st)
        ~publish:(Rc_serve.Store.publish st))

(** One-shot timing for $(b,run): the harness's trace-cache policy on a
    single-domain context with the [store] attached, so a trace a
    previous process published replays.  Returns the result and the
    engine that produced it. *)
let simulate_one ?store ~scale (c : Rc_harness.Pipeline.compiled) =
  let ctx = Rc_harness.Experiments.create ~scale ~jobs:1 () in
  attach_store ctx store;
  Fun.protect
    ~finally:(fun () -> Rc_harness.Experiments.shutdown ctx)
    (fun () -> Rc_harness.Experiments.simulate_cell ctx c)

(* CLI knobs to pipeline options — shared with the server's /run
   decoder so both front ends apply identical defaults. *)
let options_of = Rc_serve.Payload.options_of

(* --- subcommands ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Rc_workloads.Wutil.bench) ->
        Fmt.pr "%-12s %-6s %s@." b.Rc_workloads.Wutil.name
          (match b.Rc_workloads.Wutil.kind with
          | Rc_workloads.Wutil.Int_bench -> "int"
          | Rc_workloads.Wutil.Float_bench -> "float")
          b.Rc_workloads.Wutil.description)
      (Rc_workloads.Registry.all ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels")
    Term.(const run $ const ())

let compile_one bench opts scale =
  let b = Rc_workloads.Registry.find bench in
  let prog = b.Rc_workloads.Wutil.build scale in
  Rc_harness.Pipeline.compile opts prog

let print_result (c : Rc_harness.Pipeline.compiled) (r : Rc_machine.Machine.result) =
  let bk = c.Rc_harness.Pipeline.breakdown in
  Fmt.pr "cycles        %d@." r.Rc_machine.Machine.cycles;
  Fmt.pr "instructions  %d (ipc %.2f)@." r.Rc_machine.Machine.issued
    (float_of_int r.Rc_machine.Machine.issued
    /. float_of_int (max 1 r.Rc_machine.Machine.cycles));
  Fmt.pr "connects      %d dynamic, %d static@." r.Rc_machine.Machine.connects
    bk.Rc_isa.Mcode.connects;
  Fmt.pr "memory ops    %d@." r.Rc_machine.Machine.mem_ops;
  Fmt.pr "branches      %d (%d mispredicted)@." r.Rc_machine.Machine.branches
    r.Rc_machine.Machine.mispredicts;
  Fmt.pr "stalls        %d data, %d map, %d channel@."
    r.Rc_machine.Machine.data_stalls r.Rc_machine.Machine.map_stalls
    r.Rc_machine.Machine.channel_stalls;
  let issue_slots = r.Rc_machine.Machine.cycles * c.Rc_harness.Pipeline.opts.Rc_harness.Pipeline.issue in
  Fmt.pr
    "lost slots    %d of %d (%.1f%%): %d data, %d map, %d channel, %d branch, \
     %d fetch@."
    (Rc_machine.Machine.lost_slots r)
    issue_slots
    (100.0
    *. float_of_int (Rc_machine.Machine.lost_slots r)
    /. float_of_int (max 1 issue_slots))
    r.Rc_machine.Machine.lost_data r.Rc_machine.Machine.lost_map
    r.Rc_machine.Machine.lost_channel r.Rc_machine.Machine.lost_branch
    r.Rc_machine.Machine.lost_fetch;
  Fmt.pr
    "code size     %d insns (%d normal, %d spill, %d save, %d xsave, %d connect)@."
    (bk.Rc_isa.Mcode.normal + bk.Rc_isa.Mcode.spill + bk.Rc_isa.Mcode.save
   + bk.Rc_isa.Mcode.xsave + bk.Rc_isa.Mcode.connects)
    bk.Rc_isa.Mcode.normal bk.Rc_isa.Mcode.spill bk.Rc_isa.Mcode.save
    bk.Rc_isa.Mcode.xsave bk.Rc_isa.Mcode.connects;
  Fmt.pr "spilled vregs %d@." c.Rc_harness.Pipeline.spills;
  Fmt.pr "checksum      %Ld (verified against the reference interpreter)@."
    r.Rc_machine.Machine.checksum

(* --- JSON output ---------------------------------------------------------- *)

(* The machine-readable documents live in Rc_serve.Payload, shared
   with the HTTP service so both front ends emit identical bytes. *)
let config_result_json = Rc_serve.Payload.config_result_json

(* Admit a spec document from disk/stdin through the same pipeline the
   service uses ({!Rc_check.Spec}), so `rcc compile`/`rcc run --spec`
   and POST /compile agree on every rejection and every kernel id. *)
let spec_of_file path =
  match read_spec_file path with
  | Error m -> Error (Fmt.str "cannot read %s: %s" path m)
  | Ok text -> (
      match Rc_check.Spec.of_string text with
      | Error e -> Error (Rc_check.Spec.error_detail e)
      | Ok s -> Ok s)

(* The oracle gate shared by run and compile: [Ok None] when not asked
   for, [Ok (Some verdict_json)] on agreement, [Error report] on
   divergence. *)
let oracle_of cycles (c : Rc_harness.Pipeline.compiled) =
  match cycles with
  | None -> Ok None
  | Some cycles -> (
      match Rc_check.Spec.oracle ~cycles c with
      | Rc_check.Spec.Diverged r -> Error r
      | v -> Ok (Some (Rc_check.Spec.verdict_json v)))

let run_cmd =
  let run bench spec_file oracle issue core_int core_float rc load connect
      mem_channels extra_stage model scale no_unroll store_dir store_max_bytes
      json =
    let opts =
      options_of ~issue ~core_int ~core_float ~rc ~load ~connect ~mem_channels
        ~extra_stage ~model ~no_unroll
    in
    let resolved =
      match (bench, spec_file) with
      | Some b, None -> Ok (b, compile_one b opts scale)
      | None, Some f ->
          Result.map
            (fun s ->
              let b = Rc_check.Spec.bench_of s in
              ( b.Rc_workloads.Wutil.name,
                Rc_harness.Pipeline.compile opts
                  (b.Rc_workloads.Wutil.build scale) ))
            (spec_of_file f)
      | Some _, Some _ -> Error "BENCH and --spec are mutually exclusive"
      | None, None -> Error "one of BENCH or --spec is required"
    in
    match resolved with
    | Error m ->
        Fmt.epr "rcc run: %s@." m;
        2
    | Ok (bench, c) -> (
        match oracle_of oracle c with
        | Error r ->
            Fmt.epr "rcc run: admission oracle diverged:@.%a@."
              Rc_check.Report.pp r;
            1
        | Ok orc ->
            let store = open_store store_dir store_max_bytes in
            let r, engine_used = simulate_one ?store ~scale c in
            (match store with
            | None -> ()
            | Some st ->
                let s = Rc_serve.Store.stats st in
                (* stderr, so --json stdout stays a single document *)
                Fmt.epr "rcc run: store %s: %d hit, %d miss, %d published@."
                  (Rc_serve.Store.dir st) s.Rc_serve.Store.hits
                  s.Rc_serve.Store.misses s.Rc_serve.Store.published);
            if json then
              Fmt.pr "%s@."
                (Rc_obs.Json.to_string
                   (Rc_serve.Payload.run_response ?oracle:orc ~bench ~scale
                      ~engine_used c r))
            else begin
              Fmt.pr "== %s ==@." bench;
              print_result c r;
              (match orc with
              | Some v ->
                  Fmt.pr "oracle        %s@." (Rc_obs.Json.to_string v)
              | None -> ());
              if engine_used = "replay" then
                Fmt.pr "engine        replay (re-timed from the recorded trace)@."
            end;
            0)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile one kernel — a registry benchmark or a $(b,--spec) \
          document — and simulate it")
    Term.(
      const run $ bench_opt_arg $ spec_file_arg $ oracle_arg $ issue
      $ core_int $ core_float $ rc $ load_lat $ connect_lat $ mem_channels
      $ extra_stage $ model $ scale $ no_unroll $ store_dir_arg
      $ store_max_bytes_arg $ json_flag)

(* --- compile ---------------------------------------------------------------- *)

let compile_cmd =
  let spec_pos =
    let doc =
      "Kernel spec document (JSON; $(b,-) reads standard input)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file oracle json =
    match spec_of_file file with
    | Error m ->
        Fmt.epr "rcc compile: %s@." m;
        1
    | Ok spec -> (
        let id = Rc_check.Spec.id_of spec in
        let b = Rc_check.Spec.bench_of spec in
        let c =
          Rc_harness.Pipeline.compile
            (Rc_serve.Payload.default_options ())
            (b.Rc_workloads.Wutil.build 1)
        in
        match oracle_of oracle c with
        | Error r ->
            Fmt.epr "rcc compile: admission oracle diverged:@.%a@."
              Rc_check.Report.pp r;
            1
        | Ok orc ->
            if json then
              Fmt.pr "%s@."
                (Rc_obs.Json.to_string
                   (Rc_serve.Payload.compile_response ?oracle:orc ~id spec c))
            else begin
              let bk = c.Rc_harness.Pipeline.breakdown in
              Fmt.pr "kernel        %s@." id;
              Fmt.pr "bench         spec:%s@." id;
              Fmt.pr "spec          %d nodes, depth %d, %d function(s), %d slot(s)@."
                (Rc_check.Gen.size spec) (Rc_check.Gen.depth spec)
                (Array.length spec.Rc_check.Gen.funcs)
                spec.Rc_check.Gen.slots;
              Fmt.pr "fingerprint   %s@."
                (Rc_isa.Image.fingerprint c.Rc_harness.Pipeline.image);
              Fmt.pr
                "code size     %d insns (%d normal, %d spill, %d save, %d \
                 xsave, %d connect)@."
                (bk.Rc_isa.Mcode.normal + bk.Rc_isa.Mcode.spill
               + bk.Rc_isa.Mcode.save + bk.Rc_isa.Mcode.xsave
               + bk.Rc_isa.Mcode.connects)
                bk.Rc_isa.Mcode.normal bk.Rc_isa.Mcode.spill
                bk.Rc_isa.Mcode.save bk.Rc_isa.Mcode.xsave
                bk.Rc_isa.Mcode.connects;
              Fmt.pr "spilled vregs %d@." c.Rc_harness.Pipeline.spills;
              (match orc with
              | Some v -> Fmt.pr "oracle        %s@." (Rc_obs.Json.to_string v)
              | None -> ());
              Fmt.pr
                "run it:       rcc run --spec %s  (or POST /run with \
                 {\"kernel\": %S})@."
                (if file = "-" then "FILE" else file)
                id
            end;
            0)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Admit a kernel spec document (strict decode + budget \
          validation, as POST /compile) and print its kernel id and \
          compiled-image summary")
    Term.(const run $ spec_pos $ oracle_arg $ json_flag)

(* --- figures ---------------------------------------------------------------- *)

let figures_ids =
  let doc =
    "Experiment ids to regenerate (default: every table and figure).  See \
     $(b,rcc figures --list-ids)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let figures_jobs =
  let doc = "Worker domains for the sweep (default 1: sequential); positive." in
  Arg.(
    value & opt (pos_int ~what:"--jobs") 1 & info [ "jobs" ] ~docv:"N" ~doc)

let list_ids_flag =
  let doc = "List the known experiment ids and exit." in
  Arg.(value & flag & info [ "list-ids" ] ~doc)

let all_figure_ids = Rc_serve.Payload.all_figure_ids

(* The cold-cache stderr note prints at most once per process, however
   many times a figures term is evaluated. *)
let cold_note_printed = ref false

let figures_cmd =
  let run ids scale jobs engine store_dir store_max_bytes json list_ids =
    if list_ids then begin
      List.iter (fun id -> Fmt.pr "%s@." id) all_figure_ids;
      0
    end
    else begin
      let ids = match ids with [] -> all_figure_ids | ids -> ids in
      match
        List.filter (fun id -> not (List.mem id all_figure_ids)) ids
      with
      | unknown :: _ ->
          Fmt.epr "rcc figures: unknown experiment %s@." unknown;
          2
      | [] ->
          let ctx = Rc_harness.Experiments.create ~scale ~jobs ~engine () in
          let store = open_store store_dir store_max_bytes in
          attach_store ctx store;
          Fun.protect
            ~finally:(fun () -> Rc_harness.Experiments.shutdown ctx)
            (fun () ->
              let tables =
                List.map
                  (fun id ->
                    match Rc_harness.Experiments.by_id ctx id with
                    | Some t -> t
                    | None -> assert false (* ids were validated above *))
                  ids
              in
              let es = Rc_harness.Experiments.engine_stats ctx in
              if json then
                Fmt.pr "%s@."
                  (Rc_obs.Json.to_string
                     (Rc_serve.Payload.figures_response ~scale
                        ~jobs:(Rc_harness.Experiments.jobs ctx)
                        ~engine_name:
                          (Rc_harness.Experiments.engine_name engine)
                        ~stats:es tables))
              else begin
                List.iter
                  (Rc_harness.Experiments.print_table Fmt.stdout)
                  tables;
                (* Stderr, so stdout stays byte-comparable across
                   engines and jobs counts. *)
                Fmt.epr
                  "engine %s: %d replayed (%d from store), %d executed (%d \
                   traces recorded, %d trace bytes)@."
                  (Rc_harness.Experiments.engine_name engine)
                  es.Rc_harness.Experiments.hits
                  es.Rc_harness.Experiments.store_hits
                  es.Rc_harness.Experiments.misses
                  es.Rc_harness.Experiments.recorded
                  es.Rc_harness.Experiments.bytes;
                if
                  es.Rc_harness.Experiments.seg_hits > 0
                  || es.Rc_harness.Experiments.seg_misses > 0
                  || es.Rc_harness.Experiments.seg_fallbacks > 0
                then
                  Fmt.epr
                    "timing memo: %d block hits, %d misses, %d fallbacks \
                     (%d memo bytes)@."
                    es.Rc_harness.Experiments.seg_hits
                    es.Rc_harness.Experiments.seg_misses
                    es.Rc_harness.Experiments.seg_fallbacks
                    es.Rc_harness.Experiments.memo_bytes
              end;
              (* A single-shot sweep records more than it replays on
                 mostly-distinct images; a long-lived context (rcc
                 serve) amortises those recordings across requests.
                 Store hits fold into the decision: a disk hit warmed
                 the cache mid-run, so the cache was not cold even when
                 this process still recorded more than it replayed. *)
              if
                es.Rc_harness.Experiments.recorded
                > es.Rc_harness.Experiments.hits
                   + es.Rc_harness.Experiments.store_hits
                && not !cold_note_printed
              then begin
                cold_note_printed := true;
                Fmt.epr
                  "note: cold trace cache (%d traces recorded for %d \
                   replays); a warm `rcc serve` context or `--store` \
                   amortises the recordings@."
                  es.Rc_harness.Experiments.recorded
                  es.Rc_harness.Experiments.hits
              end;
              (match store with
              | None -> ()
              | Some st ->
                  let s = Rc_serve.Store.stats st in
                  Fmt.epr
                    "store %s: %d hit, %d miss, %d published, %d evicted \
                     (%d bytes in %d files)@."
                    (Rc_serve.Store.dir st) s.Rc_serve.Store.hits
                    s.Rc_serve.Store.misses s.Rc_serve.Store.published
                    s.Rc_serve.Store.evicted s.Rc_serve.Store.bytes
                    s.Rc_serve.Store.files);
              0)
    end
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the paper's tables and figures.  The timing engine \
          records each distinct compiled image once and re-times every \
          other grid point by trace replay; tables are byte-identical for \
          every engine and jobs count")
    Term.(
      const run $ figures_ids $ scale $ figures_jobs $ engine_arg
      $ store_dir_arg $ store_max_bytes_arg $ json_flag $ list_ids_flag)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let host =
    let doc = "Listen address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port =
    let doc = "Listen port; 0 picks an ephemeral port." in
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 && n <= 65535 -> Ok n
      | Some _ | None -> Error (`Msg ("--port must be 0..65535, got " ^ s))
    in
    Arg.(
      value & opt (Arg.conv (parse, Fmt.int)) 8080
      & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let max_inflight =
    let doc =
      "Accepted-but-unfinished request bound; beyond it the accept loop \
       sheds load with 503 + Retry-After."
    in
    Arg.(
      value
      & opt (pos_int ~what:"--max-inflight") 64
      & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_body =
    let doc = "Request body limit in bytes (413 beyond it)." in
    Arg.(
      value
      & opt (pos_int ~what:"--max-body") (1 lsl 20)
      & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let deadline =
    let doc =
      "Per-request deadline in seconds: slow reads answer 408, responses \
       whose work finished after the deadline are abandoned."
    in
    let parse s =
      match float_of_string_opt s with
      | Some f when f > 0.0 -> Ok f
      | Some _ | None ->
          Error (`Msg ("--deadline must be a positive number, got " ^ s))
    in
    Arg.(
      value & opt (Arg.conv (parse, Fmt.float)) 30.0
      & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let trace_file =
    let doc =
      "Write the retained per-request span traces (what $(b,GET /trace) \
       answers) as Chrome trace-event JSON to $(docv) after draining."
    in
    Arg.(
      value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let slow_ms =
    let doc =
      "Dump the span breakdown (admission queue, parse, compile, \
       simulate, render, write) of every request slower than $(docv) \
       milliseconds to stderr."
    in
    let parse s =
      match float_of_string_opt s with
      | Some f when f >= 0.0 -> Ok f
      | Some _ | None ->
          Error (`Msg ("--slow-ms must be a non-negative number, got " ^ s))
    in
    Arg.(
      value
      & opt (some (Arg.conv (parse, Fmt.float))) None
      & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let quiet =
    let doc = "Suppress the per-request access-log lines on stderr." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let workers_arg =
    let doc =
      "Prefork worker processes accepting on one shared listener (the \
       kernel load-balances connections).  Each worker owns its own \
       context — memo tables, trace cache, domain pool — sharing only \
       the $(b,--store) directory; the parent respawns dead workers and \
       fans SIGTERM out for a graceful drain.  Default 1: single \
       process, no fork."
    in
    Arg.(
      value
      & opt (pos_int ~what:"--workers") 1
      & info [ "workers" ] ~docv:"N" ~doc)
  in
  (* The server times on the replay engine: the first request for an
     image records its trace, the second is re-timed from the cache and
     keeps the compiled image, which later requests reuse. *)
  let engine = Rc_harness.Experiments.Replay in
  (* One worker process: context, server, signal wiring, drain.
     [announce] is false for prefork workers — the parent already
     printed the listening line (Serve_client.spawn and perfbench
     parse exactly one). *)
  let serve_one ~announce ?listener ?pending ~host ~port ~jobs ~scale
      ~max_inflight ~max_body ~deadline ~trace_file ~slow_ms ~quiet ~store_dir
      ~store_max_bytes () =
    (* OCaml 5.1's major-GC pacing falls behind a hot server's mix —
       requests that allocate little on the minor heap beside a few
       large predecode and schedule arrays — and at the default space
       overhead of 120 lets the heap grow without bound: 20 MB to
       290 MB over 3,000 hot /run requests.  80, OCaml 4's default,
       holds it at its working set. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
    let ctx =
      Rc_harness.Experiments.create ~scale ~jobs ~engine
        ~max_bytes:Rc_serve.Server.stage_cache_bytes ()
    in
    let store = open_store store_dir store_max_bytes in
    let srv =
      Rc_serve.Server.create
        ~config:
          {
            Rc_serve.Server.default_config with
            Rc_serve.Server.host;
            port;
            max_inflight;
            max_body;
            deadline_s = deadline;
            access_log = not quiet;
            slow_ms;
          }
        ?listener ?store ctx
    in
    (* A client vanishing mid-response must be an abandoned write, not
       a fatal SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    List.iter
      (fun s ->
        Sys.set_signal s
          (Sys.Signal_handle (fun _ -> Rc_serve.Server.stop srv)))
      [ Sys.sigterm; Sys.sigint ];
    (* A stop signal that raced worker startup was parked in [pending]
       by the shim handler; honour it now that the server exists. *)
    (match pending with
    | Some p when !p -> Rc_serve.Server.stop srv
    | _ -> ());
    if announce then
      (* Narration on stderr: stdout stays free for machine-readable
         use (and the smoke driver parses this line for the bound
         port). *)
      Fmt.epr
        "rcc serve: listening on http://%s:%d (jobs %d, scale %d, engine \
         %s, deadline %gs)@."
        host
        (Rc_serve.Server.port srv)
        (Rc_harness.Experiments.jobs ctx)
        scale
        (Rc_harness.Experiments.engine_name engine)
        deadline;
    Rc_serve.Server.run srv;
    Fmt.epr "rcc serve%s: drained %d request(s), shutting down@."
      (if announce then "" else Fmt.str "[%d]" (Unix.getpid ()))
      (Rc_serve.Server.served srv);
    (match trace_file with
    | None -> ()
    | Some path ->
        Rc_obs.Fsio.write_atomic path (fun oc ->
            output_string oc (Rc_serve.Server.trace_chrome srv);
            output_char oc '\n');
        Fmt.epr "rcc serve: wrote request-span trace to %s@." path);
    Rc_harness.Experiments.shutdown ctx;
    0
  in
  let run host port jobs scale max_inflight max_body deadline trace_file
      slow_ms quiet workers store_dir store_max_bytes =
    if workers = 1 then
      serve_one ~announce:true ~host ~port ~jobs ~scale ~max_inflight
        ~max_body ~deadline ~trace_file ~slow_ms ~quiet ~store_dir
        ~store_max_bytes ()
    else begin
      (* Prefork: the parent opens the listener and forks [workers]
         children that accept on the shared fd.  The parent must never
         create an Experiments context — [Unix.fork] is unsafe once
         domains exist, and the pool spawns domains — so every child
         builds its own context {e after} the fork, sharing only the
         on-disk store. *)
      let config =
        { Rc_serve.Server.default_config with Rc_serve.Server.host; port }
      in
      let listener, bound_port = Rc_serve.Server.create_listener config in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Fmt.epr
        "rcc serve: listening on http://%s:%d (workers %d, jobs %d, scale \
         %d, engine %s, deadline %gs)@."
        host bound_port workers jobs scale
        (Rc_harness.Experiments.engine_name engine)
        deadline;
      let worker () =
        (* The inherited SIGTERM disposition belongs to the parent
           (it fans out to the worker table).  Park arriving signals
           in a flag until this worker's server exists, then hand
           them to its stop. *)
        let pending = ref false in
        List.iter
          (fun s ->
            Sys.set_signal s (Sys.Signal_handle (fun _ -> pending := true)))
          [ Sys.sigterm; Sys.sigint ];
        let trace_file =
          Option.map (fun p -> Fmt.str "%s.%d" p (Unix.getpid ())) trace_file
        in
        let code =
          serve_one ~announce:false ~listener:(listener, bound_port) ~host
            ~port ~jobs ~scale ~max_inflight ~max_body ~deadline
            ~trace_file ~slow_ms ~quiet ~store_dir ~store_max_bytes
            ~pending ()
        in
        exit code
      in
      let pids = Array.make workers 0 in
      let stopping = ref false in
      let spawn slot =
        match Unix.fork () with
        | 0 -> ( try worker () with e ->
            Fmt.epr "rcc serve: worker failed: %s@." (Printexc.to_string e);
            exit 1)
        | pid -> pids.(slot) <- pid
      in
      for slot = 0 to workers - 1 do
        spawn slot
      done;
      let fan_out signal =
        Array.iter
          (fun pid ->
            if pid > 0 then
              try Unix.kill pid signal with Unix.Unix_error _ -> ())
          pids
      in
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle
               (fun _ ->
                 stopping := true;
                 fan_out Sys.sigterm)))
        [ Sys.sigterm; Sys.sigint ];
      (* Reap children; respawn casualties until told to stop.  A
         short pause before each respawn keeps a crash-looping worker
         from spinning the parent. *)
      let slot_of pid =
        let found = ref (-1) in
        Array.iteri (fun i p -> if p = pid then found := i) pids;
        !found
      in
      let alive () = Array.exists (fun p -> p > 0) pids in
      let rec reap () =
        if alive () then begin
          (match Unix.wait () with
          | pid, status -> (
              match slot_of pid with
              | -1 -> () (* not ours *)
              | slot ->
                  pids.(slot) <- 0;
                  if not !stopping then begin
                    (match status with
                    | Unix.WEXITED 0 -> ()
                    | Unix.WEXITED c ->
                        Fmt.epr
                          "rcc serve: worker %d exited %d, respawning@." pid
                          c
                    | Unix.WSIGNALED sg | Unix.WSTOPPED sg ->
                        Fmt.epr
                          "rcc serve: worker %d killed by signal %d, \
                           respawning@."
                          pid sg);
                    (try Unix.sleepf 0.2
                     with Unix.Unix_error _ | Sys.Break -> ());
                    if not !stopping then spawn slot
                  end)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              Array.fill pids 0 workers 0);
          reap ()
        end
      in
      reap ();
      (try Unix.close listener with Unix.Unix_error _ -> ());
      Fmt.epr "rcc serve: all %d worker(s) exited, shutting down@." workers;
      0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent HTTP simulation service: POST /run and POST /figures \
          answer exactly what rcc run --json and rcc figures --json print, \
          from one long-lived context whose memo tables and trace cache \
          stay warm across requests; GET /healthz, GET /version, \
          Prometheus text at GET /metrics (JSON at GET /metrics.json) and \
          per-request span traces at GET /trace for operations.  Sheds \
          load with 503 beyond --max-inflight and drains gracefully on \
          SIGTERM/SIGINT")
    Term.(
      const run $ host $ port $ jobs $ scale $ max_inflight
      $ max_body $ deadline $ trace_file $ slow_ms $ quiet $ workers_arg
      $ store_dir_arg $ store_max_bytes_arg)

let compare_cmd =
  let run bench issue core_int core_float load scale jobs json =
    let lat = Rc_isa.Latency.v ~load () in
    (* The base configuration shares the sweep's memory latency: with
       --load 4 every variant, the baseline included, pays 4-cycle
       loads, as in the paper's Figure 11. *)
    let base_opts =
      Rc_harness.Pipeline.options ~opt:Rc_opt.Pass.Classical ~issue:1
        ~mem_channels:2 ~core_int:Rc_harness.Experiments.unlimited
        ~core_float:Rc_harness.Experiments.unlimited ~lat ()
    in
    let configs =
      [
        ("base", base_opts);
        ( "without RC",
          Rc_harness.Pipeline.options ~rc:false ~issue ~core_int ~core_float
            ~lat () );
        ( "with RC (256 regs)",
          Rc_harness.Pipeline.options ~rc:true ~issue ~core_int ~core_float
            ~lat () );
        ( "unlimited registers",
          Rc_harness.Pipeline.options ~issue
            ~core_int:Rc_harness.Experiments.unlimited
            ~core_float:Rc_harness.Experiments.unlimited ~lat () );
      ]
    in
    (* All four configurations compile and simulate in parallel on the
       pool; results come back in declaration order. *)
    let results =
      Rc_par.Pool.with_pool ~jobs (fun pool ->
          Rc_par.Pool.map_cells pool
            (fun (name, opts) ->
              let c = compile_one bench opts scale in
              let r = Rc_harness.Pipeline.simulate c in
              (name, c, r))
            configs)
    in
    let base_cycles =
      match results with
      | (_, _, base) :: _ -> float_of_int base.Rc_machine.Machine.cycles
      | [] -> assert false
    in
    let speedup (r : Rc_machine.Machine.result) =
      base_cycles /. float_of_int r.Rc_machine.Machine.cycles
    in
    if json then
      Fmt.pr "%s@."
        (Rc_obs.Json.to_string
           (Rc_obs.Json.Obj
              [
                ("bench", Rc_obs.Json.Str bench);
                ("scale", Rc_obs.Json.Int scale);
                ("base_cycles", Rc_obs.Json.Float base_cycles);
                ( "configs",
                  Rc_obs.Json.List
                    (List.map
                       (fun (name, c, r) ->
                         config_result_json ~name ~speedup:(speedup r) c r)
                       results) );
              ]))
    else begin
      Fmt.pr "== %s: base = 1-issue, unlimited registers, classical opt ==@."
        bench;
      List.iter
        (fun (name, c, r) ->
          if name <> "base" then
            Fmt.pr "%-28s cycles %-9d speedup %.2f  connects %-7d spills %d@."
              name r.Rc_machine.Machine.cycles (speedup r)
              r.Rc_machine.Machine.connects c.Rc_harness.Pipeline.spills)
        results
    end;
    0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare without-RC, with-RC and unlimited register files")
    Term.(
      const run $ bench_arg $ issue $ core_int $ core_float $ load_lat $ scale
      $ jobs $ json_flag)

(* --- trace ----------------------------------------------------------------- *)

let trace_format =
  let doc = "Trace format: $(b,jsonl) (one event per line) or $(b,chrome) \
             (trace-event JSON loadable in Perfetto)." in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Chrome
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let cycle_window =
  let doc =
    "Per-cycle machine-trace window $(i,LO:HI) (cycles, half-open).  The \
     compile-pass track is always complete; only machine cycles inside the \
     window are recorded, so traces of billion-cycle runs stay loadable."
  in
  let parse s =
    match Rc_check.Args.cycle_window s with
    | Ok w -> Ok w
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (lo, hi) = Fmt.pf ppf "%d:%d" lo hi in
  Arg.(
    value
    & opt (conv (parse, print)) (0, 10_000)
    & info [ "cycles" ] ~docv:"LO:HI" ~doc)

(** Record the compile passes as spans on a "compile" track (timeline
    rebased to the first pass) and the windowed machine cycles as
    counter samples on a "machine" track (1 cycle = 1 us of trace
    time). *)
let build_trace (c : Rc_harness.Pipeline.compiled) ~window:(lo, hi) =
  let tr = Rc_obs.Trace.create () in
  let passes = c.Rc_harness.Pipeline.passes in
  let t0 =
    List.fold_left
      (fun acc (p : Rc_harness.Pipeline.pass_metric) ->
        Float.min acc p.Rc_harness.Pipeline.p_start_s)
      infinity passes
  in
  List.iter
    (fun (p : Rc_harness.Pipeline.pass_metric) ->
      Rc_obs.Trace.span tr ~track:"compile" ~name:p.Rc_harness.Pipeline.p_name
        ~ts_us:((p.Rc_harness.Pipeline.p_start_s -. t0) *. 1e6)
        ~dur_us:(p.Rc_harness.Pipeline.p_wall_s *. 1e6)
        ~args:
          [
            ("size_in", Rc_obs.Json.Int p.Rc_harness.Pipeline.p_size_in);
            ("size_out", Rc_obs.Json.Int p.Rc_harness.Pipeline.p_size_out);
            ("spills", Rc_obs.Json.Int p.Rc_harness.Pipeline.p_spills);
            ("connects", Rc_obs.Json.Int p.Rc_harness.Pipeline.p_connects);
          ]
        ())
    passes;
  let observer (s : Rc_machine.Machine.cycle_sample) =
    if s.Rc_machine.Machine.s_cycle >= lo && s.Rc_machine.Machine.s_cycle < hi
    then
      Rc_obs.Trace.counter tr ~track:"machine" ~name:"slots"
        ~ts_us:(float_of_int s.Rc_machine.Machine.s_cycle)
        [
          ("issued", float_of_int s.Rc_machine.Machine.s_issued);
          ("lost_data", float_of_int s.Rc_machine.Machine.s_lost_data);
          ("lost_map", float_of_int s.Rc_machine.Machine.s_lost_map);
          ("lost_channel", float_of_int s.Rc_machine.Machine.s_lost_channel);
          ("lost_branch", float_of_int s.Rc_machine.Machine.s_lost_branch);
          ("lost_fetch", float_of_int s.Rc_machine.Machine.s_lost_fetch);
        ]
  in
  let r = Rc_harness.Pipeline.simulate ~observer c in
  (tr, r)

let trace_cmd =
  let run bench issue core_int core_float rc load connect mem_channels
      extra_stage model scale no_unroll format window =
    let opts =
      options_of ~issue ~core_int ~core_float ~rc ~load ~connect ~mem_channels
        ~extra_stage ~model ~no_unroll
    in
    let c = compile_one bench opts scale in
    let tr, _ = build_trace c ~window in
    (match format with
    | `Chrome -> print_string (Rc_obs.Trace.chrome_string tr)
    | `Jsonl -> print_string (Rc_obs.Trace.to_jsonl tr));
    print_newline ();
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Structured trace: compile-pass spans plus a windowed per-cycle \
          machine track (JSONL or Chrome trace-event JSON)")
    Term.(
      const run $ bench_arg $ issue $ core_int $ core_float $ rc $ load_lat
      $ connect_lat $ mem_channels $ extra_stage $ model $ scale $ no_unroll
      $ trace_format $ cycle_window)

(* --- check / fuzz ----------------------------------------------------------- *)

let check_cmd =
  let run bench issue core_int core_float rc load connect mem_channels
      extra_stage model scale no_unroll json =
    let opts =
      options_of ~issue ~core_int ~core_float ~rc ~load ~connect ~mem_channels
        ~extra_stage ~model ~no_unroll
    in
    let prog = (Rc_workloads.Registry.find bench).Rc_workloads.Wutil.build scale in
    let fail (r : Rc_check.Report.t) =
      if json then
        Fmt.pr "%s@." (Rc_obs.Json.to_string (Rc_check.Report.to_json r))
      else Fmt.pr "%a@." Rc_check.Report.pp r;
      1
    in
    match Rc_check.Oracle.prepare_checked ~opt:opts.Rc_harness.Pipeline.opt prog with
    | Error r -> fail r
    | Ok prep -> (
        match Rc_check.Oracle.compile_checked opts prep with
        | Error r -> fail r
        | Ok compiled -> (
            match
              Rc_check.Lockstep.run
                (Rc_check.Oracle.config_of_options opts)
                compiled.Rc_harness.Pipeline.image
            with
            | Rc_check.Lockstep.Diverged r -> fail r
            | Rc_check.Lockstep.Agree { cycles; steps } ->
                if json then
                  Fmt.pr "%s@."
                    (Rc_obs.Json.to_string
                       (Rc_obs.Json.Obj
                          [
                            ("bench", Rc_obs.Json.Str bench);
                            ("agree", Rc_obs.Json.Bool true);
                            ("cycles", Rc_obs.Json.Int cycles);
                            ("instructions", Rc_obs.Json.Int steps);
                          ]))
                else
                  Fmt.pr
                    "%s: every pass preserves semantics; machine and oracle \
                     agree over %d cycles (%d instructions)@."
                    bench cycles steps;
                0))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Re-execute after every compiler pass and run the cycle-accurate \
          machine in lockstep against the sequential oracle; report the \
          first divergence with its pass, basic block and disassembly")
    Term.(
      const run $ bench_arg $ issue $ core_int $ core_float $ rc $ load_lat
      $ connect_lat $ mem_channels $ extra_stage $ model $ scale $ no_unroll
      $ json_flag)

let seed_arg =
  let doc = "PRNG seed for program generation (non-negative)." in
  let parse s =
    match Rc_check.Args.seed s with Ok n -> Ok n | Error m -> Error (`Msg m)
  in
  Arg.(
    value
    & opt (conv (parse, Fmt.int)) 0
    & info [ "seed" ] ~docv:"N" ~doc)

let count_arg =
  let doc = "Number of programs to generate (at least 1)." in
  let parse s =
    match Rc_check.Args.count s with Ok n -> Ok n | Error m -> Error (`Msg m)
  in
  Arg.(
    value
    & opt (conv (parse, Fmt.int)) 100
    & info [ "count" ] ~docv:"K" ~doc)

let shrink_flag =
  let doc = "Greedily shrink every failing program to a minimal repro." in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let corpus_arg =
  let doc =
    "Directory to persist failing cases into (one JSON file per \
     divergence, shrunk when $(b,--shrink))."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let fuzz_cmd =
  let run seed count shrink out jobs json =
    let s = Rc_check.Fuzz.run ~jobs ~shrink ?corpus_dir:out ~seed ~count () in
    if json then
      Fmt.pr "%s@." (Rc_obs.Json.to_string (Rc_check.Fuzz.summary_to_json s))
    else begin
      Fmt.pr "fuzz: %d programs x %d grid points, %d divergence(s) in %.1fs@."
        s.Rc_check.Fuzz.programs s.Rc_check.Fuzz.points_per_program
        (List.length s.Rc_check.Fuzz.cases)
        s.Rc_check.Fuzz.wall_s;
      List.iter
        (fun (c : Rc_check.Fuzz.case) ->
          Fmt.pr "@.program %d (seed %d, %s%s):@.%a@." c.Rc_check.Fuzz.program
            c.Rc_check.Fuzz.pseed
            (if c.Rc_check.Fuzz.classical then "classical" else "ilp")
            (match c.Rc_check.Fuzz.point with
            | Some p -> ", " ^ Rc_check.Fuzz.point_name p
            | None -> "")
            Rc_check.Report.pp c.Rc_check.Fuzz.report)
        s.Rc_check.Fuzz.cases
    end;
    if s.Rc_check.Fuzz.cases = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate seeded random programs, push each through the full \
          pipeline at every (model x issue x connect-latency x RC) grid \
          point with the pass-level oracle and lockstep checking, and \
          shrink failures to minimal repros")
    Term.(
      const run $ seed_arg $ count_arg $ shrink_flag $ corpus_arg $ jobs
      $ json_flag)

let dump_cmd =
  let run bench issue core_int core_float rc model scale =
    let opts =
      options_of ~issue ~core_int ~core_float ~rc ~load:2 ~connect:0
        ~mem_channels:None ~extra_stage:false ~model ~no_unroll:false
    in
    let c = compile_one bench opts scale in
    Fmt.pr "%a@." Rc_isa.Mcode.pp c.Rc_harness.Pipeline.mcode;
    0
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print the generated machine code")
    Term.(
      const run $ bench_arg $ issue $ core_int $ core_float $ rc $ model $ scale)

let main_cmd =
  let doc = "Register Connection (ISCA 1993) — compiler and simulator driver" in
  Cmd.group (Cmd.info "rcc" ~version:Rc_serve.Server.version ~doc)
    [
      list_cmd; run_cmd; compile_cmd; compare_cmd; figures_cmd; serve_cmd;
      trace_cmd; dump_cmd; check_cmd; fuzz_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
