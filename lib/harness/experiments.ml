(** Regeneration of every table and figure of the paper's evaluation
    (section 5), over the twelve benchmark kernels.

    Speedups are computed exactly as in the paper: the base configuration
    is a single-issue processor with an unlimited number of registers
    using conventional compiler scalar optimisations (section 5.3).
    Integer benchmarks vary the integer register file with a fixed
    floating-point file; floating-point benchmarks vary the
    floating-point file with a fixed 64-entry integer file (section
    5.2).  The paper counts FP registers for double-precision variables
    (two registers per double); our simulator stores one double per
    register, so FP sweeps are labelled with the paper's register counts
    while the simulator gets half as many (DESIGN.md section 10). *)

open Rc_workloads

(* --- memoising context ------------------------------------------------- *)

(** Everything the harness keeps about one simulated cell: the machine
    result (with its slot-level stall attribution) plus the compile-side
    telemetry. *)
type cell = {
  c_result : Rc_machine.Machine.result;
  c_breakdown : Rc_isa.Mcode.size_breakdown;
  c_spills : int;
  c_passes : Pipeline.pass_metric list;
}

(** How cells are timed.  [Execute] always runs the execution-driven
    simulator.  [Replay] and [Auto] time cells through the trace cache
    ({!time_group}); a single cell simulated outside a figure records
    its trace on its first sighting under [Replay], and only on its
    second under [Auto] (the default), so images simulated once never
    hold a trace. *)
type engine = Execute | Replay | Auto

let engine_name = function
  | Execute -> "execute"
  | Replay -> "replay"
  | Auto -> "auto"

let engine_of_string = function
  | "execute" -> Some Execute
  | "replay" -> Some Replay
  | "auto" -> Some Auto
  | _ -> None

(** Trace-cache counters: every simulated cell increments exactly one
    of [hits] (timed by replaying a cached trace) or [misses]
    (executed); [recorded] counts traces installed by recording and
    [bytes] the traces resident now.  Under [Execute] everything lands
    in [misses]. *)
type engine_stats = {
  hits : int;
  misses : int;
  recorded : int;
  bytes : int;
  store_hits : int;  (** subset of [hits] whose trace came from the store *)
  (* basic-block timing memo (Trace_replay.memo_stats, DESIGN.md §18),
     summed over every replay this context ran *)
  seg_hits : int;
  seg_misses : int;
  seg_fallbacks : int;
  memo_bytes : int;  (** cumulative memo-table footprint, exact *)
}

(** Optional second cache level behind the in-memory trace cache: an
    on-disk store (lib/serve/store.ml, or anything else) exposed as two
    closures so the harness stays ignorant of file formats.  [probe] is
    consulted on an in-memory miss {e before} deciding to execute or
    record; [publish] is offered every freshly recorded trace.  Both
    run outside the stage cache's lock — they do disk IO. *)
type store_hooks = {
  probe : string -> Rc_machine.Dtrace.t option;
  publish : string -> Rc_machine.Dtrace.t -> unit;
}

(* The stage cache's keys: each stage under what determines its
   result. *)
type stage_key =
  | Prepare of string * string  (* kernel, optimisation level *)
  | Allocate of string * string * string  (* kernel, level, alloc_key *)
  | Back of string  (* run key: a cell's back half *)
  | Trace of string  (* trace key *)
  | Run of string  (* run key: a simulated cell *)

type stage =
  | Prepared of Pipeline.prepared
  | Allocated of Pipeline.allocated
  | Compiled of Pipeline.compiled
  | Recorded of Rc_machine.Dtrace.t
  | Ran of cell
  | Seen_once  (* a back half or trace met once: only the sighting kept *)

type ctx = {
  scale : int;
  engine : engine;
  pool : Rc_par.Pool.t;
  (* Every stage of every cell in one domain-safe table: any worker may
     ask for any cell, but each program is prepared, each allocation
     and cell computed once while it is resident.  Traces are added,
     not computed through it: two workers racing on one trace key at
     worst both execute, and replayed results are exact, so table
     contents never depend on the race (only the hit/miss split
     does).  Under a cap (the server's) it is a byte-capped LRU cache;
     an evicted stage is recomputed on its next request. *)
  stages : (stage_key, stage) Rc_par.Memo.t;
  base_cycles : (string, float) Rc_par.Memo.t;
  mutable store : store_hooks option;
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_recorded : int Atomic.t;
  s_store_hits : int Atomic.t;
  s_seg_hits : int Atomic.t;
  s_seg_misses : int Atomic.t;
  s_seg_fallbacks : int Atomic.t;
  s_memo_bytes : int Atomic.t;
}

let create ?(scale = 1) ?(jobs = 1) ?(engine = Auto) ?max_bytes () =
  {
    scale;
    engine;
    pool = Rc_par.Pool.create ~jobs;
    stages = Rc_par.Memo.create ?max_bytes 512;
    base_cycles = Rc_par.Memo.create 16;
    store = None;
    s_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
    s_recorded = Atomic.make 0;
    s_store_hits = Atomic.make 0;
    s_seg_hits = Atomic.make 0;
    s_seg_misses = Atomic.make 0;
    s_seg_fallbacks = Atomic.make 0;
    s_memo_bytes = Atomic.make 0;
  }

let jobs ctx = Rc_par.Pool.jobs ctx.pool
let engine ctx = ctx.engine
let scale ctx = ctx.scale
let pool ctx = ctx.pool
let bump counter n = ignore (Atomic.fetch_and_add counter n)

let engine_stats ctx =
  let n = Atomic.get in
  {
    hits = n ctx.s_hits;
    misses = n ctx.s_misses;
    recorded = n ctx.s_recorded;
    bytes =
      Rc_par.Memo.fold
        (fun _ v acc ->
          match v with
          | Recorded tr -> acc + Rc_machine.Dtrace.bytes tr
          | _ -> acc)
        ctx.stages 0;
    store_hits = n ctx.s_store_hits;
    seg_hits = n ctx.s_seg_hits;
    seg_misses = n ctx.s_seg_misses;
    seg_fallbacks = n ctx.s_seg_fallbacks;
    memo_bytes = n ctx.s_memo_bytes;
  }

(* The counters as the [trace_cache] object of every JSON document
   that reports them: [rcc figures --json], /metrics.json, bench
   --save and --metrics. *)
let engine_stats_json (es : engine_stats) =
  let open Rc_obs.Json in
  Obj
    [
      ("hits", Int es.hits);
      ("misses", Int es.misses);
      ("recorded", Int es.recorded);
      ("bytes", Int es.bytes);
      ("store_hits", Int es.store_hits);
      ("seg_hits", Int es.seg_hits);
      ("seg_misses", Int es.seg_misses);
      ("seg_fallbacks", Int es.seg_fallbacks);
      ("memo_bytes", Int es.memo_bytes);
    ]

(** The stage cache's levels: resident entries (in flight included),
    resident compiled images, charged bytes (0 without a cap), the cap,
    and evictions so far. *)
type stage_stats = {
  entries : int;
  images : int;
  charged : int;
  cap : int option;
  evictions : int;
}

let stage_stats ctx =
  {
    entries = Rc_par.Memo.length ctx.stages;
    images =
      Rc_par.Memo.fold
        (fun _ v n -> match v with Compiled _ -> n + 1 | _ -> n)
        ctx.stages 0;
    charged = Rc_par.Memo.bytes ctx.stages;
    cap = Rc_par.Memo.max_bytes ctx.stages;
    evictions = Rc_par.Memo.evictions ctx.stages;
  }

let stage_stats_json s =
  let open Rc_obs.Json in
  Obj
    [
      ("entries", Int s.entries);
      ("images", Int s.images);
      ("bytes", Int s.charged);
      ("cap", match s.cap with Some c -> Int c | None -> Null);
      ("evictions", Int s.evictions);
    ]

(* Bridge the cache counters into a metrics registry (the serve
   Prometheus exposition).  Hits/misses/recorded and evictions are
   monotone totals accumulated here, so they export as counters;
   resident bytes and entries are levels, gauges. *)
let export_metrics ctx reg =
  let s = engine_stats ctx in
  let st = stage_stats ctx in
  let c name help v =
    Rc_obs.Metrics.set_counter reg ~help name (float_of_int v)
  in
  let g name help v = Rc_obs.Metrics.set reg ~help name (float_of_int v) in
  c "rcc_trace_cache_hits_total" "Cells timed by replaying a cached trace"
    s.hits;
  c "rcc_trace_cache_misses_total" "Replay-eligible cells that executed"
    s.misses;
  c "rcc_trace_cache_recorded_total" "Traces recorded into the cache"
    s.recorded;
  c "rcc_trace_cache_store_hits_total"
    "Trace-cache hits whose trace came from the on-disk store" s.store_hits;
  c "rcc_timing_memo_hits_total"
    "Basic-block visits served by the replay timing memo" s.seg_hits;
  c "rcc_timing_memo_misses_total"
    "Basic-block visits replayed per-entry and recorded into the memo"
    s.seg_misses;
  c "rcc_timing_memo_fallbacks_total"
    "Basic-block visits ineligible for the memo (halt, fuel, overflow)"
    s.seg_fallbacks;
  c "rcc_timing_memo_bytes_total" "Cumulative memo-table bytes, exact"
    s.memo_bytes;
  g "rcc_trace_cache_bytes" "Resident compacted trace bytes" s.bytes;
  g "rcc_stage_cache_bytes" "Bytes charged to the stage cache" st.charged;
  g "rcc_stage_cache_entries" "Entries resident in the stage cache"
    st.entries;
  c "rcc_stage_cache_evictions_total" "Stage-cache entries evicted under the cap"
    st.evictions

let shutdown ctx = Rc_par.Pool.shutdown ctx.pool
let set_store ctx ~probe ~publish = ctx.store <- Some { probe; publish }

(* Keep [tr] as [key]'s trace unless a racing worker already did;
   true when this call installed it. *)
let install ctx key tr =
  Rc_par.Memo.add ctx.stages (Trace key) (Recorded tr)
    ~over:(function Recorded _ -> false | _ -> true)

(* Probe the attached store for [key] — called on an in-memory miss,
   outside the stage cache's lock (it reads a file).  A hit is
   installed in memory (unless a racing worker already recorded the
   key) so later sightings hit memory. *)
let store_probe ctx key =
  match ctx.store with
  | None -> None
  | Some s -> (
      match s.probe key with
      | None -> None
      | Some tr ->
          bump ctx.s_store_hits 1;
          ignore (install ctx key tr);
          Some tr)

let store_publish ctx key tr =
  match ctx.store with None -> () | Some s -> s.publish key tr

let level_key = function
  | Rc_opt.Pass.Classical -> "classical"
  | Rc_opt.Pass.Ilp f -> "ilp" ^ string_of_int f

(* One stage through the cache: computed once while resident. *)
let stage ctx key f = Rc_par.Memo.find_or_compute ctx.stages key f

let prepared ctx (b : Wutil.bench) level =
  match
    stage ctx
      (Prepare (b.Wutil.name, level_key level))
      (fun () -> Prepared (Pipeline.prepare ~opt:level (b.Wutil.build ctx.scale)))
  with
  | Prepared p -> p
  | _ -> assert false

let opts_key (o : Pipeline.options) =
  Fmt.str "%s/rc=%b/%d.%d.%d.%d/%a/c=%b/i=%d/m=%d/l=%d.%d/x=%b"
    (level_key o.Pipeline.opt) o.Pipeline.rc o.Pipeline.core_int
    o.Pipeline.core_float o.Pipeline.total_int o.Pipeline.total_float
    Rc_core.Model.pp o.Pipeline.model o.Pipeline.combine o.Pipeline.issue
    o.Pipeline.mem_channels o.Pipeline.lat.Rc_isa.Latency.load
    o.Pipeline.lat.Rc_isa.Latency.connect o.Pipeline.extra_stage

let run_key (b : Wutil.bench) opts = b.Wutil.name ^ "#" ^ opts_key opts

(** Register allocation and lowering shared (memoised) across every
    configuration with the same {!Pipeline.alloc_key} — the timing axes
    of the figure sweeps (issue rate, memory channels, load latency,
    model, combine, extra stage) re-use one allocation. *)
let allocated ctx (b : Wutil.bench) (opts : Pipeline.options) =
  match
    stage ctx
      (Allocate
         (b.Wutil.name, level_key opts.Pipeline.opt, Pipeline.alloc_key opts))
      (fun () ->
        Allocated (Pipeline.allocate opts (prepared ctx b opts.Pipeline.opt)))
  with
  | Allocated a -> a
  | _ -> assert false

(* The knobs that determine the dynamic instruction stream beyond the
   image bytes: register resolution (reset model, file shapes).  Part
   of the trace-cache key; everything else in [opts] is free to vary
   between recording and replay. *)
let semantic_key (o : Pipeline.options) =
  Fmt.str "%a/%b/%d.%d.%d.%d" Rc_core.Model.pp o.Pipeline.model o.Pipeline.rc
    o.Pipeline.core_int o.Pipeline.core_float o.Pipeline.total_int
    o.Pipeline.total_float

let trace_key (c : Pipeline.compiled) =
  Rc_isa.Image.fingerprint c.Pipeline.image ^ "#" ^ semantic_key c.Pipeline.opts

(* Fold one replay call's memo counters into the context. *)
let fold_memo ctx (m : Rc_machine.Trace_replay.memo_stats) =
  bump ctx.s_seg_hits m.Rc_machine.Trace_replay.m_hits;
  bump ctx.s_seg_misses m.Rc_machine.Trace_replay.m_misses;
  bump ctx.s_seg_fallbacks m.Rc_machine.Trace_replay.m_fallbacks;
  bump ctx.s_memo_bytes m.Rc_machine.Trace_replay.m_bytes

(** The trace-cache policy, the one place that decides how cells are
    timed: [time_group ctx ~reuse key c0 rest] times the group
    [c0 :: rest] of compiled cells sharing trace key [key] and returns
    their results in order, plus whether [c0] was replayed.  A trace
    for [key] in memory or in the store replays the whole group in one
    batched pass.  Otherwise the leader [c0] executes, recording its
    trace when it will pay off — other members to re-time, a key seen
    before, a store to publish to, or a caller that [reuse]s cells —
    and merely noting the sighting when none holds.  Replay reproduces
    execution exactly (DESIGN.md §14), so the policy moves counters,
    never a result. *)
let time_group ctx ~reuse key c0 rest =
  let replay cs tr =
    bump ctx.s_hits (List.length cs);
    let ms = Rc_machine.Trace_replay.memo_stats () in
    let rs = Pipeline.simulate_replay_batch ~stats:ms cs tr in
    fold_memo ctx ms;
    rs
  in
  let miss () = bump ctx.s_misses 1 in
  let cached = Rc_par.Memo.find_opt ctx.stages (Trace key) in
  (* an in-memory miss: a sibling process may have recorded the key
     already, so probe the store before paying for an execution *)
  let trace =
    match cached with Some (Recorded tr) -> Some tr | _ -> store_probe ctx key
  in
  match trace with
  | Some tr -> (replay (c0 :: rest) tr, true)
  | None
    when rest = [] && Option.is_none cached && Option.is_none ctx.store
         && not reuse ->
      miss ();
      ignore (Rc_par.Memo.add ctx.stages (Trace key) Seen_once);
      ([ Pipeline.simulate c0 ], false)
  | None -> (
      miss ();
      let r0, tr = Pipeline.simulate_recorded c0 in
      match tr with
      | None ->
          (* unreplayable after all (overflowed the packed layout):
             execute the rest too *)
          ( r0
            :: List.map
                 (fun c ->
                   miss ();
                   Pipeline.simulate c)
                 rest,
            false )
      | Some tr ->
          if install ctx key tr then bump ctx.s_recorded 1;
          store_publish ctx key tr;
          (r0 :: (if rest = [] then [] else replay rest tr), false))

(** The compile side of {!run_cell}: prepare and allocate through the
    stage cache, then the timing-dependent back half (schedule,
    rc-lower, assemble) on a fresh template copy.  The back half keeps
    the rule {!time_group} applies to traces: a cell's first request
    only notes the sighting, its second keeps the compiled image, and
    later requests reuse that image — so a sweep, which compiles each
    cell once, keeps none. *)
let compile_cell ctx (b : Wutil.bench) (opts : Pipeline.options) =
  let key = Back (run_key b opts) in
  let compile () = Pipeline.compile_allocated opts (allocated ctx b opts) in
  match Rc_par.Memo.find_opt ctx.stages key with
  | Some (Compiled c) -> c
  | Some _ ->
      let c = compile () in
      ignore
        (Rc_par.Memo.add ctx.stages key (Compiled c)
           ~over:(function Seen_once -> true | _ -> false));
      c
  | None ->
      ignore (Rc_par.Memo.add ctx.stages key Seen_once);
      compile ()

(** The simulate side of {!run_cell}, unmemoised: every call goes to
    the engine, so a repeated configuration is re-timed through the
    trace cache (and reports a cache hit) instead of being served from
    the cell memo.  This is the server's [/run] path. *)
let simulate_cell ctx (c : Pipeline.compiled) =
  match ctx.engine with
  | Execute ->
      bump ctx.s_misses 1;
      (Pipeline.simulate c, "execute")
  | Replay | Auto -> (
      let rs, replayed =
        time_group ctx ~reuse:(ctx.engine = Replay) (trace_key c) c []
      in
      (List.hd rs, if replayed then "replay" else "execute"))

let cell_of (c : Pipeline.compiled) r =
  {
    c_result = r;
    c_breakdown = c.Pipeline.breakdown;
    c_spills = c.Pipeline.spills;
    c_passes = c.Pipeline.passes;
  }

(** Compile and simulate one benchmark under one configuration
    (memoised), returning the full telemetry cell. *)
let run_cell ctx (b : Wutil.bench) (opts : Pipeline.options) =
  match
    stage ctx
      (Run (run_key b opts))
      (fun () ->
        let c = compile_cell ctx b opts in
        Ran (cell_of c (fst (simulate_cell ctx c))))
  with
  | Ran c -> c
  | _ -> assert false

(** Compile and simulate one benchmark under one configuration
    (memoised). *)
let run ctx b opts =
  let c = run_cell ctx b opts in
  (c.c_result, c.c_breakdown, c.c_spills)

let unlimited = Pipeline.max_core

(** The paper's base configuration (section 5.3). *)
let base_opts () =
  Pipeline.options ~opt:Rc_opt.Pass.Classical ~issue:1 ~mem_channels:2
    ~core_int:unlimited ~core_float:unlimited ()

let base_cycles ctx (b : Wutil.bench) =
  Rc_par.Memo.find_or_compute ctx.base_cycles b.Wutil.name (fun () ->
      let r, _, _ = run ctx b (base_opts ()) in
      float_of_int r.Rc_machine.Machine.cycles)

let speedup ctx b opts =
  let r, _, _ = run ctx b opts in
  base_cycles ctx b /. float_of_int r.Rc_machine.Machine.cycles

(* --- register-file parameterisation ----------------------------------- *)

(** FP sweeps use the paper's double-counted labels. *)
let fp_actual label = max 6 (label / 2)

let fixed_float_for_int_benches = 32 (* 64 paper registers *)
let fixed_int_for_fp_benches = 64
let rc_total_int = 256
let rc_total_float = 128 (* 256 paper registers *)

(** Options for one benchmark given the varied core size (paper label)
    and whether RC support is present. *)
let reg_opts (b : Wutil.bench) ~label ~rc ?opt ?(issue = 4) ?mem_channels
    ?(lat = Rc_isa.Latency.default) ?(model = Rc_core.Model.default)
    ?(combine = true) ?(extra_stage = false) () =
  match b.Wutil.kind with
  | Wutil.Int_bench ->
      Pipeline.options ~rc ?opt ~issue ?mem_channels ~lat ~model ~combine
        ~extra_stage ~core_int:label ~core_float:fixed_float_for_int_benches
        ~total_int:rc_total_int ~total_float:fixed_float_for_int_benches ()
  | Wutil.Float_bench ->
      Pipeline.options ~rc ?opt ~issue ?mem_channels ~lat ~model ~combine
        ~extra_stage ~core_int:fixed_int_for_fp_benches
        ~core_float:(fp_actual label) ~total_int:fixed_int_for_fp_benches
        ~total_float:rc_total_float ()

let unlimited_opts ?(issue = 4) ?mem_channels ?(lat = Rc_isa.Latency.default)
    () =
  Pipeline.options ~issue ?mem_channels ~lat ~core_int:unlimited
    ~core_float:unlimited ()

(** The per-benchmark small-core size used in Figures 10-13: 16 integer
    registers for integer benchmarks, 32 (paper label) floating-point
    registers for floating-point benchmarks. *)
let small_label (b : Wutil.bench) =
  match b.Wutil.kind with Wutil.Int_bench -> 16 | Wutil.Float_bench -> 32

(* --- batched prefetch --------------------------------------------------- *)

(** Publish a prefetched cell under its run key so the table thunks
    find it already simulated.  If a racing caller beat us to the key,
    both computed the identical pure value. *)
let memo_cell ctx b opts (c : Pipeline.compiled) r =
  ignore (Rc_par.Memo.add ctx.stages (Run (run_key b opts)) (Ran (cell_of c r)))

(* One prefetch unit of work: every compiled cell sharing a trace key,
   timed by one {!time_group} call. *)
let run_group ctx (key, cells) =
  match cells with
  | [] -> ()
  | (_, _, c0) :: rest ->
      let rs, _ =
        time_group ctx ~reuse:false key c0 (List.map (fun (_, _, c) -> c) rest)
      in
      List.iter2 (fun (b, opts, c) r -> memo_cell ctx b opts c r) cells rs

(** Simulate a table's declared dependencies ahead of its thunk
    fan-out: compile every distinct not-yet-simulated cell (plus each
    benchmark's base-configuration cell) on the pool, group them by
    trace key, and time each group with one {!time_group} call — so K
    grid cells over one image cost one recording and one batched
    decode pass instead of K executions.  Inactive under the [Execute]
    engine.  Deps are a performance declaration, not a correctness
    contract: a cell missing from its table's deps is simply simulated
    by {!simulate_cell}. *)
let prefetch ctx (deps : (Wutil.bench * Pipeline.options) list) =
  if ctx.engine <> Execute then begin
    let seen = Hashtbl.create 64 in
    let bases = Hashtbl.create 16 in
    let keep acc ((b, opts) as dep) =
      let key = run_key b opts in
      if Hashtbl.mem seen key
         || Option.is_some (Rc_par.Memo.find_opt ctx.stages (Run key))
      then acc
      else begin
        Hashtbl.add seen key ();
        dep :: acc
      end
    in
    let distinct =
      List.rev
        (List.fold_left
           (fun acc ((b : Wutil.bench), _ as dep) ->
             let acc = keep acc dep in
             if Hashtbl.mem bases b.Wutil.name then acc
             else begin
               Hashtbl.add bases b.Wutil.name ();
               keep acc (b, base_opts ())
             end)
           [] deps)
    in
    match distinct with
    | [] -> ()
    | distinct ->
        let compiled =
          Rc_par.Pool.map_cells ctx.pool
            (fun (b, opts) -> (b, opts, compile_cell ctx b opts))
            distinct
        in
        let groups = Hashtbl.create 64 in
        let order = ref [] in
        List.iter
          (fun ((_, _, c) as cell) ->
            let key = trace_key c in
            match Hashtbl.find_opt groups key with
            | Some r -> r := cell :: !r
            | None ->
                Hashtbl.add groups key (ref [ cell ]);
                order := key :: !order)
          compiled;
        let tasks =
          List.rev_map
            (fun key -> (key, List.rev !(Hashtbl.find groups key)))
            !order
        in
        ignore (Rc_par.Pool.map_cells ctx.pool (run_group ctx) tasks)
  end

(* --- parallel fan-out --------------------------------------------------- *)

(** One table cell: the configurations it will simulate ([deps], the
    batching prefetch's work list) and the thunk producing its column
    values (evaluated after the prefetch, against warm memo tables). *)
type cell_spec = {
  deps : (Wutil.bench * Pipeline.options) list;
  eval : unit -> float list;
}

(** A single-speedup cell. *)
let sp_spec ctx b opts =
  { deps = [ (b, opts) ]; eval = (fun () -> [ speedup ctx b opts ]) }

(** Evaluate one table's cells on the context's pool: first the batched
    prefetch over every declared dependency, then each cell's thunk,
    flattened in declaration order and reassembled — so the resulting
    rows are identical for every jobs count and engine (cell values
    are memoised pure computations, and {!Rc_par.Pool.map_cells}
    collects by index). *)
let par_rows ctx (rows : (string * cell_spec list) list) :
    (string * float list) list =
  prefetch ctx
    (List.concat_map
       (fun (_, cells) -> List.concat_map (fun s -> s.deps) cells)
       rows);
  let chunks =
    Rc_par.Pool.map_cells ctx.pool
      (fun s -> s.eval ())
      (List.concat_map snd rows)
  in
  let rest = ref chunks in
  List.map
    (fun (name, cells) ->
      let vs =
        List.map
          (fun _ ->
            match !rest with
            | chunk :: tl ->
                rest := tl;
                chunk
            | [] -> invalid_arg "Experiments.par_rows: cell count mismatch")
          cells
      in
      (name, List.concat vs))
    rows

(* --- tables ------------------------------------------------------------ *)

type table = {
  id : string;
  title : string;
  columns : string list;
  rows : (string * float list) list;  (** benchmark, one value per column *)
  note : string;
}

let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let with_geomean t =
  (* One transpose pass instead of [List.nth] per (row, column); the
     per-column values stay in row order so the float reductions in
     [geomean] associate exactly as before. *)
  let cols = List.length t.columns in
  let acc = Array.make cols [] in
  List.iter
    (fun (_, vs) -> List.iteri (fun k v -> acc.(k) <- v :: acc.(k)) vs)
    t.rows;
  let means = List.init cols (fun k -> geomean (List.rev acc.(k))) in
  { t with rows = t.rows @ [ ("geomean", means) ] }

let print_table ppf t =
  Fmt.pf ppf "@.== %s: %s ==@." t.id t.title;
  if t.note <> "" then Fmt.pf ppf "%s@." t.note;
  let w = 10 in
  Fmt.pf ppf "%-12s" "benchmark";
  List.iter (fun c -> Fmt.pf ppf "%*s" w c) t.columns;
  Fmt.pf ppf "@.";
  List.iter
    (fun (name, vs) ->
      Fmt.pf ppf "%-12s" name;
      List.iter (fun v -> Fmt.pf ppf "%*.2f" w v) vs;
      Fmt.pf ppf "@.")
    t.rows

(* --- Table 1 ----------------------------------------------------------- *)

let table1 () =
  let rows2 = Rc_isa.Latency.table1 Rc_isa.Latency.default in
  let rows4 = Rc_isa.Latency.table1 (Rc_isa.Latency.v ~load:4 ()) in
  {
    id = "table1";
    title = "Instruction latencies";
    columns = [ "2cyc-load"; "4cyc-load" ];
    rows =
      List.map2
        (fun (n, l2) (_, l4) -> (n, [ float_of_int l2; float_of_int l4 ]))
        rows2 rows4;
    note = "Deterministic latencies assumed by every simulation (Table 1).";
  }

(* --- Figure 7 ---------------------------------------------------------- *)

let issue_rates = [ 1; 2; 4; 8 ]

let fig7 ctx =
  let columns = List.map (fun i -> Fmt.str "%d-issue" i) issue_rates in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           ( b.Wutil.name,
             List.map
               (fun issue -> sp_spec ctx b (unlimited_opts ~issue ()))
               issue_rates ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig7";
      title = "Speedup with unlimited registers vs issue rate";
      columns;
      rows;
      note =
        "Memory channels: 2 for 1/2/4-issue, 4 for 8-issue; 2-cycle loads.";
    }

(* --- Figure 8 ---------------------------------------------------------- *)

let int_labels = [ 8; 16; 24; 32; 64 ]
let fp_labels = [ 16; 32; 64; 128 ]

let fig8_rows ctx benches labels =
  par_rows ctx
    (List.map
       (fun (b : Wutil.bench) ->
         ( b.Wutil.name,
           List.map
             (fun label ->
               let o_no = reg_opts b ~label ~rc:false () in
               let o_rc = reg_opts b ~label ~rc:true () in
               {
                 deps = [ (b, o_no); (b, o_rc) ];
                 eval =
                   (fun () -> [ speedup ctx b o_no; speedup ctx b o_rc ]);
               })
             labels
           @ [ sp_spec ctx b (unlimited_opts ()) ] ))
       benches)

let fig8_columns labels =
  List.concat_map (fun l -> [ Fmt.str "no%d" l; Fmt.str "rc%d" l ]) labels
  @ [ "unlim" ]

let fig8_int ctx =
  with_geomean
    {
      id = "fig8-int";
      title = "Speedup vs core integer registers (4-issue, 2-cycle load)";
      columns = fig8_columns int_labels;
      rows = fig8_rows ctx (Registry.integer ()) int_labels;
      note = "noN = without RC, rcN = with RC (256 total); dotted line = unlim.";
    }

let fig8_fp ctx =
  with_geomean
    {
      id = "fig8-fp";
      title = "Speedup vs core FP registers (4-issue, 2-cycle load)";
      columns = fig8_columns fp_labels;
      rows = fig8_rows ctx (Registry.floating ()) fp_labels;
      note =
        "FP register counts use the paper's double-counted labels \
         (simulator holds one double per register).";
    }

(* --- Figure 9 ---------------------------------------------------------- *)

(** Code-size increase after register allocation, in percent; for the
    with-RC model also the part caused by extended-register save/restore
    around calls (the black bars). *)
let size_increase (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_isa.Mcode in
  let ideal = float_of_int (bk.normal + bk.save) in
  let extra = float_of_int (bk.spill + bk.xsave + bk.connects) in
  100.0 *. extra /. ideal

let xsave_increase (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_isa.Mcode in
  let ideal = float_of_int (bk.normal + bk.save) in
  100.0 *. float_of_int bk.xsave /. ideal

let fig9_rows ctx benches labels =
  par_rows ctx
    (List.map
       (fun (b : Wutil.bench) ->
         ( b.Wutil.name,
           List.map
             (fun label ->
               let o_no = reg_opts b ~label ~rc:false () in
               let o_rc = reg_opts b ~label ~rc:true () in
               {
                 deps = [ (b, o_no); (b, o_rc) ];
                 eval =
                   (fun () ->
                     let _, bk_no, _ = run ctx b o_no in
                     let _, bk_rc, _ = run ctx b o_rc in
                     [
                       size_increase bk_no;
                       size_increase bk_rc;
                       xsave_increase bk_rc;
                     ]);
               })
             labels ))
       benches)

let fig9_columns labels =
  List.concat_map
    (fun l -> [ Fmt.str "no%d" l; Fmt.str "rc%d" l; Fmt.str "xs%d" l ])
    labels

let fig9_int ctx =
  {
    id = "fig9-int";
    title = "Code size increase %% due to spill/connect code (integer)";
    columns = fig9_columns int_labels;
    rows = fig9_rows ctx (Registry.integer ()) int_labels;
    note =
      "noN = without RC; rcN = with RC (spill+connect+xsave); xsN = \
       extended-register save/restore part of rcN (black bars).";
  }

let fig9_fp ctx =
  {
    id = "fig9-fp";
    title = "Code size increase %% due to spill/connect code (FP)";
    columns = fig9_columns fp_labels;
    rows = fig9_rows ctx (Registry.floating ()) fp_labels;
    note = "";
  }

(* --- per-kernel figures ------------------------------------------------- *)

let kernel_figures ctx (b : Wutil.bench) =
  let labels =
    match b.Wutil.kind with
    | Wutil.Int_bench -> int_labels
    | Wutil.Float_bench -> fp_labels
  in
  [
    {
      id = "kernel-speedup";
      title = Fmt.str "Speedup vs core registers: %s" b.Wutil.name;
      columns = fig8_columns labels;
      rows = fig8_rows ctx [ b ] labels;
      note = "noN = without RC, rcN = with RC; unlim = unlimited registers.";
    };
    {
      id = "kernel-size";
      title = Fmt.str "Code size increase %% over ideal code: %s" b.Wutil.name;
      columns = fig9_columns labels;
      rows = fig9_rows ctx [ b ] labels;
      note =
        "noN = without RC; rcN = with RC (spill+connect+xsave); xsN = \
         extended-register save/restore part of rcN.";
    };
  ]

(* --- Figures 10 and 11 -------------------------------------------------- *)

let fig10_11 ctx ~load ~id =
  let lat = Rc_isa.Latency.v ~load () in
  let columns =
    List.concat_map
      (fun i -> [ Fmt.str "no/%d" i; Fmt.str "rc/%d" i; Fmt.str "un/%d" i ])
      issue_rates
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.map
               (fun issue ->
                 let o_no = reg_opts b ~label ~rc:false ~issue ~lat () in
                 let o_rc = reg_opts b ~label ~rc:true ~issue ~lat () in
                 let o_un = unlimited_opts ~issue ~lat () in
                 {
                   deps = [ (b, o_no); (b, o_rc); (b, o_un) ];
                   eval =
                     (fun () ->
                       [
                         speedup ctx b o_no;
                         speedup ctx b o_rc;
                         speedup ctx b o_un;
                       ]);
                 })
               issue_rates ))
         (Registry.all ()))
  in
  with_geomean
    {
      id;
      title =
        Fmt.str
          "Speedup vs issue rate (%d-cycle load, 16 int / 32 fp core regs)"
          load;
      columns;
      rows;
      note = "no = without RC, rc = with RC, un = unlimited registers.";
    }

let fig10 ctx = fig10_11 ctx ~load:2 ~id:"fig10"
let fig11 ctx = fig10_11 ctx ~load:4 ~id:"fig11"

(* --- Figure 12 ---------------------------------------------------------- *)

let fig12 ctx =
  let scenarios =
    [
      ("0cyc", 0, false);
      ("0cyc+st", 0, true);
      ("1cyc", 1, false);
      ("1cyc+st", 1, true);
    ]
  in
  let columns = "noRC" :: List.map (fun (n, _, _) -> n) scenarios in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             sp_spec ctx b (reg_opts b ~label ~rc:false ())
             :: List.map
                  (fun (_, connect, extra_stage) ->
                    let lat = Rc_isa.Latency.v ~connect () in
                    sp_spec ctx b
                      (reg_opts b ~label ~rc:true ~lat ~extra_stage ()))
                  scenarios ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig12";
      title =
        "Speedup vs RC implementation scenario (4-issue, 2-cycle load)";
      columns;
      rows;
      note =
        "0cyc/1cyc = connect latency; +st = extra pipeline stage for \
         mapping-table access.";
    }

(* --- Figure 13 ---------------------------------------------------------- *)

let fig13 ctx =
  let columns =
    List.concat_map
      (fun load ->
        List.concat_map
          (fun ch -> [ Fmt.str "no%dc/l%d" ch load; Fmt.str "rc%dc/l%d" ch load ])
          [ 2; 4 ])
      [ 2; 4 ]
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.concat_map
               (fun load ->
                 let lat = Rc_isa.Latency.v ~load () in
                 List.map
                   (fun mem_channels ->
                     let o_no =
                       reg_opts b ~label ~rc:false ~mem_channels ~lat ()
                     in
                     let o_rc =
                       reg_opts b ~label ~rc:true ~mem_channels ~lat ()
                     in
                     {
                       deps = [ (b, o_no); (b, o_rc) ];
                       eval =
                         (fun () ->
                           [ speedup ctx b o_no; speedup ctx b o_rc ]);
                     })
                   [ 2; 4 ])
               [ 2; 4 ] ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig13";
      title = "Speedup vs memory channels (4-issue, 2- and 4-cycle load)";
      columns;
      rows;
      note =
        "noNc = without RC with N channels; rcNc = with RC; compare rc2c \
         against no4c: RC at 2 channels vs more memory ports.";
    }

(* --- ablations ----------------------------------------------------------- *)

let ablation_models ctx =
  let columns =
    List.map (fun m -> Fmt.str "m%d" (Rc_core.Model.number m)) Rc_core.Model.all
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.map
               (fun model ->
                 sp_spec ctx b (reg_opts b ~label ~rc:true ~model ()))
               Rc_core.Model.all ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "ablation-models";
      title = "Speedup per automatic-reset model (4-issue, small cores, RC)";
      columns;
      rows;
      note =
        "m1 no-reset, m2 write-reset, m3 write-reset-read-update (paper's \
         choice), m4 read/write-reset.";
    }

let ablation_combine ctx =
  let columns = [ "single"; "combined"; "sgl-size"; "cmb-size" ] in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           let o_single = reg_opts b ~label ~rc:true ~combine:false () in
           let o_comb = reg_opts b ~label ~rc:true ~combine:true () in
           ( b.Wutil.name,
             [
               {
                 deps = [ (b, o_single); (b, o_comb) ];
                 eval =
                   (fun () ->
                     let _, bk_s, _ = run ctx b o_single in
                     let _, bk_c, _ = run ctx b o_comb in
                     [
                       speedup ctx b o_single;
                       speedup ctx b o_comb;
                       size_increase bk_s;
                       size_increase bk_c;
                     ]);
               };
             ] ))
         (Registry.all ()))
  in
  {
    id = "ablation-combine";
    title = "Single vs multiple-connect instructions (speedup, size%)";
    columns;
    rows;
    note = "Paper footnote 1: experiments use the combined connect forms.";
  }

let ablation_unroll ctx =
  (* The paper's closing prediction: "As new code parallelization methods
     become available, we expect that the RC method will become
     beneficial for architectures with 32 or more registers."  We proxy
     "more aggressive parallelization" with the unroll factor and measure
     at 32 core registers. *)
  let factors = [ 1; 2; 4; 8 ] in
  let columns =
    List.concat_map
      (fun f -> [ Fmt.str "no/u%d" f; Fmt.str "rc/u%d" f ])
      factors
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           ( b.Wutil.name,
             List.map
               (fun factor ->
                 let opt = Rc_opt.Pass.Ilp factor in
                 let o_no = reg_opts b ~label:32 ~rc:false ~opt () in
                 let o_rc = reg_opts b ~label:32 ~rc:true ~opt () in
                 {
                   deps = [ (b, o_no); (b, o_rc) ];
                   eval =
                     (fun () -> [ speedup ctx b o_no; speedup ctx b o_rc ]);
                 })
               factors ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "ablation-unroll";
      title =
        "RC benefit at 32 core registers vs parallelization aggressiveness";
      columns;
      rows;
      note =
        "uN = unroll factor N (4-issue, 2-cycle load).  The paper's \
         conclusion predicts the rc/no gap at 32 registers to widen as \
         compilers parallelize more aggressively.";
    }

(* --- telemetry collection ------------------------------------------------ *)

(** Every cell simulated so far, merged deterministically: the memo
    snapshot is sorted by cell key, so the view is identical for every
    [--jobs] count (each cell is a memoised pure computation; only the
    wall-clock fields vary run to run). *)
let cells ctx =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Rc_par.Memo.fold
       (fun k v acc ->
         match (k, v) with Run key, Ran c -> (key, c) :: acc | _ -> acc)
       ctx.stages [])

let pool_stats ctx = Rc_par.Pool.stats ctx.pool

let result_json (r : Rc_machine.Machine.result) =
  let open Rc_obs.Json in
  Obj
    [
      ("cycles", Int r.Rc_machine.Machine.cycles);
      ("issued", Int r.Rc_machine.Machine.issued);
      ("connects", Int r.Rc_machine.Machine.connects);
      ("extra_connects", Int r.Rc_machine.Machine.extra_connects);
      ("mem_ops", Int r.Rc_machine.Machine.mem_ops);
      ("branches", Int r.Rc_machine.Machine.branches);
      ("mispredicts", Int r.Rc_machine.Machine.mispredicts);
      ("data_stalls", Int r.Rc_machine.Machine.data_stalls);
      ("map_stalls", Int r.Rc_machine.Machine.map_stalls);
      ("channel_stalls", Int r.Rc_machine.Machine.channel_stalls);
      ("lost_data", Int r.Rc_machine.Machine.lost_data);
      ("lost_map", Int r.Rc_machine.Machine.lost_map);
      ("lost_channel", Int r.Rc_machine.Machine.lost_channel);
      ("lost_branch", Int r.Rc_machine.Machine.lost_branch);
      ("lost_fetch", Int r.Rc_machine.Machine.lost_fetch);
      ("checksum", Str (Int64.to_string r.Rc_machine.Machine.checksum));
    ]

let pass_json (p : Pipeline.pass_metric) =
  let open Rc_obs.Json in
  Obj
    [
      ("pass", Str p.Pipeline.p_name);
      ("wall_s", Float p.Pipeline.p_wall_s);
      ("size_in", Int p.Pipeline.p_size_in);
      ("size_out", Int p.Pipeline.p_size_out);
      ("spills", Int p.Pipeline.p_spills);
      ("connects", Int p.Pipeline.p_connects);
    ]

let breakdown_json (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_obs.Json in
  Obj
    [
      ("normal", Int bk.Rc_isa.Mcode.normal);
      ("spill", Int bk.Rc_isa.Mcode.spill);
      ("save", Int bk.Rc_isa.Mcode.save);
      ("xsave", Int bk.Rc_isa.Mcode.xsave);
      ("connects", Int bk.Rc_isa.Mcode.connects);
    ]

let cell_json (key, c) =
  let open Rc_obs.Json in
  Obj
    [
      ("key", Str key);
      ("machine", result_json c.c_result);
      ("code_size", breakdown_json c.c_breakdown);
      ("spills", Int c.c_spills);
      ("passes", List (List.map pass_json c.c_passes));
    ]

(** Machine-readable dump of everything the context measured: one
    object per simulated cell (stall attribution, code size, per-pass
    compile metrics) plus the pool's per-domain telemetry. *)
let metrics_json ctx =
  let open Rc_obs.Json in
  let pool =
    List.map
      (fun (d : Rc_par.Pool.domain_stats) ->
        Obj
          [
            ("domain", Int d.Rc_par.Pool.d_slot);
            ("tasks", Int d.Rc_par.Pool.d_tasks);
            ("busy_s", Float d.Rc_par.Pool.d_busy_s);
            ("wait_s", Float d.Rc_par.Pool.d_wait_s);
          ])
      (pool_stats ctx)
  in
  Obj
    [
      ("scale", Int ctx.scale);
      ("jobs", Int (Rc_par.Pool.jobs ctx.pool));
      ("engine", Str (engine_name ctx.engine));
      ("trace_cache", engine_stats_json (engine_stats ctx));
      ("stage_cache", stage_stats_json (stage_stats ctx));
      ("cells", List (List.map cell_json (cells ctx)));
      ("pool", List pool);
    ]

(* --- registry ------------------------------------------------------------ *)

(* Every experiment under its command-line id, in the paper's order. *)
let figures =
  [
    ("table1", fun _ -> table1 ());
    ("fig7", fig7);
    ("fig8-int", fig8_int);
    ("fig8-fp", fig8_fp);
    ("fig9-int", fig9_int);
    ("fig9-fp", fig9_fp);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("ablation-models", ablation_models);
    ("ablation-combine", ablation_combine);
    ("ablation-unroll", ablation_unroll);
  ]

let figure_ids = List.map fst figures
let all_figures ctx = List.map (fun (_, f) -> f ctx) figures

let by_id ctx id =
  let id = match id with "fig8" -> "fig8-int" | "fig9" -> "fig9-int" | id -> id in
  Option.map (fun f -> f ctx) (List.assoc_opt id figures)
