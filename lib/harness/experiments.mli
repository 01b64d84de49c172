(** Regeneration of every table and figure of the paper's evaluation
    (section 5), plus the repository's ablations, over the twelve
    benchmark kernels.

    Speedups are computed exactly as in the paper: the base
    configuration is a single-issue processor with an unlimited number
    of registers using conventional compiler scalar optimisations
    (section 5.3). *)

open Rc_workloads

(** Memoising context: programs are prepared once per optimisation
    level and every (benchmark, configuration) simulation runs once.
    With [jobs > 1] the context owns a {!Rc_par.Pool} of that many
    domains and every table's cells are computed in parallel; the memo
    tables are domain-safe and single-flight, and tables are
    byte-identical for every jobs count. *)
type ctx

(** How cells are timed.  [Execute] always runs the execution-driven
    simulator.  [Replay] and [Auto] time cells through the trace cache
    under one policy: a cell whose trace key (compiled image
    fingerprint + {!semantic_key}) has a trace in memory or in the
    store replays it ({!Rc_machine.Trace_replay}); otherwise it
    executes, recording its trace when the trace will be reused — a
    figure's cells sharing the key, a key seen before, or an attached
    store.  The engines differ only for a single cell timed by
    {!simulate_cell} (the server's [/run]): [Replay] records on its
    first sighting, [Auto] (the default) only on its second, so images
    simulated once never hold a trace.  All three engines produce
    byte-identical tables: replay reproduces
    {!Rc_machine.Machine.result} exactly. *)
type engine = Execute | Replay | Auto

val engine_name : engine -> string
val engine_of_string : string -> engine option

(** Trace-cache counters: every simulated cell increments exactly one
    of [hits] (timed by replaying a cached trace) or [misses]
    (executed); [recorded]/[bytes] count the resident traces.  Under
    [Execute] everything lands in [misses]. *)
type engine_stats = {
  hits : int;
  misses : int;
  recorded : int;
  bytes : int;
  store_hits : int;
      (** subset of [hits] whose trace came from the on-disk store *)
  seg_hits : int;
      (** basic-block timing-memo probes served (DESIGN.md §18) *)
  seg_misses : int;  (** basic-block visits replayed per-entry and memoised *)
  seg_fallbacks : int;  (** basic-block visits ineligible for the memo *)
  memo_bytes : int;  (** cumulative memo-table footprint, exact *)
}

(** Under [Replay] and [Auto] every table first compiles its declared
    cells, groups them by trace key and times each group by one
    recording plus one {!Rc_machine.Trace_replay.replay_batch} pass;
    a group of one executes without recording unless its key was seen
    before or a store is attached. *)
val create : ?scale:int -> ?jobs:int -> ?engine:engine -> unit -> ctx

(** Number of computing domains of the context's pool. *)
val jobs : ctx -> int

val engine : ctx -> engine

(** Workload input scale the context was created with.  Every memoised
    cell is keyed under this scale, so callers feeding external
    requests into a shared context (the server) must reject mismatched
    scales. *)
val scale : ctx -> int

(** The context's domain pool, so long-lived owners (the server) can
    dispatch their own work onto the same domains. *)
val pool : ctx -> Rc_par.Pool.t

(** Snapshot of the trace-cache counters.  The cell {e results} are
    engine- and jobs-independent; only this hit/miss split varies. *)
val engine_stats : ctx -> engine_stats

(** The counters as the [trace_cache] JSON object: one key per field. *)
val engine_stats_json : engine_stats -> Rc_obs.Json.t

(** Export the trace-cache counters into a metrics registry
    ([rcc_trace_cache_*], [rcc_timing_memo_*]): the monotone totals as
    bridged counters, resident bytes as a gauge.  The server calls this
    before rendering [GET /metrics]. *)
val export_metrics : ctx -> Rc_obs.Metrics.t -> unit

(** Attach an on-disk trace store (lib/serve/store.ml, or any other
    second cache level) as two closures, keeping the harness ignorant
    of file formats.  [probe key] is consulted on every in-memory
    trace-cache miss {e before} deciding to execute or record — a hit
    replays (and counts as a cache hit — and a [store_hits] — installing
    the trace in memory); [publish key trace] is offered every freshly
    recorded trace.  With a store attached every executed cell records
    and publishes, so a warmed store lets later processes replay every
    cell.
    Both are called outside the cache mutex and may do disk IO; they
    must be safe to call from any pool domain. *)
val set_store :
  ctx ->
  probe:(string -> Rc_machine.Dtrace.t option) ->
  publish:(string -> Rc_machine.Dtrace.t -> unit) ->
  unit

(** Join the context's worker domains.  The context must not be used
    afterwards. *)
val shutdown : ctx -> unit

(** Everything the harness keeps about one simulated cell: the machine
    result (with its slot-level stall attribution) plus the compile-side
    telemetry. *)
type cell = {
  c_result : Rc_machine.Machine.result;
  c_breakdown : Rc_isa.Mcode.size_breakdown;
  c_spills : int;
  c_passes : Pipeline.pass_metric list;
}

(** Compile and simulate one benchmark under one configuration
    (memoised), returning the full telemetry cell. *)
val run_cell : ctx -> Wutil.bench -> Pipeline.options -> cell

(** The compile side of {!run_cell}: prepare and register-allocate
    through the context's memo tables (warm across calls), then the
    cheap timing-dependent back half on a fresh template copy. *)
val compile_cell : ctx -> Wutil.bench -> Pipeline.options -> Pipeline.compiled

(** The simulate side of {!run_cell}, {e unmemoised}: every call goes
    to the context's timing engine, so a repeated configuration is
    re-timed through the trace cache — and counts a cache {!engine_stats}
    hit — instead of being served from the cell memo.  Reports the
    engine that produced the result: ["execute"] or ["replay"]. *)
val simulate_cell :
  ctx -> Pipeline.compiled -> Rc_machine.Machine.result * string

(** Compile and simulate one benchmark under one configuration
    (memoised).  Returns the machine result, the static code-size
    breakdown and the spilled-register count. *)
val run :
  ctx ->
  Wutil.bench ->
  Pipeline.options ->
  Rc_machine.Machine.result * Rc_isa.Mcode.size_breakdown * int

(** Every cell simulated so far, sorted by cell key — a deterministic
    merge of the per-domain work regardless of the jobs count (only the
    wall-clock fields vary run to run). *)
val cells : ctx -> (string * cell) list

(** Per-domain telemetry of the context's pool. *)
val pool_stats : ctx -> Rc_par.Pool.domain_stats list

(** Machine-readable dump of everything the context measured: one
    object per simulated cell (stall attribution, code size, per-pass
    compile metrics) plus the pool's per-domain telemetry. *)
val metrics_json : ctx -> Rc_obs.Json.t

(** The machine counters of one result as a stable-keyed JSON object. *)
val result_json : Rc_machine.Machine.result -> Rc_obs.Json.t

(** One pipeline stage's metrics as a stable-keyed JSON object. *)
val pass_json : Pipeline.pass_metric -> Rc_obs.Json.t

(** A static code-size breakdown as a stable-keyed JSON object. *)
val breakdown_json : Rc_isa.Mcode.size_breakdown -> Rc_obs.Json.t

(** Stand-in core size for "unlimited registers". *)
val unlimited : int

(** The options slice that determines the dynamic instruction stream
    beyond the image bytes (reset model, register file shapes) —
    [fingerprint ^ "#" ^ semantic_key] is the trace-cache key; every
    other knob is free to vary between recording and replay. *)
val semantic_key : Pipeline.options -> string

(** Cycles of the paper's base configuration for this benchmark. *)
val base_cycles : ctx -> Wutil.bench -> float

val speedup : ctx -> Wutil.bench -> Pipeline.options -> float

(** Simulator registers for a paper FP label (doubles take two paper
    registers, one simulator register). *)
val fp_actual : int -> int

(** Experiment configuration for one benchmark at a varied core size
    (paper label): integer benchmarks vary the integer file, FP
    benchmarks the FP file, the other file held fixed (section 5.2). *)
val reg_opts :
  Wutil.bench ->
  label:int ->
  rc:bool ->
  ?opt:Rc_opt.Pass.level ->
  ?issue:int ->
  ?mem_channels:int ->
  ?lat:Rc_isa.Latency.t ->
  ?model:Rc_core.Model.t ->
  ?combine:bool ->
  ?extra_stage:bool ->
  unit ->
  Pipeline.options

val unlimited_opts :
  ?issue:int -> ?mem_channels:int -> ?lat:Rc_isa.Latency.t -> unit -> Pipeline.options

(** 16 integer registers for integer benchmarks, 32 (paper label) FP
    registers for FP benchmarks — the small cores of Figures 10–13. *)
val small_label : Wutil.bench -> int

(** {2 Result tables} *)

type table = {
  id : string;
  title : string;
  columns : string list;
  rows : (string * float list) list;  (** benchmark, one value per column *)
  note : string;
}

val geomean : float list -> float
val with_geomean : table -> table
val print_table : Format.formatter -> table -> unit

(** Figure 9's code-size metrics (percent over ideal code). *)
val size_increase : Rc_isa.Mcode.size_breakdown -> float

val xsave_increase : Rc_isa.Mcode.size_breakdown -> float

(** {2 The experiments} *)

val table1 : unit -> table
val fig7 : ctx -> table
val fig8_int : ctx -> table
val fig8_fp : ctx -> table
val fig9_int : ctx -> table
val fig9_fp : ctx -> table
val fig10 : ctx -> table
val fig11 : ctx -> table
val fig12 : ctx -> table
val fig13 : ctx -> table
val ablation_models : ctx -> table
val ablation_combine : ctx -> table
val ablation_unroll : ctx -> table

(** Every experiment id, in the paper's order: "table1", "fig7",
    "fig8-int", ..., "ablation-unroll". *)
val figure_ids : string list

(** Every experiment, in {!figure_ids} order. *)
val all_figures : ctx -> table list

(** Figure-8/9-style sweeps (speedup and code-size vs core registers)
    for a single benchmark — the entry point ad-hoc kernels (the
    service's user-submitted specs, wrapped as {!Wutil.bench} values)
    share with the built-in corpus.  The cells run through the same
    memo tables, batching prefetch and trace cache — keyed by the
    compiled image's {!Rc_isa.Image.fingerprint}, so nothing below
    this line distinguishes a submitted image from a registry one, and
    an attached store serves both. *)
val kernel_figures : ctx -> Wutil.bench -> table list

(** Look an experiment up by its command-line id (one of
    {!figure_ids}, or "fig8"/"fig9" for their integer halves). *)
val by_id : ctx -> string -> table option
