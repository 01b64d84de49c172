(** The wire payloads shared by the [rcc] CLI and the HTTP service.

    Both front ends build their machine-readable output through these
    functions, so a [POST /run] response is byte-identical to
    [rcc run --json] for the same configuration {e by construction}
    (modulo pass wall-clock times, the only non-deterministic field),
    and [POST /figures] matches [rcc figures --json]. *)

(** Every experiment id [rcc figures] and [POST /figures] accept, in
    presentation order. *)
val all_figure_ids : string list

(** Pipeline options from the CLI/run-request knobs, with the same
    defaults in both front ends. *)
val options_of :
  issue:int ->
  core_int:int ->
  core_float:int ->
  rc:bool ->
  load:int ->
  connect:int ->
  mem_channels:int option ->
  extra_stage:bool ->
  model:Rc_core.Model.t ->
  no_unroll:bool ->
  Rc_harness.Pipeline.options

(** The configuration every absent request field resolves to (also the
    one [POST /compile] / [rcc compile] summarise under). *)
val default_options : unit -> Rc_harness.Pipeline.options

(** {2 Response builders} *)

val config_json : Rc_harness.Pipeline.options -> Rc_obs.Json.t

(** One configuration's full record: config, machine counters (slot
    attribution included), static code size, per-pass compile
    metrics. *)
val config_result_json :
  ?name:string ->
  ?speedup:float ->
  Rc_harness.Pipeline.compiled ->
  Rc_machine.Machine.result ->
  Rc_obs.Json.t

(** The [rcc run --json] / [POST /run] document.  [oracle], when the
    request asked for the lockstep admission gate, is the verdict JSON
    ({!Rc_check.Spec.verdict_json}). *)
val run_response :
  ?oracle:Rc_obs.Json.t ->
  bench:string ->
  scale:int ->
  engine_used:string ->
  Rc_harness.Pipeline.compiled ->
  Rc_machine.Machine.result ->
  Rc_obs.Json.t

(** The [rcc compile --json] / [POST /compile] document: the assigned
    kernel id, the spec's static measures (size, depth, funcs, slots),
    the compiled image's fingerprint and compile-side telemetry under
    {!default_options}. *)
val compile_response :
  ?oracle:Rc_obs.Json.t ->
  id:string ->
  Rc_check.Gen.spec ->
  Rc_harness.Pipeline.compiled ->
  Rc_obs.Json.t

val table_json : Rc_harness.Experiments.table -> Rc_obs.Json.t

(** {!Rc_harness.Experiments.engine_stats_json}. *)
val engine_stats_json : Rc_harness.Experiments.engine_stats -> Rc_obs.Json.t

(** The [rcc figures --json] / [POST /figures] document. *)
val figures_response :
  scale:int ->
  jobs:int ->
  engine_name:string ->
  stats:Rc_harness.Experiments.engine_stats ->
  Rc_harness.Experiments.table list ->
  Rc_obs.Json.t

(** {2 Request decoders (the server's [POST] bodies)}

    Decoders report through {!Rc_check.Spec.error} so the transport can
    keep the status split: [Malformed] answers 400, [Too_large] (a spec
    over the admission limits) answers 413. *)

(** What a request wants simulated: a registry benchmark by name, a
    previously submitted kernel by server-assigned id, or a spec
    document inline (admitted on the spot, exactly as [/compile]
    would). *)
type kernel_source =
  | K_bench of Rc_workloads.Wutil.bench
  | K_id of string
  | K_spec of Rc_check.Gen.spec

type run_request = {
  rq_kernel : kernel_source;
  rq_scale : int;
  rq_opts : Rc_harness.Pipeline.options;
  rq_oracle : int option;
      (** lockstep the first N cycles against the reference
          interpreter before timing *)
}

(** Strict decoding of a [/run] body: unknown fields, wrong types,
    unknown benchmarks or models, and non-positive [scale]/[issue] are
    errors (the CLI would have rejected them as usage errors).  Exactly
    one of ["bench"], ["kernel"], ["spec"] selects the kernel. *)
val run_request_of_json :
  Rc_obs.Json.t -> (run_request, Rc_check.Spec.error) result

type compile_request = {
  cq_spec : Rc_check.Gen.spec;
  cq_oracle : int option;
}

(** Strict decoding of a [/compile] body: either a bare spec document
    (recognised by its ["funcs"] field) or a
    [{"spec": ..., "oracle": N}] wrapper. *)
val compile_request_of_json :
  Rc_obs.Json.t -> (compile_request, Rc_check.Spec.error) result

type figures_request =
  | Fq_ids of string list  (** the named experiments over the registry *)
  | Fq_kernel of kernel_source
      (** the per-kernel sweeps ({!Rc_harness.Experiments.kernel_figures}) *)

(** Strict decoding of a [/figures] body: [{"ids": [...]}] (absent or
    empty [ids] selects every experiment), or a kernel selector
    ([bench]/[kernel]/[spec]) for the single-kernel sweeps. *)
val figures_request_of_json :
  Rc_obs.Json.t -> (figures_request, Rc_check.Spec.error) result
