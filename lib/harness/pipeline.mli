(** The full compilation pipeline of the experiments:

    {v
    IR --classical/ILP opt--> IR --legalize--> IR --profile (interpreter)
       --priority colouring--> assignment
       --lowering--> machine code (physical form)
       --list scheduling--> machine code (physical form, packed)
       --connect insertion (RC only)--> architectural form
       --assembly--> image --simulation--> cycles
    v} *)

open Rc_isa

type options = {
  opt : Rc_opt.Pass.level;
  rc : bool;
  core_int : int;
  core_float : int;
  total_int : int;  (** integer physical file size when [rc] *)
  total_float : int;  (** floating-point physical file size when [rc] *)
  model : Rc_core.Model.t;
  combine : bool;  (** multiple-connect instructions *)
  issue : int;
  mem_channels : int;
  lat : Latency.t;
  extra_stage : bool;
}

(** Largest core register count of either class, 2048: the stand-in
    for the paper's "unlimited number of registers" (section 5.3). *)
val max_core : int

(** Smallest core register count of a class: 8 integer registers (the
    reserved ones, {!Reg.first_alloc_int}) and 4 FP registers. *)
val min_core : Reg.cls -> int

(** Defaults: ILP optimisation (unroll 4), no RC, 32/32 core registers,
    256-register physical files, model 3, combined connects, 4-issue,
    2-cycle loads, zero-cycle connects.
    @raise Invalid_argument when [issue] or [mem_channels] is below 1
    (the scheduler could never fill a group), or when [core_int] or
    [core_float] lies outside [\[min_core cls, max_core\]]. *)
val options :
  ?opt:Rc_opt.Pass.level ->
  ?rc:bool ->
  ?core_int:int ->
  ?core_float:int ->
  ?total_int:int ->
  ?total_float:int ->
  ?model:Rc_core.Model.t ->
  ?combine:bool ->
  ?issue:int ->
  ?mem_channels:int ->
  ?lat:Latency.t ->
  ?extra_stage:bool ->
  unit ->
  options

(** The register files a configuration implies (core-only without
    RC). *)
val files : options -> Reg.file * Reg.file

(** Telemetry for one pipeline stage: wall time, representation-size
    delta, and the stage-specific counters (spills for "regalloc",
    connects inserted for "rc-lower"). *)
type pass_metric = {
  p_name : string;
      (** "classical-opt" / "ilp-opt", "legalize", "profile", "regalloc",
          "lower", "schedule", "rc-lower", "assemble" *)
  p_start_s : float;  (** epoch seconds when the stage started *)
  p_wall_s : float;  (** wall time of the stage *)
  p_size_in : int;  (** representation size (ops / instructions) before *)
  p_size_out : int;  (** representation size after *)
  p_spills : int;  (** spilled vregs ("regalloc" only, else 0) *)
  p_connects : int;  (** connects inserted ("rc-lower" only, else 0) *)
}

type prepared = {
  prog : Rc_ir.Prog.t;
  outcome : Rc_interp.Interp.outcome;  (** reference run of the optimised IR *)
  prep_passes : pass_metric list;  (** opt, legalize, profile *)
}

(** What a stage just produced, handed to the [on_stage] hook so an
    oracle can re-check semantics after every pass.  The values are the
    pipeline's own working state, not copies: hooks must not mutate
    them. *)
type stage_view =
  | Ir of Rc_ir.Prog.t
  | Machine_code of Mcode.t
  | Img of Image.t

type compiled = {
  opts : options;
  mcode : Mcode.t;
  image : Image.t;
  breakdown : Mcode.size_breakdown;
  spills : int;
  connects_inserted : int;
  expected : Rc_interp.Interp.outcome;
      (** reference run of the optimised IR *)
  passes : pass_metric list;
      (** every stage in pipeline order, preparation included *)
}

(** Optimise, legalise and profile a freshly built program.  The result
    can be shared by every register configuration at the same
    optimisation level.  [on_stage] (default: nothing) is called with
    the stage's name and output after each transforming pass —
    "classical-opt"/"ilp-opt" and "legalize" here; "lower", "schedule",
    "rc-lower" and "assemble" in {!compile_prepared}. *)
val prepare :
  ?on_stage:(string -> stage_view -> unit) ->
  opt:Rc_opt.Pass.level ->
  Rc_ir.Prog.t ->
  prepared

(** A register-allocated, lowered — but unscheduled — program: the
    slow, timing-independent front half of compilation, shareable
    across every configuration with the same {!alloc_key}. *)
type allocated = {
  a_opts : options;  (** the options {!allocate} ran under *)
  a_mcode : Mcode.t;
      (** lowered, {e unscheduled} machine code — a template;
          {!compile_allocated} works on a {!Mcode.copy} *)
  a_spills : int;
  a_expected : Rc_interp.Interp.outcome;
  a_passes : pass_metric list;  (** prep passes, regalloc, lower *)
}

(** The slice of [options] register allocation and lowering depend on:
    register files and the allocator's connect-latency policy.  Equal
    keys (for the same prepared program) mean interchangeable
    {!allocate} results; issue rate, memory channels, load latency,
    model, combine and extra stage do not appear. *)
val alloc_key : options -> string

(** Register-allocate and lower a prepared program (the "regalloc" and
    "lower" stages). *)
val allocate :
  ?on_stage:(string -> stage_view -> unit) -> options -> prepared -> allocated

(** Schedule, connect-lower and assemble an allocation under [opts] —
    the timing-dependent back half.  [opts] may differ from the
    allocation's in any knob outside {!alloc_key}; the shared template
    is copied, never mutated.
    @raise Invalid_argument if the allocation-relevant knobs differ or
    the generated code fails the architectural-form check. *)
val compile_allocated :
  ?on_stage:(string -> stage_view -> unit) -> options -> allocated -> compiled

(** Compile a prepared program under [opts] ({!allocate} followed by
    {!compile_allocated}).
    @raise Invalid_argument if the generated code fails the
    architectural-form check. *)
val compile_prepared :
  ?on_stage:(string -> stage_view -> unit) -> options -> prepared -> compiled

val compile : options -> Rc_ir.Prog.t -> compiled

(** The machine configuration [opts] describes — the one {!simulate}
    and the trace-replay engine run under. *)
val machine_config : options -> Rc_machine.Config.t

(** Simulate compiled code; when [verify] (default), check the output
    stream against the reference interpreter run.  [observer] is
    attached to the machine for per-cycle telemetry (see
    {!Rc_machine.Machine.cycle_sample}).
    @raise Invalid_argument on a verification mismatch. *)
val simulate :
  ?verify:bool ->
  ?observer:(Rc_machine.Machine.cycle_sample -> unit) ->
  compiled ->
  Rc_machine.Machine.result

(** {!simulate} with a trace recorder attached: the execution-driven
    result plus the dynamic trace, when the run was replayable (see
    {!Rc_machine.Trace_replay}). *)
val simulate_recorded :
  ?verify:bool ->
  compiled ->
  Rc_machine.Machine.result * Rc_machine.Dtrace.t option

(** Re-time a recorded trace under this compilation's configuration
    instead of executing; byte-identical to {!simulate} when the trace
    was recorded from an image with the same fingerprint under matching
    semantics (see DESIGN.md §14).
    @raise Invalid_argument on a verification mismatch. *)
val simulate_replayed :
  ?verify:bool ->
  ?memo:bool ->
  ?stats:Rc_machine.Trace_replay.memo_stats ->
  compiled ->
  Rc_machine.Dtrace.t ->
  Rc_machine.Machine.result

(** Re-time one trace under a whole batch of compilations in a single
    pass over the trace ({!Rc_machine.Trace_replay.replay_batch}),
    returning one result per compilation in order.  All compilations
    must share the image fingerprint and semantic knobs the trace was
    recorded under; their timing knobs are free.
    @raise Invalid_argument on a verification mismatch. *)
val simulate_replay_batch :
  ?verify:bool ->
  ?stats:Rc_machine.Trace_replay.memo_stats ->
  compiled list ->
  Rc_machine.Dtrace.t ->
  Rc_machine.Machine.result list

(** [compile] followed by [simulate]. *)
val run : options -> Rc_ir.Prog.t -> Rc_machine.Machine.result
