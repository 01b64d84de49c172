(** The full compilation pipeline of the experiments:

    {v
    IR --classical/ILP opt--> IR --legalize--> IR --profile (interpreter)
       --priority colouring--> assignment
       --lowering--> machine code (physical form)
       --list scheduling--> machine code (physical form, packed)
       --connect insertion (RC only)--> architectural form
       --assembly--> image --simulation--> cycles
    v}

    Every stage is timed and its representation-size delta recorded
    (see {!pass_metric}); the per-pass metrics ride along in
    {!compiled} so regressions in any stage are visible without
    re-instrumenting callers. *)

open Rc_isa
open Rc_ir

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

let max_core = 2048

(* The integer core must name the reserved registers (zero, sp, the
   spill temporaries, ra, rv); an FP core needs the four registers
   [Reg.file] asks of any file. *)
let min_core = function Reg.Int -> Reg.first_alloc_int | Reg.Float -> 4

let options ?(opt = Rc_opt.Pass.Ilp Rc_opt.Pass.default_unroll) ?(rc = false)
    ?(core_int = 32) ?(core_float = 32) ?total_int ?total_float
    ?(model = Rc_core.Model.default) ?(combine = true) ?(issue = 4) ?mem_channels ?(lat = Latency.default) ?(extra_stage = false)
    () =
  if issue < 1 then invalid_arg "Pipeline.options: issue < 1";
  let bound name cls n =
    if n < min_core cls || n > max_core then
      invalid_arg
        (Fmt.str "Pipeline.options: %s %d outside [%d, %d]" name n
           (min_core cls) max_core)
  in
  bound "core_int" Reg.Int core_int;
  bound "core_float" Reg.Float core_float;
  let total_int = match total_int with Some t -> t | None -> max 256 core_int in
  let total_float =
    match total_float with Some t -> t | None -> max 256 core_float
  in
  let mem_channels =
    match mem_channels with
    | Some m -> m
    | None -> Rc_machine.Config.default_mem_channels issue
  in
  if mem_channels < 1 then invalid_arg "Pipeline.options: mem_channels < 1";
  {
    opt;
    rc;
    core_int;
    core_float;
    total_int;
    total_float;
    model;
    combine;
    issue;
    mem_channels;
    lat;
    extra_stage;
  }

let files opts =
  if opts.rc then
    ( Reg.file ~core:opts.core_int ~total:opts.total_int,
      Reg.file ~core:opts.core_float ~total:opts.total_float )
  else (Reg.core_only opts.core_int, Reg.core_only opts.core_float)

(* --- per-pass metrics ---------------------------------------------------- *)

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

(** Runs one stage, timing it and recording the size transition
    [size_in -> size f's result].  [size] is evaluated after [f]. *)
let staged acc ~name ~size_in ?(spills = fun _ -> 0)
    ?(connects = fun _ -> 0) ~size f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  acc :=
    {
      p_name = name;
      p_start_s = t0;
      p_wall_s = t1 -. t0;
      p_size_in = size_in;
      p_size_out = size v;
      p_spills = spills v;
      p_connects = connects v;
    }
    :: !acc;
  v

type prepared = {
  prog : Prog.t;
  outcome : Rc_interp.Interp.outcome;  (** reference run of the optimised IR *)
  prep_passes : pass_metric list;  (** opt, legalize, profile *)
}

(** What a stage just produced, handed to the [on_stage] hook so an
    oracle can re-check semantics after every pass.  The values are the
    pipeline's own working state, not copies: hooks must not mutate
    them. *)
type stage_view =
  | Ir of Prog.t
  | Machine_code of Mcode.t
  | Img of Image.t

type compiled = {
  opts : options;
  mcode : Mcode.t;
  image : Image.t;
  breakdown : Mcode.size_breakdown;
  spills : int;
  connects_inserted : int;
  expected : Rc_interp.Interp.outcome;  (** reference run of the optimised IR *)
  passes : pass_metric list;
      (** every stage in pipeline order, preparation included *)
}

(** Optimise, legalise and profile a freshly built program.  The result
    can be shared by every register configuration at the same
    optimisation level.  [on_stage] (default: nothing) is called with
    the stage's name and output after each pass. *)
let prepare ?(on_stage = fun _ _ -> ()) ~opt (prog : Prog.t) =
  let acc = ref [] in
  let opt_name =
    match opt with
    | Rc_opt.Pass.Classical -> "classical-opt"
    | Rc_opt.Pass.Ilp _ -> "ilp-opt"
  in
  let size0 = Prog.op_count prog in
  staged acc ~name:opt_name ~size_in:size0
    ~size:(fun () -> Prog.op_count prog)
    (fun () -> Rc_opt.Pass.apply opt prog);
  on_stage opt_name (Ir prog);
  let size1 = Prog.op_count prog in
  staged acc ~name:"legalize" ~size_in:size1
    ~size:(fun () -> Prog.op_count prog)
    (fun () -> Rc_codegen.Legalize.run prog);
  on_stage "legalize" (Ir prog);
  let size2 = Prog.op_count prog in
  let outcome =
    staged acc ~name:"profile" ~size_in:size2
      ~size:(fun _ -> size2)
      (fun () -> Rc_interp.Interp.run prog)
  in
  { prog; outcome; prep_passes = List.rev !acc }

type allocated = {
  a_opts : options;  (** the options [allocate] ran under *)
  a_mcode : Mcode.t;
      (** lowered, {e unscheduled} machine code — a template;
          {!compile_allocated} works on a {!Mcode.copy} *)
  a_spills : int;
  a_expected : Rc_interp.Interp.outcome;
  a_passes : pass_metric list;  (** prep passes, regalloc, lower *)
}

(** The slice of [options] that register allocation and lowering depend
    on.  The timing knobs — issue rate, memory channels, load latency,
    extra stage — and the connect-insertion knobs
    (model, combine) do {e not} appear: an {!allocate} result can be
    shared across all of them.  Connect latency appears only through
    the allocator's [aggressive_extended] policy switch. *)
let alloc_key o =
  Fmt.str "%b/%d.%d.%d.%d/a=%b" o.rc o.core_int o.core_float o.total_int
    o.total_float
    (o.lat.Latency.connect = 0)

(** Register-allocate and lower a prepared program: the slow, timing-
    independent front half of compilation, shareable (keyed by
    {!alloc_key}) across every timing configuration. *)
let allocate ?(on_stage = fun _ _ -> ()) opts
    { prog; outcome = expected; prep_passes } =
  let acc = ref [] in
  let ifile, ffile = files opts in
  let ir_size = Prog.op_count prog in
  let alloc =
    (* A compiler targeting 1-cycle connects avoids leaning on the
       extended section for short-lived values: without zero-cycle
       forwarding every adjacent connect/consumer pair would split
       across cycles. *)
    staged acc ~name:"regalloc" ~size_in:ir_size
      ~size:(fun _ -> ir_size)
      ~spills:Rc_regalloc.Alloc.total_spills
      (fun () ->
        Rc_regalloc.Alloc.run
          ~aggressive_extended:(opts.lat.Latency.connect = 0)
          ~ifile ~ffile prog expected.Rc_interp.Interp.profile)
  in
  let mcode =
    staged acc ~name:"lower" ~size_in:ir_size ~size:Mcode.insn_count
      (fun () ->
        Rc_codegen.Lower.run prog alloc expected.Rc_interp.Interp.profile)
  in
  on_stage "lower" (Machine_code mcode);
  {
    a_opts = opts;
    a_mcode = mcode;
    a_spills = Rc_regalloc.Alloc.total_spills alloc;
    a_expected = expected;
    a_passes = prep_passes @ List.rev !acc;
  }

(** Schedule, connect-lower and assemble an allocation under [opts] —
    the timing-dependent back half.  [opts] may differ from the
    allocation's in any knob outside {!alloc_key}; the shared template
    is copied, never mutated. *)
let compile_allocated ?(on_stage = fun _ _ -> ()) opts
    { a_opts; a_mcode; a_spills; a_expected = expected; a_passes } =
  if alloc_key opts <> alloc_key a_opts then
    invalid_arg "Pipeline.compile_allocated: allocation-relevant knobs differ";
  let acc = ref [] in
  let ifile, ffile = files opts in
  let mcode = Mcode.copy a_mcode in
  let mc_size = Mcode.insn_count mcode in
  staged acc ~name:"schedule" ~size_in:mc_size
    ~size:(fun () -> Mcode.insn_count mcode)
    (fun () ->
      let sched_cfg =
        Rc_sched.List_sched.config ~width:opts.issue
          ~mem_channels:opts.mem_channels ~lat:opts.lat ()
      in
      Rc_sched.List_sched.run sched_cfg mcode);
  on_stage "schedule" (Machine_code mcode);
  let connects_inserted =
    staged acc ~name:"rc-lower" ~size_in:(Mcode.insn_count mcode)
      ~size:(fun _ -> Mcode.insn_count mcode)
      ~connects:(fun n -> n)
      (fun () ->
        if opts.rc then
          Rc_codegen.Rc_lower.run
            (Rc_codegen.Rc_lower.config ~model:opts.model ~combine:opts.combine
               ~ifile ~ffile ())
            mcode
        else 0)
  in
  if not (Rc_codegen.Rc_lower.check_arch_form ~ifile ~ffile mcode) then
    invalid_arg "Pipeline: generated code is not in architectural form";
  on_stage "rc-lower" (Machine_code mcode);
  let image =
    staged acc ~name:"assemble" ~size_in:(Mcode.insn_count mcode)
      ~size:(fun (i : Image.t) -> Array.length i.Image.code)
      (fun () -> Image.assemble mcode)
  in
  on_stage "assemble" (Img image);
  {
    opts;
    mcode;
    image;
    breakdown = Mcode.size_breakdown mcode;
    spills = a_spills;
    connects_inserted;
    expected;
    passes = a_passes @ List.rev !acc;
  }

(** Compile a prepared program under [opts]. *)
let compile_prepared ?(on_stage = fun _ _ -> ()) opts prepared =
  compile_allocated ~on_stage opts (allocate ~on_stage opts prepared)

let compile opts (prog : Prog.t) =
  compile_prepared opts (prepare ~opt:opts.opt prog)

(** The machine configuration [opts] describes — the one {!simulate}
    and the trace-replay engine run under. *)
let machine_config (opts : options) =
  let ifile, ffile = files opts in
  Rc_machine.Config.v ~issue:opts.issue ~mem_channels:opts.mem_channels
    ~lat:opts.lat ~ifile ~ffile ~model:opts.model ~extra_stage:opts.extra_stage
    ()

let check_output name (r : Rc_machine.Machine.result) (c : compiled) =
  if r.Rc_machine.Machine.output <> c.expected.Rc_interp.Interp.output then
    invalid_arg (name ^ ": simulated output differs from reference")

(** Simulate compiled code, checking the output stream against the
    reference interpreter run. *)
let simulate ?(verify = true) ?observer (c : compiled) =
  let m = Rc_machine.Machine.create (machine_config c.opts) c.image in
  (match observer with
  | None -> ()
  | Some _ -> Rc_machine.Machine.set_observer m observer);
  let r = Rc_machine.Machine.run_machine m in
  if verify then check_output "Pipeline.simulate" r c;
  r

(** {!simulate} with a trace recorder attached: the execution-driven
    result plus the dynamic trace, when the run was replayable (see
    {!Rc_machine.Trace_replay}). *)
let simulate_recorded ?(verify = true) (c : compiled) =
  let r, tr = Rc_machine.Trace_replay.record (machine_config c.opts) c.image in
  if verify then check_output "Pipeline.simulate_recorded" r c;
  (r, tr)

(** Re-time a recorded trace under this compilation's configuration
    instead of executing; byte-identical to {!simulate} when the trace
    was recorded from an image with the same fingerprint under matching
    semantics. *)
let simulate_replayed ?(verify = true) ?memo ?stats (c : compiled) trace =
  let r =
    Rc_machine.Trace_replay.replay ?memo ?stats (machine_config c.opts)
      c.image trace
  in
  if verify then check_output "Pipeline.simulate_replayed" r c;
  r

(** Re-time one trace under a whole batch of compilations in a single
    pass over the trace ({!Rc_machine.Trace_replay.replay_batch}).  All
    compilations must share the image fingerprint and semantic knobs
    the trace was recorded under; their timing knobs are free. *)
let simulate_replay_batch ?(verify = true) ?stats (cs : compiled list) trace =
  match cs with
  | [] -> []
  | c0 :: _ ->
      let cfgs =
        Array.of_list (List.map (fun c -> machine_config c.opts) cs)
      in
      let rs =
        Rc_machine.Trace_replay.replay_batch ?stats cfgs c0.image trace
      in
      List.mapi
        (fun i c ->
          if verify then check_output "Pipeline.simulate_replay_batch" rs.(i) c;
          rs.(i))
        cs

(** Convenience: full compile-and-run. *)
let run opts prog = simulate (compile opts prog)
