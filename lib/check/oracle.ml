(** Pass-level semantic preservation.

    The pipeline's [on_stage] hook hands each stage's output to this
    oracle, which re-executes it against the pre-optimisation reference
    run and attributes the first observable difference to the exact
    pass that introduced it:

    - after the IR stages ("classical-opt"/"ilp-opt", "legalize") the
      {!Rc_interp.Interp} interpreter re-runs the transformed IR;
    - after "lower" and "schedule" the machine code is still in
      physical form, so it is assembled into a throwaway image and
      executed by {!Rc_interp.Iexec} with the mapping hardware off;
    - after "rc-lower" and "assemble" the code is in architectural form
      and [Iexec] executes it through the mapping tables under the
      configuration's model.

    Every check compares the full output stream and, for machine-code
    stages, the final data segment.  [sabotage] lets tests mutate a
    stage's output in flight to prove a planted miscompile is caught
    and named. *)

open Rc_isa
open Rc_harness
module Interp = Rc_interp.Interp
module Iexec = Rc_interp.Iexec

exception Fail of Report.t

(** Reference outcome plus the shared front half of the pipeline. *)
type prep = { prepared : Pipeline.prepared; baseline : Interp.outcome }

(* First index where two output streams differ, with a description. *)
let output_diff (expected : int64 list) (got : int64 list) =
  let rec go i = function
    | [], [] -> None
    | e :: _, [] -> Some (i, Fmt.str "output[%d]: expected %Ld, stream ended" i e)
    | [], g :: _ -> Some (i, Fmt.str "output[%d]: unexpected extra %Ld" i g)
    | e :: es, g :: gs ->
        if Int64.equal e g then go (i + 1) (es, gs)
        else Some (i, Fmt.str "output[%d]: expected %Ld, got %Ld" i e g)
  in
  go 0 (expected, got)

let check_ir ~stage ~(baseline : Interp.outcome) prog =
  let out =
    try Interp.run prog
    with e ->
      raise
        (Fail
           (Report.v ~kind:"exec-error" ~stage ~field:"interp"
              (Fmt.str "interpreter raised: %s" (Printexc.to_string e))))
  in
  match output_diff baseline.Interp.output out.Interp.output with
  | None -> ()
  | Some (i, detail) ->
      raise
        (Fail
           (Report.v ~kind:"pass-oracle" ~stage ~field:"output"
              (Fmt.str "%s (first difference at output index %d)" detail i)))

let data_segment_diff (baseline : Interp.outcome) (mem : Bytes.t) =
  let lo = Image.data_base and hi = baseline.Interp.data_end in
  let bad = ref None in
  let a = ref lo in
  while !bad = None && !a < hi do
    if
      !a < Bytes.length baseline.Interp.mem
      && !a < Bytes.length mem
      && Bytes.get baseline.Interp.mem !a <> Bytes.get mem !a
    then
      bad :=
        Some
          (Fmt.str "global data at 0x%x: expected %d, got %d" !a
             (Char.code (Bytes.get baseline.Interp.mem !a))
             (Char.code (Bytes.get mem !a)));
    incr a
  done;
  !bad

let check_image ~stage ~arch ~model ~ifile ~ffile ~(baseline : Interp.outcome)
    (image : Image.t) =
  let exec = Iexec.create ~arch ~model ~ifile ~ffile image in
  (try Iexec.run ~fuel:200_000_000 exec
   with Iexec.Exec_error msg ->
     raise
       (Fail
          (Report.locate image
             (Report.v ~kind:"exec-error" ~stage ~field:"iexec"
                ~pc:exec.Iexec.pc
                (Fmt.str "oracle executor raised: %s" msg)))));
  (match output_diff baseline.Interp.output (Iexec.output exec) with
  | None -> ()
  | Some (i, detail) ->
      (* The emit site of the first wrong element names the faulting
         basic block; a truncated stream points past the last emit. *)
      let pcs = Array.of_list (Iexec.output_pcs exec) in
      let pc =
        if i < Array.length pcs then pcs.(i)
        else if Array.length pcs > 0 then pcs.(Array.length pcs - 1)
        else -1
      in
      raise
        (Fail
           (Report.locate image
              (Report.v ~kind:"pass-oracle" ~stage ~field:"output" ~pc
                 (Fmt.str "%s (first difference at output index %d)" detail i)))));
  match data_segment_diff baseline exec.Iexec.mem with
  | None -> ()
  | Some detail ->
      raise
        (Fail (Report.v ~kind:"pass-oracle" ~stage ~field:"memory" detail))

let check_mcode ~stage ~arch ~model ~ifile ~ffile ~baseline mcode =
  (* [Image.assemble] never mutates its input, so assembling mid-flight
     views is safe. *)
  let image =
    try Image.assemble mcode
    with e ->
      raise
        (Fail
           (Report.v ~kind:"exec-error" ~stage ~field:"assemble"
              (Fmt.str "assembly of stage output failed: %s"
                 (Printexc.to_string e))))
  in
  check_image ~stage ~arch ~model ~ifile ~ffile ~baseline image

(* --- entry points --------------------------------------------------------- *)

let apply_sabotage sabotage stage view =
  match sabotage with
  | Some (s, f) when s = stage -> f view
  | _ -> ()

(** Reference-run a fresh program and push it through the shared
    preparation stages, re-interpreting after each one.  [sabotage]
    [(stage, f)] mutates that stage's output before it is checked. *)
let prepare_checked ?sabotage ~opt prog =
  try
    let baseline =
      try Interp.run prog
      with e ->
        raise
          (Fail
             (Report.v ~kind:"exec-error" ~stage:"baseline" ~field:"interp"
                (Fmt.str "reference interpretation failed: %s"
                   (Printexc.to_string e))))
    in
    let on_stage stage view =
      apply_sabotage sabotage stage view;
      match view with
      | Pipeline.Ir p -> check_ir ~stage ~baseline p
      | Pipeline.Machine_code _ | Pipeline.Img _ -> ()
    in
    Ok { prepared = Pipeline.prepare ~on_stage ~opt prog; baseline }
  with Fail r -> Error r

(** Compile a checked preparation under [opts], re-executing after
    every back-end stage.  On success the compiled result is ready for
    {!Lockstep.run}. *)
let compile_checked ?sabotage (opts : Pipeline.options) (prep : prep) =
  let ifile, ffile = Pipeline.files opts in
  (* The back end is checked against the post-legalize reference run
     (whose output {!prepare_checked} already proved equal to the
     pristine program's): the optimiser may legitimately rewrite dead
     global stores, so final-memory comparison is only meaningful
     between the optimised IR and the code generated from it. *)
  let baseline = prep.prepared.Pipeline.outcome in
  let on_stage stage view =
    apply_sabotage sabotage stage view;
    match (view : Pipeline.stage_view) with
    | Pipeline.Ir _ -> ()
    | Pipeline.Machine_code mc ->
        let arch = stage = "rc-lower" in
        let model = opts.Pipeline.model in
        check_mcode ~stage ~arch ~model ~ifile ~ffile ~baseline mc
    | Pipeline.Img _ ->
        (* The "rc-lower" check already assembled and executed this
           exact machine code through the same assembler, so re-running
           the image here could never disagree; the lockstep oracle
           covers the image itself. *)
        ()
  in
  try Ok (Pipeline.compile_prepared ~on_stage opts prep.prepared)
  with
  | Fail r -> Error r
  | Invalid_argument msg ->
      Error
        (Report.v ~kind:"exec-error" ~stage:"pipeline" ~field:"compile" msg)

(** The machine configuration {!Rc_harness.Pipeline.simulate} builds
    for [opts] — named here so `rcc check` and the fuzzer drive
    {!Lockstep.run} under exactly the simulated configuration. *)
let config_of_options = Pipeline.machine_config
