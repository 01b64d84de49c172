(* Tests for rc_check: the differential oracle subsystem.

   The interesting properties are negative ones — a planted miscompile
   must be caught and attributed, a model-semantics mismatch must
   surface as a lockstep divergence and survive shrinking — plus the
   positive property that everything the generator produces sails
   through the full pipeline with no divergence at all. *)

open Rc_isa
open Rc_core
module Gen = Rc_check.Gen
module Shrink = Rc_check.Shrink
module Fuzz = Rc_check.Fuzz
module Oracle = Rc_check.Oracle
module Lockstep = Rc_check.Lockstep
module Args = Rc_check.Args
module Report = Rc_check.Report
module Pipeline = Rc_harness.Pipeline
module J = Rc_obs.Json

let model_of_number n =
  List.find (fun m -> Model.number m = n) Model.all

(* The paper-default RC point: model 3, 4-issue, 1-cycle connects. *)
let point3 =
  { Fuzz.rc = true; model = model_of_number 3; issue = 4; connect = 1 }

let ilp = Rc_opt.Pass.Ilp Rc_opt.Pass.default_unroll

(* --- the generator only produces programs the pipeline accepts ------------- *)

let test_generator_accepted () =
  List.iter
    (fun seed ->
      let opt = if seed mod 2 = 0 then ilp else Rc_opt.Pass.Classical in
      let spec = Gen.generate seed in
      match Fuzz.check_spec ~opt ~point:point3 spec with
      | None -> ()
      | Some r ->
          Alcotest.failf "seed %d rejected or diverged: %a" seed Report.pp r)
    [ 0; 1; 2; 3; 4; 5 ]

(* --- spec JSON round-trip -------------------------------------------------- *)

let test_spec_json_roundtrip () =
  List.iter
    (fun seed ->
      let spec = Gen.generate seed in
      let back = Gen.of_json (Gen.to_json spec) in
      Alcotest.(check bool)
        (Fmt.str "seed %d round-trips" seed)
        true (spec = back))
    (List.init 20 Fun.id)

(* --- the admission pipeline (Spec) ----------------------------------------- *)

module Spec = Rc_check.Spec

(* Everything the generator produces must sail through the public
   admission gate — the fuzzer's corpus is exactly the input shape
   /compile advertises — and the canonical bytes must be a fixpoint,
   so the server-assigned kernel id is stable across resubmission. *)
let test_spec_admission_accepts_generated () =
  List.iter
    (fun seed ->
      let spec = Gen.generate seed in
      match Spec.of_string (Spec.canonical spec) with
      | Error e ->
          Alcotest.failf "seed %d rejected: %s" seed (Spec.error_detail e)
      | Ok back ->
          Alcotest.(check bool)
            (Fmt.str "seed %d admitted unchanged" seed)
            true (spec = back);
          Alcotest.(check string)
            (Fmt.str "seed %d id stable" seed)
            (Spec.id_of spec) (Spec.id_of back))
    (List.init 20 Fun.id)

(* One-function spec around a body, within every other budget. *)
let spec_of_body body =
  { Gen.seed = 0; slots = 4; funcs = [| { Gen.arity = 0; nvars = 2; nfvars = 1; body } |] }

(* Nested loops of trip 1, [d] levels deep, innermost body [inner]. *)
let rec nested d inner = if d = 0 then inner else [ Gen.Loop (0, 1, nested (d - 1) inner) ]

let expect_ok what = function
  | Ok (_ : Gen.spec) -> ()
  | Error e -> Alcotest.failf "%s rejected: %s" what (Spec.error_detail e)

let expect_malformed what = function
  | Ok (_ : Gen.spec) -> Alcotest.failf "%s wrongly admitted" what
  | Error (Spec.Too_large m) ->
      Alcotest.failf "%s rejected as a limit, not malformed: %s" what m
  | Error (Spec.Malformed _) -> ()

let expect_too_large what = function
  | Ok (_ : Gen.spec) -> Alcotest.failf "%s wrongly admitted" what
  | Error (Spec.Malformed m) ->
      Alcotest.failf "%s rejected as malformed, not a limit: %s" what m
  | Error (Spec.Too_large _) -> ()

(* The budget boundaries, exactly at and one past each limit: at-limit
   specs are admitted (200), over-limit ones are Too_large (413). *)
let test_spec_admission_limits () =
  let admit s = Spec.of_json (Gen.to_json s) in
  (* statement depth — the innermost Emit is itself one level *)
  expect_ok "depth at limit"
    (admit (spec_of_body (nested (Gen.max_depth - 1) [ Gen.Emit (Gen.Var 0) ])));
  expect_too_large "depth over limit"
    (admit (spec_of_body (nested Gen.max_depth [ Gen.Emit (Gen.Var 0) ])));
  (* function count *)
  let nfuncs n =
    {
      Gen.seed = 0;
      slots = 4;
      funcs =
        Array.init n (fun i ->
            {
              Gen.arity = 0;
              nvars = 2;
              nfvars = 1;
              body =
                (if i = 0 && n > 1 then [ Gen.Call (0, 1, []) ]
                 else [ Gen.Emit (Gen.Var 0) ]);
            });
    }
  in
  expect_ok "funcs at limit" (admit (nfuncs Gen.max_funcs));
  expect_too_large "funcs over limit" (admit (nfuncs (Gen.max_funcs + 1)));
  (* node-count budget: Emit(Var) is 2 nodes, plus 1 per function *)
  let flat n = spec_of_body (List.init n (fun _ -> Gen.Emit (Gen.Var 0))) in
  expect_ok "size at limit" (admit (flat ((Gen.max_size - 1) / 2)));
  expect_too_large "size over limit" (admit (flat (Gen.max_size / 2 + 1)));
  (* loop trip-count and the dynamic-weight budget *)
  expect_ok "trip at limit"
    (admit (spec_of_body [ Gen.Loop (0, Gen.max_trip, [ Gen.Emit (Gen.Var 0) ]) ]));
  expect_malformed "trip over limit"
    (admit
       (spec_of_body [ Gen.Loop (0, Gen.max_trip + 1, [ Gen.Emit (Gen.Var 0) ]) ]));
  let deep_loops d =
    let rec go d =
      if d = 0 then [ Gen.Emit (Gen.Var 0) ]
      else [ Gen.Loop (0, Gen.max_trip, go (d - 1)) ]
    in
    spec_of_body (go d)
  in
  expect_too_large "dynamic weight over limit" (admit (deep_loops 4));
  (* slots *)
  expect_ok "slots at limit"
    (admit { (spec_of_body [ Gen.Emit (Gen.Var 0) ]) with Gen.slots = Gen.max_slots });
  expect_too_large "slots over limit"
    (admit
       { (spec_of_body [ Gen.Emit (Gen.Var 0) ]) with Gen.slots = Gen.max_slots + 1 })

(* Structural rejections: the renderer-totality holes an untrusted
   document could reach — negative indices (OCaml's [mod] is negative
   there) and non-forward calls (real recursion) — plus decode errors,
   which must name the JSON path of the offending node. *)
let test_spec_admission_invalid () =
  let admit s = Spec.of_json (Gen.to_json s) in
  expect_malformed "negative variable"
    (admit (spec_of_body [ Gen.Emit (Gen.Var (-1)) ]));
  expect_malformed "negative slot"
    (admit (spec_of_body [ Gen.Store (-3, Gen.Var 0) ]));
  (* A callee outside 1..nfuncs-1 is the shrinker's dropped-helper
     shape: the call collapses to [dst := 0] and the spec admits. *)
  expect_ok "collapsed call to main"
    (admit (spec_of_body [ Gen.Call (0, 0, []); Gen.Emit (Gen.Var 0) ]));
  let backward =
    {
      Gen.seed = 0;
      slots = 4;
      funcs =
        [|
          { Gen.arity = 0; nvars = 2; nfvars = 1; body = [ Gen.Call (0, 1, []) ] };
          { Gen.arity = 0; nvars = 2; nfvars = 1; body = [ Gen.Call (0, 1, []) ] };
        |];
    }
  in
  expect_malformed "backward (recursive) call" (admit backward);
  expect_malformed "empty spec"
    (admit { Gen.seed = 0; slots = 4; funcs = [||] });
  (* Decode errors carry the JSON path from the document root. *)
  let path_of text =
    match Spec.of_string text with
    | Ok _ -> Alcotest.failf "%S wrongly admitted" text
    | Error e -> Spec.error_detail e
  in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let expect_path text needle =
    let m = path_of text in
    Alcotest.(check bool)
      (Fmt.str "%s names %s (got %S)" text needle m)
      true
      (contains ~needle m)
  in
  expect_path {|[1,2]|} "$";
  expect_path {|{"funcs":3}|} "$.funcs";
  expect_path {|{"funcs":[{"arity":0,"nvars":1,"nfvars":1,"body":[["frob"]]}]}|}
    "$.funcs[0].body[0]";
  expect_path
    {|{"funcs":[{"arity":0,"nvars":1,"nfvars":1,"body":[["set",0,["bin","adc",["var",0],["var",0]]]]}]}|}
    "unknown ALU opcode";
  (* Non-JSON input must come back as an error, never an exception. *)
  match Spec.of_string "{not json" with
  | Error (Spec.Malformed _) -> ()
  | Error (Spec.Too_large m) -> Alcotest.failf "parse error as limit: %s" m
  | Ok _ -> Alcotest.fail "garbage admitted"

(* --- a planted miscompile is caught and attributed ------------------------- *)

(* Replace the first [Connect] of the stage's machine code with a nop:
   the classic "forgot to steer the map" miscompile. *)
let nop_first_connect (view : Pipeline.stage_view) =
  match view with
  | Pipeline.Machine_code mc ->
      let planted = ref false in
      List.iter
        (fun (f : Mcode.func) ->
          List.iter
            (fun (b : Mcode.block) ->
              b.Mcode.insns <-
                List.map
                  (fun i ->
                    if (not !planted) && Insn.is_connect i then (
                      planted := true;
                      Insn.nop ())
                    else i)
                  b.Mcode.insns)
            f.Mcode.blocks)
        mc.Mcode.funcs;
      !planted
  | _ -> false

let test_sabotage_caught () =
  (* Dropping a connect is only observable when the victim register is
     later accessed with a live wrong value, so search a few seeds for a
     program where the plant lands — the search is deterministic. *)
  let caught =
    List.find_map
      (fun seed ->
        let spec = Gen.generate seed in
        let planted = ref false in
        let sabotage =
          ( "rc-lower",
            fun view -> if nop_first_connect view then planted := true )
        in
        match Oracle.prepare_checked ~opt:ilp (Gen.render spec) with
        | Error r -> Alcotest.failf "seed %d broken prep: %a" seed Report.pp r
        | Ok prep -> (
            let opts = Fuzz.options_of_point ~opt:ilp point3 in
            match Oracle.compile_checked ~sabotage opts prep with
            | Error r when !planted -> Some r
            | Error r ->
                Alcotest.failf "seed %d failed without a plant: %a" seed
                  Report.pp r
            | Ok _ -> None))
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  match caught with
  | None -> Alcotest.fail "no seed in 0..9 exposed the planted miscompile"
  | Some r ->
      Alcotest.(check string) "faulting pass named" "rc-lower" r.Report.stage;
      Alcotest.(check bool) "basic block named" true (r.Report.block <> "");
      Alcotest.(check bool) "function named" true (r.Report.func <> "")

(* --- model mismatch diverges in lockstep, and the repro shrinks ------------ *)

(* Run machine (model 3) against an oracle deliberately executing a
   different auto-reset model: the divergence class of "the hardware
   skipped the model-3 read-map update". *)
let lockstep_mismatch ~oracle_model spec =
  let opts = Fuzz.options_of_point ~opt:ilp point3 in
  try
    let prep = Pipeline.prepare ~opt:ilp (Gen.render spec) in
    let compiled = Pipeline.compile_prepared opts prep in
    match
      Lockstep.run ~oracle_model
        (Oracle.config_of_options opts)
        compiled.Pipeline.image
    with
    | Lockstep.Diverged r -> Some r
    | Lockstep.Agree _ -> None
  with _ -> None

let test_model_mismatch_shrinks () =
  let oracle_model = model_of_number 1 (* No_reset vs the machine's 3 *) in
  let found =
    List.find_map
      (fun seed ->
        let spec = Gen.generate seed in
        match lockstep_mismatch ~oracle_model spec with
        | Some r -> Some (seed, spec, r)
        | None -> None)
      (List.init 10 Fun.id)
  in
  match found with
  | None -> Alcotest.fail "no seed in 0..9 exposed the model mismatch"
  | Some (_, spec, r) ->
      Alcotest.(check string) "kind" "lockstep" r.Report.kind;
      let reproduces candidate =
        match lockstep_mismatch ~oracle_model candidate with
        | Some r' -> r'.Report.kind = r.Report.kind
        | None -> false
      in
      let shrunk, evals = Shrink.shrink ~max_evals:60 ~reproduces spec in
      Alcotest.(check bool)
        "shrunk repro still diverges" true (reproduces shrunk);
      Alcotest.(check bool)
        (Fmt.str "no growth (%d -> %d in %d evals)" (Gen.size spec)
           (Gen.size shrunk) evals)
        true
        (Gen.size shrunk <= Gen.size spec)

(* --- CLI argument validation ----------------------------------------------- *)

let test_arg_validation () =
  let ok = function Ok v -> Some v | Error _ -> None in
  Alcotest.(check (option (pair int int)))
    "0:100 accepted"
    (Some (0, 100))
    (ok (Args.cycle_window "0:100"));
  let expect_err name input =
    match Args.cycle_window input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %S wrongly accepted" name input
  in
  expect_err "inverted" "5:1";
  expect_err "equal bounds" "7:7";
  expect_err "negative" "-2:9";
  expect_err "non-numeric" "abc";
  expect_err "missing colon" "3";
  expect_err "too many fields" "1:2:3";
  Alcotest.(check (option int)) "seed 7" (Some 7) (ok (Args.seed "7"));
  Alcotest.(check (option int)) "seed 0" (Some 0) (ok (Args.seed "0"));
  Alcotest.(check (option int)) "seed -1 rejected" None (ok (Args.seed "-1"));
  Alcotest.(check (option int)) "seed junk rejected" None (ok (Args.seed "x"));
  Alcotest.(check (option int)) "count 3" (Some 3) (ok (Args.count "3"));
  Alcotest.(check (option int)) "count 0 rejected" None (ok (Args.count "0"));
  Alcotest.(check (option int))
    "count -4 rejected" None
    (ok (Args.count "-4"))

(* The distinct failure modes produce distinct messages, so a user can
   tell a typo from an inverted window. *)
let test_arg_messages_distinct () =
  let msg input =
    match Args.cycle_window input with
    | Error m -> m
    | Ok _ -> Alcotest.failf "%S wrongly accepted" input
  in
  let msgs = List.map msg [ "5:1"; "-2:9"; "abc"; "3" ] in
  let uniq = List.sort_uniq compare msgs in
  Alcotest.(check int) "four distinct messages" 4 (List.length uniq)

(* --- corpus replay --------------------------------------------------------- *)

(* Every persisted divergence case must stay fixed: replaying its
   (shrunk) spec through the same pipeline point must be clean.  The
   directory has no div- cases until the fuzzer finds something;
   spec-*.json files there are admission fixtures, not divergences. *)
let test_corpus_replay () =
  let dir = "corpus" in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        if
          String.length name >= 4
          && String.sub name 0 4 = "div-"
          && Filename.check_suffix name ".json"
        then begin
          let path = Filename.concat dir name in
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          let json =
            match J.of_string s with
            | Ok j -> j
            | Error e -> Alcotest.failf "corpus case %s unparsable: %s" name e
          in
          let spec, point, classical = Fuzz.case_spec_of_json json in
          let opt = if classical then Rc_opt.Pass.Classical else ilp in
          match Fuzz.check_spec ~opt ?point spec with
          | None -> ()
          | Some r ->
              Alcotest.failf "corpus case %s still diverges: %a" name
                Report.pp r
        end)
      (Sys.readdir dir)

(* Committed spec fixtures must stay admissible with stable identity:
   each corpus/spec-<id>.json admits, round-trips through its
   canonical bytes, and digests to the id in its filename. *)
let test_corpus_specs () =
  let dir = "corpus" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    (* only under `dune exec` from the repo root; runtest stages the dir *)
    Alcotest.skip ();
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name ->
           String.length name >= 5
           && String.sub name 0 5 = "spec-"
           && Filename.check_suffix name ".json")
    |> List.sort compare
  in
  Alcotest.(check bool)
    "spec fixtures are committed" true (List.length fixtures >= 2);
  List.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat dir name) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Spec.of_string text with
      | Error e ->
          Alcotest.failf "fixture %s rejected: %s" name (Spec.error_detail e)
      | Ok s ->
          let id = Spec.id_of s in
          Alcotest.(check string)
            (Fmt.str "%s digests to its filename" name)
            ("spec-" ^ id ^ ".json") name;
          (match Spec.of_string (Spec.canonical s) with
          | Ok back ->
              Alcotest.(check bool)
                (Fmt.str "%s canonical fixpoint" name)
                true (s = back)
          | Error e ->
              Alcotest.failf "fixture %s canonical form rejected: %s" name
                (Spec.error_detail e)))
    fixtures

(* --- lockstep state comparison ------------------------------------------------ *)

(* A divergence report names the lowest differing register or address,
   and equal states report nothing. *)
let test_lockstep_reports_lowest () =
  let ifile = Reg.core_only 32 and ffile = Reg.core_only 16 in
  let cfg = Rc_machine.Config.v ~ifile ~ffile () in
  let mc = Mcode.create ~entry:"main" in
  Mcode.add_func mc
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks = [ { Mcode.label = 0; insns = [ Insn.halt () ] } ];
    };
  let image = Image.assemble mc in
  let fresh () =
    ( Rc_machine.Machine.create cfg image,
      Rc_interp.Iexec.create ~ifile ~ffile image )
  in
  let state = Alcotest.(option (pair string string)) in
  let mem = Alcotest.(option string) in
  let m, o = fresh () in
  Alcotest.check state "equal states" None (Lockstep.compare_state m o);
  Alcotest.check mem "equal memories" None (Lockstep.mem_mismatch m o);
  o.Rc_interp.Iexec.iregs.(20) <- 5L;
  o.Rc_interp.Iexec.iregs.(9) <- -3L;
  Alcotest.check state "lower integer register"
    (Some ("ireg", "r9: machine 0, oracle -3"))
    (Lockstep.compare_state m o);
  let m, o = fresh () in
  o.Rc_interp.Iexec.fregs.(12) <- 1.5;
  o.Rc_interp.Iexec.fregs.(3) <- 2.0;
  Alcotest.check state "lower FP register"
    (Some ("freg", Fmt.str "f3: machine %h, oracle %h" 0.0 2.0))
    (Lockstep.compare_state m o);
  let top = Bytes.length m.Rc_machine.Machine.mem - 1 in
  Bytes.set m.Rc_machine.Machine.mem top 'a';
  Bytes.set o.Rc_interp.Iexec.mem 0x120 'b';
  Alcotest.check mem "lower address"
    (Some "mem[0x120]: machine 0, oracle 98")
    (Lockstep.mem_mismatch m o);
  Bytes.set o.Rc_interp.Iexec.mem 0x120 '\000';
  Alcotest.check mem "last address"
    (Some (Fmt.str "mem[0x%x]: machine 97, oracle 0" top))
    (Lockstep.mem_mismatch m o)

(* The lockstep loop compares only the output emitted since its last
   check, yet reports what a whole comparison does: after a thousand
   correct values, checked one cycle at a time, a cycle that emits two
   wrong values reports the lower, and an extra value reports the
   counts. *)
let test_lockstep_output_since_last_check () =
  let ifile = Reg.core_only 32 and ffile = Reg.core_only 16 in
  let cfg = Rc_machine.Config.v ~ifile ~ffile () in
  let mc = Mcode.create ~entry:"main" in
  Mcode.add_func mc
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks = [ { Mcode.label = 0; insns = [ Insn.halt () ] } ];
    };
  let image = Image.assemble mc in
  let state = Alcotest.(option (pair string string)) in
  let run ~plant =
    let m = Rc_machine.Machine.create cfg image
    and o = Rc_interp.Iexec.create ~ifile ~ffile image in
    m.Rc_machine.Machine.out <- Array.make 2048 0L;
    let emit ~machine ~oracle =
      m.Rc_machine.Machine.out.(m.Rc_machine.Machine.out_len) <- machine;
      m.Rc_machine.Machine.out_len <- m.Rc_machine.Machine.out_len + 1;
      match oracle with
      | Some v -> o.Rc_interp.Iexec.out_rev <- v :: o.Rc_interp.Iexec.out_rev
      | None -> ()
    in
    let seen = Lockstep.seen () in
    for v = 1 to 1000 do
      emit ~machine:(Int64.of_int v) ~oracle:(Some (Int64.of_int v));
      Alcotest.check state "correct values agree" None
        (Lockstep.compare_state ~seen m o)
    done;
    plant emit;
    (Lockstep.compare_state ~seen m o, Lockstep.compare_state m o)
  in
  let since, whole =
    run ~plant:(fun emit ->
        emit ~machine:1001L ~oracle:(Some 1001L);
        emit ~machine:7L ~oracle:(Some 1002L);
        emit ~machine:8L ~oracle:(Some 1003L))
  in
  Alcotest.check state "lowest new difference"
    (Some ("output", "output[1001]: machine 7, oracle 1002"))
    since;
  Alcotest.check state "as the whole comparison reports" whole since;
  let since, whole =
    run ~plant:(fun emit -> emit ~machine:1001L ~oracle:None)
  in
  Alcotest.check state "an extra value"
    (Some ("output", "machine emitted 1001 values, oracle 1000"))
    since;
  Alcotest.check state "as the whole comparison reports counts" whole since

let suite =
  [
    ("generator accepted by pipeline", `Slow, test_generator_accepted);
    ("spec JSON round-trip", `Quick, test_spec_json_roundtrip);
    ("spec admission accepts generated", `Quick, test_spec_admission_accepts_generated);
    ("spec admission budget limits", `Quick, test_spec_admission_limits);
    ("spec admission invalid documents", `Quick, test_spec_admission_invalid);
    ("corpus spec fixtures admissible", `Quick, test_corpus_specs);
    ("planted miscompile caught", `Slow, test_sabotage_caught);
    ("model mismatch diverges and shrinks", `Slow, test_model_mismatch_shrinks);
    ("cli argument validation", `Quick, test_arg_validation);
    ("cli error messages distinct", `Quick, test_arg_messages_distinct);
    ("corpus replay", `Quick, test_corpus_replay);
    ("lockstep reports the lowest difference", `Quick, test_lockstep_reports_lowest);
    ("lockstep compares only new output", `Quick, test_lockstep_output_since_last_check);
  ]
