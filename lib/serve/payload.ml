(* Wire payloads shared by the rcc CLI and the HTTP service: see
   payload.mli. *)

let all_figure_ids = Rc_harness.Experiments.figure_ids

let options_of ~issue ~core_int ~core_float ~rc ~load ~connect ~mem_channels
    ~extra_stage ~model ~no_unroll =
  Rc_harness.Pipeline.options
    ~opt:(if no_unroll then Rc_opt.Pass.Classical else Rc_opt.Pass.Ilp 4)
    ~rc ~core_int ~core_float ~model ~issue ?mem_channels
    ~lat:(Rc_isa.Latency.v ~load ~connect ())
    ~extra_stage ()

(* The defaults every absent request field resolves to — also the
   configuration [POST /compile] / [rcc compile] summarise under. *)
let default_options () =
  options_of ~issue:4 ~core_int:16 ~core_float:16 ~rc:false ~load:2 ~connect:0
    ~mem_channels:None ~extra_stage:false ~model:Rc_core.Model.default
    ~no_unroll:false

(* --- response builders ---------------------------------------------------- *)

let config_json (o : Rc_harness.Pipeline.options) =
  let open Rc_obs.Json in
  Obj
    [
      ( "opt",
        Str
          (match o.Rc_harness.Pipeline.opt with
          | Rc_opt.Pass.Classical -> "classical"
          | Rc_opt.Pass.Ilp f -> "ilp" ^ string_of_int f) );
      ("rc", Bool o.Rc_harness.Pipeline.rc);
      ("core_int", Int o.Rc_harness.Pipeline.core_int);
      ("core_float", Int o.Rc_harness.Pipeline.core_float);
      ("total_int", Int o.Rc_harness.Pipeline.total_int);
      ("total_float", Int o.Rc_harness.Pipeline.total_float);
      ("model", Str (Fmt.str "%a" Rc_core.Model.pp o.Rc_harness.Pipeline.model));
      ("combine", Bool o.Rc_harness.Pipeline.combine);
      ("issue", Int o.Rc_harness.Pipeline.issue);
      ("mem_channels", Int o.Rc_harness.Pipeline.mem_channels);
      ("load_latency", Int o.Rc_harness.Pipeline.lat.Rc_isa.Latency.load);
      ("connect_latency", Int o.Rc_harness.Pipeline.lat.Rc_isa.Latency.connect);
      ("extra_stage", Bool o.Rc_harness.Pipeline.extra_stage);
    ]

let config_result_json ?name ?speedup (c : Rc_harness.Pipeline.compiled)
    (r : Rc_machine.Machine.result) =
  let open Rc_obs.Json in
  Obj
    ((match name with Some n -> [ ("name", Str n) ] | None -> [])
    @ [
        ("config", config_json c.Rc_harness.Pipeline.opts);
        ("machine", Rc_harness.Experiments.result_json r);
        ( "code_size",
          Rc_harness.Experiments.breakdown_json c.Rc_harness.Pipeline.breakdown
        );
        ("spills", Int c.Rc_harness.Pipeline.spills);
        ( "passes",
          List
            (List.map Rc_harness.Experiments.pass_json
               c.Rc_harness.Pipeline.passes) );
      ]
    @ match speedup with Some s -> [ ("speedup", Float s) ] | None -> [])

let run_response ?oracle ~bench ~scale ~engine_used c r =
  Rc_obs.Json.Obj
    ([
       ("bench", Rc_obs.Json.Str bench);
       ("scale", Rc_obs.Json.Int scale);
       ("engine", Rc_obs.Json.Str engine_used);
       ("result", config_result_json c r);
     ]
    @ match oracle with Some v -> [ ("oracle", v) ] | None -> [])

let compile_response ?oracle ~id (spec : Rc_check.Gen.spec)
    (c : Rc_harness.Pipeline.compiled) =
  let open Rc_obs.Json in
  Obj
    ([
       ("kernel", Str id);
       ("bench", Str ("spec:" ^ id));
       ("size", Int (Rc_check.Gen.size spec));
       ("depth", Int (Rc_check.Gen.depth spec));
       ("funcs", Int (Array.length spec.Rc_check.Gen.funcs));
       ("slots", Int spec.Rc_check.Gen.slots);
       ( "fingerprint",
         Str (Rc_isa.Image.fingerprint c.Rc_harness.Pipeline.image) );
       ("config", config_json c.Rc_harness.Pipeline.opts);
       ( "code_size",
         Rc_harness.Experiments.breakdown_json c.Rc_harness.Pipeline.breakdown
       );
       ("spills", Int c.Rc_harness.Pipeline.spills);
       ( "passes",
         List
           (List.map Rc_harness.Experiments.pass_json
              c.Rc_harness.Pipeline.passes) );
     ]
    @ match oracle with Some v -> [ ("oracle", v) ] | None -> [])

let table_json (t : Rc_harness.Experiments.table) =
  let open Rc_obs.Json in
  Obj
    [
      ("id", Str t.Rc_harness.Experiments.id);
      ("title", Str t.Rc_harness.Experiments.title);
      ( "columns",
        List (List.map (fun c -> Str c) t.Rc_harness.Experiments.columns) );
      ( "rows",
        List
          (List.map
             (fun (name, vs) ->
               Obj
                 [
                   ("name", Str name);
                   ("values", List (List.map (fun v -> Float v) vs));
                 ])
             t.Rc_harness.Experiments.rows) );
      ("note", Str t.Rc_harness.Experiments.note);
    ]

let engine_stats_json = Rc_harness.Experiments.engine_stats_json

let figures_response ~scale ~jobs ~engine_name ~stats tables =
  Rc_obs.Json.Obj
    [
      ("scale", Rc_obs.Json.Int scale);
      ("jobs", Rc_obs.Json.Int jobs);
      ("engine", Rc_obs.Json.Str engine_name);
      ("trace_cache", engine_stats_json stats);
      ("tables", Rc_obs.Json.List (List.map table_json tables));
    ]

(* --- request decoders ----------------------------------------------------- *)

(* What a request wants simulated: a registry benchmark by name, a
   previously submitted kernel by server-assigned id, or a spec
   document inline (admitted on the spot, exactly as /compile would). *)
type kernel_source =
  | K_bench of Rc_workloads.Wutil.bench
  | K_id of string
  | K_spec of Rc_check.Gen.spec

type run_request = {
  rq_kernel : kernel_source;
  rq_scale : int;
  rq_opts : Rc_harness.Pipeline.options;
  rq_oracle : int option;
}

let ( let* ) = Result.bind

(* Field accessors over a decoded object: strict types, strict key
   set.  A fuzzed or hand-written body fails with the offending field
   named instead of silently running the wrong configuration. *)
let check_known fields known =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
  | Some (k, _) -> Error (Fmt.str "unknown field %S" k)
  | None -> Ok ()

let int_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Rc_obs.Json.Int n) -> Ok n
  | Some _ -> Error (Fmt.str "field %S must be an integer" name)

let bool_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Rc_obs.Json.Bool b) -> Ok b
  | Some _ -> Error (Fmt.str "field %S must be a boolean" name)

let positive name v =
  if v >= 1 then Ok v else Error (Fmt.str "field %S must be positive" name)

(* A machine parameter inside the range {!Rc_harness.Pipeline.options}
   and {!Rc_isa.Latency.v} accept, checked before anything is
   compiled. *)
let within name ~lo ~hi v =
  if v >= lo && v <= hi then Ok v
  else Error (Fmt.str "field %S must be in [%d, %d]" name lo hi)

let core_count cls name =
  within name
    ~lo:(Rc_harness.Pipeline.min_core cls)
    ~hi:Rc_harness.Pipeline.max_core

(* Decoders that can admit inline specs report through
   {!Rc_check.Spec.error}, keeping the 400 ([Malformed]) vs 413
   ([Too_large]) split; plain string errors are all [Malformed]. *)
let mal r = Result.map_error (fun m -> Rc_check.Spec.Malformed m) r

(* The exactly-one-of [bench]/[kernel]/[spec] selector shared by /run
   and /figures. *)
let kernel_of_fields fields =
  match
    ( List.assoc_opt "bench" fields,
      List.assoc_opt "kernel" fields,
      List.assoc_opt "spec" fields )
  with
  | Some (Rc_obs.Json.Str b), None, None ->
      mal
        (match
           List.find_opt
             (fun (w : Rc_workloads.Wutil.bench) ->
               w.Rc_workloads.Wutil.name = b)
             (Rc_workloads.Registry.all ())
         with
        | Some w -> Ok (K_bench w)
        | None -> Error (Fmt.str "unknown benchmark %S" b))
  | Some _, None, None -> mal (Error "field \"bench\" must be a string")
  | None, Some (Rc_obs.Json.Str k), None ->
      if k <> "" && String.length k <= 64 then Ok (K_id k)
      else mal (Error "field \"kernel\" must be a kernel id")
  | None, Some _, None -> mal (Error "field \"kernel\" must be a string")
  | None, None, Some sj ->
      let* s = Rc_check.Spec.of_json sj in
      Ok (K_spec s)
  | None, None, None ->
      mal (Error "one of \"bench\", \"kernel\" or \"spec\" is required")
  | _ ->
      mal
        (Error "fields \"bench\", \"kernel\" and \"spec\" are mutually \
                exclusive")

let oracle_of_fields fields =
  match List.assoc_opt "oracle" fields with
  | None -> Ok None
  | Some (Rc_obs.Json.Int n) when n >= 1 -> Ok (Some n)
  | Some _ -> mal (Error "field \"oracle\" must be a positive cycle count")

let run_request_of_json j =
  match j with
  | Rc_obs.Json.Obj fields ->
      let* () =
        mal
          (check_known fields
             [
               "bench"; "kernel"; "spec"; "oracle"; "scale"; "issue";
               "core_int"; "core_float"; "rc"; "load"; "connect";
               "mem_channels"; "extra_stage"; "model"; "no_unroll";
             ])
      in
      let* kernel = kernel_of_fields fields in
      let* oracle = oracle_of_fields fields in
      let* scale =
        mal (Result.bind (int_field fields "scale" ~default:1) (positive "scale"))
      in
      let* issue =
        mal (Result.bind (int_field fields "issue" ~default:4) (positive "issue"))
      in
      let* core_int =
        mal
          (Result.bind
             (int_field fields "core_int" ~default:16)
             (core_count Rc_isa.Reg.Int "core_int"))
      in
      let* core_float =
        mal
          (Result.bind
             (int_field fields "core_float" ~default:16)
             (core_count Rc_isa.Reg.Float "core_float"))
      in
      let* rc = mal (bool_field fields "rc" ~default:false) in
      let* load =
        mal
          (Result.bind
             (int_field fields "load" ~default:2)
             (within "load" ~lo:1 ~hi:Rc_isa.Latency.max_load))
      in
      let* connect =
        mal
          (Result.bind
             (int_field fields "connect" ~default:0)
             (within "connect" ~lo:0 ~hi:1))
      in
      let* mem_channels =
        match List.assoc_opt "mem_channels" fields with
        | None -> Ok None
        | Some (Rc_obs.Json.Int n) ->
            mal (Result.map Option.some (positive "mem_channels" n))
        | Some _ -> mal (Error "field \"mem_channels\" must be an integer")
      in
      let* extra_stage = mal (bool_field fields "extra_stage" ~default:false) in
      let* no_unroll = mal (bool_field fields "no_unroll" ~default:false) in
      let* model =
        match List.assoc_opt "model" fields with
        | None -> Ok Rc_core.Model.default
        | Some (Rc_obs.Json.Str s) -> (
            match Rc_core.Model.of_string s with
            | Some m -> Ok m
            | None -> mal (Error (Fmt.str "unknown model %S" s)))
        | Some (Rc_obs.Json.Int n) -> (
            match Rc_core.Model.of_string (string_of_int n) with
            | Some m -> Ok m
            | None -> mal (Error (Fmt.str "unknown model %d" n)))
        | Some _ -> mal (Error "field \"model\" must be a string or integer")
      in
      Ok
        {
          rq_kernel = kernel;
          rq_scale = scale;
          rq_opts =
            options_of ~issue ~core_int ~core_float ~rc ~load ~connect
              ~mem_channels ~extra_stage ~model ~no_unroll;
          rq_oracle = oracle;
        }
  | _ -> mal (Error "request body must be a JSON object")

type compile_request = {
  cq_spec : Rc_check.Gen.spec;
  cq_oracle : int option;
}

(* /compile accepts the spec document itself as the body, or a
   {"spec": ..., "oracle": N} wrapper when the oracle gate is
   wanted.  A bare document is recognised by its "funcs" field. *)
let compile_request_of_json j =
  match j with
  | Rc_obs.Json.Obj fields when List.mem_assoc "funcs" fields ->
      let* s = Rc_check.Spec.of_json j in
      Ok { cq_spec = s; cq_oracle = None }
  | Rc_obs.Json.Obj fields ->
      let* () = mal (check_known fields [ "spec"; "oracle" ]) in
      let* s =
        match List.assoc_opt "spec" fields with
        | Some sj -> Rc_check.Spec.of_json sj
        | None ->
            mal
              (Error
                 "request body must be a spec document or {\"spec\": ..., \
                  \"oracle\": N}")
      in
      let* oracle = oracle_of_fields fields in
      Ok { cq_spec = s; cq_oracle = oracle }
  | _ -> mal (Error "request body must be a JSON object")

type figures_request =
  | Fq_ids of string list
  | Fq_kernel of kernel_source

let figures_request_of_json j =
  match j with
  | Rc_obs.Json.Obj fields
    when List.exists
           (fun k -> List.mem_assoc k fields)
           [ "bench"; "kernel"; "spec" ] ->
      let* () = mal (check_known fields [ "bench"; "kernel"; "spec" ]) in
      let* kernel = kernel_of_fields fields in
      Ok (Fq_kernel kernel)
  | Rc_obs.Json.Obj fields ->
      let* () = mal (check_known fields [ "ids" ]) in
      let* ids =
        match List.assoc_opt "ids" fields with
        | None -> Ok []
        | Some (Rc_obs.Json.List ids) ->
            List.fold_left
              (fun acc id ->
                let* acc = acc in
                match id with
                | Rc_obs.Json.Str s -> Ok (s :: acc)
                | _ -> mal (Error "field \"ids\" must be a list of strings"))
              (Ok []) ids
            |> Result.map List.rev
        | Some _ -> mal (Error "field \"ids\" must be a list of strings")
      in
      let* () =
        match List.find_opt (fun id -> not (List.mem id all_figure_ids)) ids with
        | Some id -> mal (Error (Fmt.str "unknown experiment %S" id))
        | None -> Ok ()
      in
      Ok (Fq_ids (match ids with [] -> all_figure_ids | ids -> ids))
  | _ -> mal (Error "request body must be a JSON object")
