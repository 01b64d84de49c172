(* Tests for rc_harness: pipeline verification, experiment plumbing,
   speedup definitions, and the headline qualitative results of the
   paper that the repository claims to reproduce. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ctx = lazy (Rc_harness.Experiments.create ~scale:1 ())

let test_pipeline_verifies () =
  let b = Rc_workloads.Registry.find "cmp" in
  let opts = Rc_harness.Pipeline.options ~rc:true ~core_int:16 () in
  let c = Rc_harness.Pipeline.compile opts (b.Rc_workloads.Wutil.build 1) in
  let r = Rc_harness.Pipeline.simulate c in
  check_bool "cycles positive" true (r.Rc_machine.Machine.cycles > 0);
  check_bool "verified output" true
    (r.Rc_machine.Machine.output = c.Rc_harness.Pipeline.expected.Rc_interp.Interp.output)

let test_base_is_speedup_one () =
  (* the base configuration's speedup is 1 by definition *)
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "cmp" in
  let base_opts =
    Rc_harness.Pipeline.options ~opt:Rc_opt.Pass.Classical ~issue:1
      ~mem_channels:2 ~core_int:Rc_harness.Experiments.unlimited
      ~core_float:Rc_harness.Experiments.unlimited ()
  in
  Alcotest.(check (float 1e-9))
    "speedup of base" 1.0
    (Rc_harness.Experiments.speedup ctx b base_opts)

let test_memoisation () =
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "cmp" in
  let opts = Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true () in
  let s1 = Rc_harness.Experiments.speedup ctx b opts in
  let s2 = Rc_harness.Experiments.speedup ctx b opts in
  Alcotest.(check (float 0.0)) "memoised identical" s1 s2

let test_geomean () =
  let t =
    {
      Rc_harness.Experiments.id = "x";
      title = "";
      columns = [ "a" ];
      rows = [ ("p", [ 2.0 ]); ("q", [ 8.0 ]) ];
      note = "";
    }
  in
  match Rc_harness.Experiments.with_geomean t with
  | { Rc_harness.Experiments.rows = [ _; _; ("geomean", [ g ]) ]; _ } ->
      Alcotest.(check (float 1e-9)) "geometric mean" 4.0 g
  | _ -> Alcotest.fail "geomean row missing"

let test_table1_shape () =
  let t = Rc_harness.Experiments.table1 () in
  check "ten latencies" 10 (List.length t.Rc_harness.Experiments.rows);
  check_bool "div is 10" true
    (List.assoc "INT divide" t.Rc_harness.Experiments.rows = [ 10.0; 10.0 ])

(* --- the paper's headline qualitative claims, on two benchmarks -------------- *)

let speedup_of bench ~label ~rc =
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find bench in
  Rc_harness.Experiments.speedup ctx b
    (Rc_harness.Experiments.reg_opts b ~label ~rc ())

let test_rc_wins_at_small_cores () =
  (* paper: "All benchmarks run with a small number of core registers
     demonstrate a large performance advantage using the with-RC
     model" *)
  List.iter
    (fun bench ->
      let no = speedup_of bench ~label:8 ~rc:false in
      let rc = speedup_of bench ~label:8 ~rc:true in
      check_bool (bench ^ ": RC wins at 8 registers") true (rc > 1.5 *. no))
    [ "eqn"; "lex"; "espresso" ]

let test_models_converge_at_large_cores () =
  (* paper: at 64 registers both models perform alike *)
  List.iter
    (fun bench ->
      let no = speedup_of bench ~label:64 ~rc:false in
      let rc = speedup_of bench ~label:64 ~rc:true in
      check_bool
        (Fmt.str "%s: models converge at 64 (%.2f vs %.2f)" bench no rc)
        true
        (Float.abs (no -. rc) /. no < 0.15))
    [ "eqn"; "cmp"; "yacc" ]

let test_without_rc_degrades () =
  (* degradation of the without-RC model as registers shrink *)
  List.iter
    (fun bench ->
      let s64 = speedup_of bench ~label:64 ~rc:false in
      let s8 = speedup_of bench ~label:8 ~rc:false in
      check_bool (bench ^ ": severe degradation at 8") true (s8 < 0.6 *. s64))
    [ "eqn"; "lex"; "grep" ]

let test_rc_benefit_grows_with_issue_rate () =
  (* paper: "The performance improvement due to the RC method is more
     significant for higher issue rates" (geometric mean over a sample) *)
  let ctx = Lazy.force ctx in
  let ratio issue =
    let benches = [ "eqn"; "espresso"; "lex" ] in
    let prod op =
      List.fold_left
        (fun acc bench ->
          let b = Rc_workloads.Registry.find bench in
          acc
          *. Rc_harness.Experiments.speedup ctx b
               (Rc_harness.Experiments.reg_opts b
                  ~label:(Rc_harness.Experiments.small_label b) ~rc:op ~issue ()))
        1.0 benches
    in
    prod true /. prod false
  in
  check_bool "benefit grows 1 -> 4 issue" true (ratio 4 > ratio 1)

let test_fig9_rc_code_larger_but_faster () =
  (* paper: "Although the code size increase of the with-RC model is
     significantly more than the without-RC model, the with-RC model
     achieves higher performance." *)
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "eqn" in
  let o_no = Rc_harness.Experiments.reg_opts b ~label:16 ~rc:false () in
  let o_rc = Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true () in
  let _, bk_no, _ = Rc_harness.Experiments.run ctx b o_no in
  let _, bk_rc, _ = Rc_harness.Experiments.run ctx b o_rc in
  check_bool "rc code larger" true
    (Rc_harness.Experiments.size_increase bk_rc
    > Rc_harness.Experiments.size_increase bk_no);
  check_bool "rc still faster" true
    (Rc_harness.Experiments.speedup ctx b o_rc
    > Rc_harness.Experiments.speedup ctx b o_no)

let test_fig12_extra_stage_cheap () =
  (* paper: "very little performance loss when the RC method cannot be
     implemented within an existing pipeline" (extra-stage case) *)
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "lex" in
  let fast = Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true () in
  let deep =
    Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true ~extra_stage:true ()
  in
  let s_fast = Rc_harness.Experiments.speedup ctx b fast in
  let s_deep = Rc_harness.Experiments.speedup ctx b deep in
  check_bool "within 5%" true (s_deep > 0.95 *. s_fast)

(* --- telemetry ---------------------------------------------------------------- *)

let test_registry_slot_invariant () =
  (* the slot-accounting identity must hold on real compiled code, not
     just micro-programs: one registry workload across issue rates, both
     connect latencies, RC on and off *)
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "cmp" in
  List.iter
    (fun issue ->
      List.iter
        (fun connect ->
          List.iter
            (fun rc ->
              let lat = Rc_isa.Latency.v ~connect () in
              let opts =
                Rc_harness.Experiments.reg_opts b ~label:16 ~rc ~issue ~lat ()
              in
              let r, _, _ = Rc_harness.Experiments.run ctx b opts in
              check_bool
                (Fmt.str "cmp i=%d c=%d rc=%b balances" issue connect rc)
                true
                (Rc_machine.Machine.slot_invariant_holds ~issue r))
            [ false; true ])
        [ 0; 1 ])
    [ 1; 2; 4; 8 ]

let test_pass_metrics () =
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "cmp" in
  let opts = Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true () in
  let cell = Rc_harness.Experiments.run_cell ctx b opts in
  let names =
    List.map (fun p -> p.Rc_harness.Pipeline.p_name) cell.Rc_harness.Experiments.c_passes
  in
  Alcotest.(check (list string))
    "stages in pipeline order"
    [
      "ilp-opt"; "legalize"; "profile"; "regalloc"; "lower"; "schedule";
      "rc-lower"; "assemble";
    ]
    names;
  List.iter
    (fun p ->
      let open Rc_harness.Pipeline in
      check_bool (p.p_name ^ " wall >= 0") true (p.p_wall_s >= 0.);
      check_bool (p.p_name ^ " sizes positive") true
        (p.p_size_in > 0 && p.p_size_out > 0))
    cell.Rc_harness.Experiments.c_passes;
  let find n =
    List.find (fun p -> p.Rc_harness.Pipeline.p_name = n)
      cell.Rc_harness.Experiments.c_passes
  in
  check "spills live on regalloc"
    cell.Rc_harness.Experiments.c_spills
    (find "regalloc").Rc_harness.Pipeline.p_spills;
  check_bool "rc-lower inserted connects" true
    ((find "rc-lower").Rc_harness.Pipeline.p_connects > 0)

let test_metrics_json_shape () =
  let ctx = Lazy.force ctx in
  let b = Rc_workloads.Registry.find "cmp" in
  ignore
    (Rc_harness.Experiments.run ctx b
       (Rc_harness.Experiments.reg_opts b ~label:16 ~rc:true ()));
  let j = Rc_harness.Experiments.metrics_json ctx in
  (* the dump must be valid JSON carrying every simulated cell *)
  match Rc_obs.Json.of_string (Rc_obs.Json.to_string j) with
  | Error m -> Alcotest.failf "metrics_json does not roundtrip: %s" m
  | Ok j' -> (
      match Rc_obs.Json.member "cells" j' with
      | Some (Rc_obs.Json.List cells) ->
          check_bool "at least one cell" true (cells <> []);
          List.iter
            (fun c ->
              check_bool "cell has key" true (Rc_obs.Json.member "key" c <> None);
              match Rc_obs.Json.member "machine" c with
              | Some m ->
                  check_bool "cycles present" true
                    (Rc_obs.Json.member "cycles" m <> None);
                  check_bool "lost_data present" true
                    (Rc_obs.Json.member "lost_data" m <> None)
              | None -> Alcotest.fail "cell lacks machine counters")
            cells
      | _ -> Alcotest.fail "no cells array")

let render_table t =
  Fmt.str "%a" Rc_harness.Experiments.print_table t

let test_parallel_tables_identical () =
  (* every table of the full grid must be byte-identical between a
     sequential and a 4-domain context *)
  let render jobs =
    let ctx = Rc_harness.Experiments.create ~scale:1 ~jobs () in
    Fun.protect
      ~finally:(fun () -> Rc_harness.Experiments.shutdown ctx)
      (fun () ->
        List.map render_table (Rc_harness.Experiments.all_figures ctx))
  in
  let seq = render 1 and par = render 4 in
  check "same table count" (List.length seq) (List.length par);
  List.iter2
    (fun s p ->
      Alcotest.(check string) "table identical across jobs counts" s p)
    seq par

let test_experiment_ids_resolve () =
  let ctx = Rc_harness.Experiments.create ~scale:1 () in
  List.iter
    (fun id ->
      check_bool (id ^ " resolves") true
        (Rc_harness.Experiments.by_id ctx id <> None))
    [ "table1" ];
  check_bool "unknown id" true (Rc_harness.Experiments.by_id ctx "nope" = None)

(* `rcc serve` wires shutdown both to the normal exit path and to
   signal handling, so a context must tolerate being shut down twice,
   while idle, and from two domains racing. *)
let test_shutdown_idempotent () =
  let ctx = Rc_harness.Experiments.create ~scale:1 ~jobs:2 () in
  ignore (Rc_harness.Experiments.table1 ());
  Rc_harness.Experiments.shutdown ctx;
  Rc_harness.Experiments.shutdown ctx;
  check_bool "double shutdown returns" true true

let test_shutdown_idle_pool () =
  (* Never ran anything: the workers are parked on the condition
     variable and must still be woken and joined. *)
  let ctx = Rc_harness.Experiments.create ~scale:1 ~jobs:4 () in
  Rc_harness.Experiments.shutdown ctx;
  Rc_harness.Experiments.shutdown ctx;
  check_bool "idle shutdown returns" true true

let test_shutdown_concurrent () =
  let ctx = Rc_harness.Experiments.create ~scale:1 ~jobs:4 () in
  let d1 = Domain.spawn (fun () -> Rc_harness.Experiments.shutdown ctx) in
  let d2 = Domain.spawn (fun () -> Rc_harness.Experiments.shutdown ctx) in
  Rc_harness.Experiments.shutdown ctx;
  Domain.join d1;
  Domain.join d2;
  check_bool "concurrent shutdown returns" true true

(* --- the trace-cache policy ------------------------------------------------------ *)

module E = Rc_harness.Experiments

(* An in-memory second cache level in place of the on-disk store:
   the harness sees only the two closures. *)
let mem_store () =
  let tbl = Hashtbl.create 64 and mu = Mutex.create () in
  let published = ref 0 in
  let probe key = Mutex.protect mu (fun () -> Hashtbl.find_opt tbl key) in
  let publish key tr =
    Mutex.protect mu (fun () ->
        incr published;
        Hashtbl.replace tbl key tr)
  in
  (probe, publish, published)

let with_ctx ?store ~engine f =
  let ctx = E.create ~scale:1 ~jobs:1 ~engine () in
  Option.iter (fun (probe, publish, _) -> E.set_store ctx ~probe ~publish) store;
  Fun.protect ~finally:(fun () -> E.shutdown ctx) (fun () -> f ctx)

(* Which path times a cell is a cache policy: it moves the counters,
   never a number.  One cell through [simulate_cell] under each engine
   and store state, then the whole of fig12 against the oracle. *)
let test_trace_cache_policy () =
  let b = Rc_workloads.Registry.find "cmp" in
  let opts = E.reg_opts b ~label:16 ~rc:true () in
  let c = Rc_harness.Pipeline.compile opts (b.Rc_workloads.Wutil.build 1) in
  let oracle = Rc_harness.Pipeline.simulate c in
  let step ctx what ~engine ~recorded =
    let r, used = E.simulate_cell ctx c in
    Alcotest.(check string) (what ^ ": engine") engine used;
    check_bool (what ^ ": equals execution") true (r = oracle);
    check (what ^ ": traces recorded") recorded (E.engine_stats ctx).E.recorded
  in
  with_ctx ~engine:E.Auto (fun ctx ->
      step ctx "auto, first sighting" ~engine:"execute" ~recorded:0;
      step ctx "auto, second sighting" ~engine:"execute" ~recorded:1;
      step ctx "auto, third sighting" ~engine:"replay" ~recorded:1);
  with_ctx ~engine:E.Replay (fun ctx ->
      step ctx "replay, first sighting" ~engine:"execute" ~recorded:1;
      step ctx "replay, second sighting" ~engine:"replay" ~recorded:1);
  let ((_, _, published) as store) = mem_store () in
  with_ctx ~store ~engine:E.Auto (fun ctx ->
      step ctx "auto + store, first sighting" ~engine:"execute" ~recorded:1;
      check "auto + store publishes its first sighting" 1 !published);
  let ((_, _, published) as store) = mem_store () in
  with_ctx ~store ~engine:E.Replay (fun ctx ->
      step ctx "replay + store, first sighting" ~engine:"execute" ~recorded:1;
      check "replay + store publishes its first sighting" 1 !published);
  with_ctx ~store ~engine:E.Auto (fun ctx ->
      step ctx "fresh context, warm store" ~engine:"replay" ~recorded:0;
      check "store hit" 1 (E.engine_stats ctx).E.store_hits);
  (* fig12 at one domain: every engine and store state renders the
     oracle's table; the counters pin the policy. *)
  let expected = with_ctx ~engine:E.Execute (fun ctx -> render_table (E.fig12 ctx)) in
  let sweep ?store engine =
    with_ctx ?store ~engine (fun ctx ->
        Alcotest.(check string)
          (E.engine_name engine ^ ": fig12 equals execution")
          expected
          (render_table (E.fig12 ctx));
        E.engine_stats ctx)
  in
  let counts what (s : E.engine_stats) ~hits ~store_hits ~misses ~recorded =
    check (what ^ ": hits") hits s.E.hits;
    check (what ^ ": store hits") store_hits s.E.store_hits;
    check (what ^ ": misses") misses s.E.misses;
    check (what ^ ": recorded") recorded s.E.recorded
  in
  counts "auto" (sweep E.Auto) ~hits:25 ~store_hits:0 ~misses:47 ~recorded:23;
  counts "replay" (sweep E.Replay) ~hits:25 ~store_hits:0 ~misses:47
    ~recorded:23;
  let ((_, _, published) as store) = mem_store () in
  counts "auto, empty store" (sweep ~store E.Auto) ~hits:25 ~store_hits:0
    ~misses:47 ~recorded:47;
  check "auto, empty store: published" 47 !published;
  counts "auto, warm store" (sweep ~store E.Auto) ~hits:72 ~store_hits:47
    ~misses:0 ~recorded:0;
  check "auto, warm store: nothing new published" 47 !published

(* The back half is kept from a cell's second request: the first two
   requests compile, the third gets the second's image back. *)
let test_back_half_second_sighting () =
  let b = Rc_workloads.Registry.find "cmp" in
  let opts = E.reg_opts b ~label:16 ~rc:true () in
  with_ctx ~engine:E.Replay (fun ctx ->
      let c1 = E.compile_cell ctx b opts in
      check "first request keeps no image" 0 (E.stage_stats ctx).E.images;
      let c2 = E.compile_cell ctx b opts in
      let c3 = E.compile_cell ctx b opts in
      check_bool "first two compile separately" true (c1 != c2);
      check_bool "third reuses the second" true (c2 == c3);
      check "one image kept" 1 (E.stage_stats ctx).E.images)

(* A sweep compiles each cell once, so it keeps no image. *)
let test_sweep_keeps_no_image () =
  with_ctx ~engine:E.Auto (fun ctx ->
      ignore (E.fig12 ctx);
      let s = E.stage_stats ctx in
      check "no compiled image" 0 s.E.images;
      check_bool "entries kept" true (s.E.entries > 0);
      check "uncapped: nothing charged" 0 s.E.charged;
      check "uncapped: nothing evicted" 0 s.E.evictions)

(* 300 distinct configurations through a 2 MiB cache: bounded after
   every call, evicting, and exact — every number equals an uncapped
   context's. *)
let test_capped_context () =
  let b = Rc_workloads.Registry.find "cmp" in
  let cap = 2 lsl 20 in
  let configs =
    List.init 300 (fun k ->
        Rc_harness.Pipeline.options ~rc:(k mod 2 = 1)
          ~core_int:(8 + (k / 2)) ())
  in
  let answer ctx opts =
    let c = E.compile_cell ctx b opts in
    let r, _ = E.simulate_cell ctx c in
    (r, c.Rc_harness.Pipeline.breakdown, c.Rc_harness.Pipeline.spills,
     c.Rc_harness.Pipeline.connects_inserted)
  in
  let capped =
    let ctx = E.create ~jobs:1 ~engine:E.Replay ~max_bytes:cap () in
    Fun.protect ~finally:(fun () -> E.shutdown ctx) (fun () ->
        let rs =
          List.map
            (fun opts ->
              let r = answer ctx opts in
              let s = E.stage_stats ctx in
              if s.E.charged > cap then
                Alcotest.failf "charged %d bytes over a %d-byte cap" s.E.charged
                  cap;
              r)
            configs
        in
        let s = E.stage_stats ctx in
        check_bool "evicted" true (s.E.evictions > 0);
        Alcotest.(check (option int)) "cap reported" (Some cap) s.E.cap;
        rs)
  in
  let uncapped =
    with_ctx ~engine:E.Replay (fun ctx -> List.map (answer ctx) configs)
  in
  List.iteri
    (fun k ((r, bk, sp, cn), (r', bk', sp', cn')) ->
      let what = Fmt.str "configuration %d" k in
      check_bool (what ^ ": machine result") true (r = r');
      check_bool (what ^ ": code size") true (bk = bk');
      check (what ^ ": spills") sp' sp;
      check (what ^ ": connects") cn' cn)
    (List.combine capped uncapped)

let suite =
  [
    ("pipeline verifies output", `Quick, test_pipeline_verifies);
    ("base speedup is 1", `Slow, test_base_is_speedup_one);
    ("memoisation", `Slow, test_memoisation);
    ("geomean", `Quick, test_geomean);
    ("table 1 shape", `Quick, test_table1_shape);
    ("RC wins at small cores", `Slow, test_rc_wins_at_small_cores);
    ("models converge at 64", `Slow, test_models_converge_at_large_cores);
    ("without-RC degrades", `Slow, test_without_rc_degrades);
    ("RC benefit grows with issue rate", `Slow, test_rc_benefit_grows_with_issue_rate);
    ("fig 9: larger but faster", `Slow, test_fig9_rc_code_larger_but_faster);
    ("fig 12: extra stage cheap", `Slow, test_fig12_extra_stage_cheap);
    ("parallel tables identical", `Slow, test_parallel_tables_identical);
    ("experiment ids resolve", `Quick, test_experiment_ids_resolve);
    ("registry slot invariant matrix", `Slow, test_registry_slot_invariant);
    ("per-pass pipeline metrics", `Slow, test_pass_metrics);
    ("metrics json shape", `Slow, test_metrics_json_shape);
    ("shutdown is idempotent", `Quick, test_shutdown_idempotent);
    ("shutdown of an idle pool", `Quick, test_shutdown_idle_pool);
    ("concurrent shutdown", `Quick, test_shutdown_concurrent);
    ("one trace-cache policy", `Slow, test_trace_cache_policy);
    ("back half kept from the second request", `Quick,
     test_back_half_second_sighting);
    ("sweeps keep no compiled image", `Slow, test_sweep_keeps_no_image);
    ("capped context bounded and exact", `Slow, test_capped_context);
  ]
