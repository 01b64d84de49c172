(* Equivalence of the trace-replay timing engine with execution-driven
   simulation (DESIGN.md §14): Machine.result must be bit-identical
   between the two engines on every cell of the fig10 and fig13 grids
   and under all four automatic-reset models, and a planted divergence
   (sabotaged trace) must be caught and attributed to its cell key. *)

open Rc_harness
open Rc_workloads

let check_bool = Alcotest.(check bool)

(* Compilation sharing mirrors the experiment harness: one [prepare]
   per benchmark, one [allocate] per (benchmark, alloc_key) — the tests
   sweep hundreds of cells and recompiling the front half every time
   would dominate the suite. *)

let prepared : (string, Pipeline.prepared) Hashtbl.t = Hashtbl.create 16
let allocs : (string, Pipeline.allocated) Hashtbl.t = Hashtbl.create 64

let compile (b : Wutil.bench) (opts : Pipeline.options) =
  let p =
    match Hashtbl.find_opt prepared b.Wutil.name with
    | Some p -> p
    | None ->
        let p = Pipeline.prepare ~opt:opts.Pipeline.opt (b.Wutil.build 1) in
        Hashtbl.add prepared b.Wutil.name p;
        p
  in
  let akey = b.Wutil.name ^ "#" ^ Pipeline.alloc_key opts in
  let a =
    match Hashtbl.find_opt allocs akey with
    | Some a -> a
    | None ->
        let a = Pipeline.allocate opts p in
        Hashtbl.add allocs akey a;
        a
  in
  Pipeline.compile_allocated opts a

(** First field where two results differ, as a message naming the cell
    — [None] when bit-identical.  Field-by-field so a regression points
    at the counter that drifted, not just "results differ". *)
let divergence key (a : Rc_machine.Machine.result) (b : Rc_machine.Machine.result)
    =
  let open Rc_machine.Machine in
  let ints =
    [
      ("cycles", a.cycles, b.cycles);
      ("issued", a.issued, b.issued);
      ("connects", a.connects, b.connects);
      ("extra_connects", a.extra_connects, b.extra_connects);
      ("mem_ops", a.mem_ops, b.mem_ops);
      ("branches", a.branches, b.branches);
      ("mispredicts", a.mispredicts, b.mispredicts);
      ("data_stalls", a.data_stalls, b.data_stalls);
      ("map_stalls", a.map_stalls, b.map_stalls);
      ("channel_stalls", a.channel_stalls, b.channel_stalls);
      ("lost_data", a.lost_data, b.lost_data);
      ("lost_map", a.lost_map, b.lost_map);
      ("lost_channel", a.lost_channel, b.lost_channel);
      ("lost_branch", a.lost_branch, b.lost_branch);
      ("lost_fetch", a.lost_fetch, b.lost_fetch);
    ]
  in
  match List.find_opt (fun (_, x, y) -> x <> y) ints with
  | Some (f, x, y) ->
      Some (Fmt.str "%s: %s executed %d, replayed %d" key f x y)
  | None ->
      if not (Int64.equal a.checksum b.checksum) then
        Some (Fmt.str "%s: checksum %Ld <> %Ld" key a.checksum b.checksum)
      else if a.output <> b.output then Some (Fmt.str "%s: output differs" key)
      else None

(** Execute-and-record, replay, and require a bit-identical result. *)
let check_cell key c =
  let r_exec, tr = Pipeline.simulate_recorded c in
  match tr with
  | None -> Alcotest.failf "%s: run was not replayable" key
  | Some tr -> (
      let r_rep = Pipeline.simulate_replayed c tr in
      match divergence key r_exec r_rep with
      | None -> ()
      | Some msg -> Alcotest.fail msg)

let equivalent_on cells =
  List.iter (fun (key, b, opts) -> check_cell key (compile b opts)) cells

(* --- the grids ---------------------------------------------------------- *)

let fig10_cells () =
  let lat = Rc_isa.Latency.v ~load:2 () in
  List.concat_map
    (fun (b : Wutil.bench) ->
      let label = Experiments.small_label b in
      List.concat_map
        (fun issue ->
          [
            ( Fmt.str "fig10/%s/no/%d" b.Wutil.name issue,
              b,
              Experiments.reg_opts b ~label ~rc:false ~issue ~lat () );
            ( Fmt.str "fig10/%s/rc/%d" b.Wutil.name issue,
              b,
              Experiments.reg_opts b ~label ~rc:true ~issue ~lat () );
            ( Fmt.str "fig10/%s/un/%d" b.Wutil.name issue,
              b,
              Experiments.unlimited_opts ~issue ~lat () );
          ])
        [ 1; 2; 4; 8 ])
    (Registry.all ())

let fig13_cells () =
  List.concat_map
    (fun (b : Wutil.bench) ->
      let label = Experiments.small_label b in
      List.concat_map
        (fun load ->
          let lat = Rc_isa.Latency.v ~load () in
          List.concat_map
            (fun mem_channels ->
              [
                ( Fmt.str "fig13/%s/no%dc/l%d" b.Wutil.name mem_channels load,
                  b,
                  Experiments.reg_opts b ~label ~rc:false ~mem_channels ~lat ()
                );
                ( Fmt.str "fig13/%s/rc%dc/l%d" b.Wutil.name mem_channels load,
                  b,
                  Experiments.reg_opts b ~label ~rc:true ~mem_channels ~lat ()
                );
              ])
            [ 2; 4 ])
        [ 2; 4 ])
    (Registry.all ())

let model_cells () =
  List.concat_map
    (fun (b : Wutil.bench) ->
      let label = Experiments.small_label b in
      List.map
        (fun model ->
          ( Fmt.str "models/%s/m%d" b.Wutil.name (Rc_core.Model.number model),
            b,
            Experiments.reg_opts b ~label ~rc:true ~model () ))
        Rc_core.Model.all)
    (Registry.all ())

let test_fig10_grid () = equivalent_on (fig10_cells ())
let test_fig13_grid () = equivalent_on (fig13_cells ())
let test_reset_models () = equivalent_on (model_cells ())

(* --- re-timing across configurations ------------------------------------ *)

(* The engine's whole point: a trace recorded under one configuration
   re-times any other configuration with the same image fingerprint and
   semantic key.  extra_stage does not enter compilation, so the fig12
   ±st pairs share images — record without the extra stage, replay the
   variant with it. *)
let test_cross_config_retiming () =
  let b = Registry.find "grep" in
  let lat = Rc_isa.Latency.v ~connect:1 () in
  let label = Experiments.small_label b in
  let base =
    compile b (Experiments.reg_opts b ~label ~rc:true ~lat ~extra_stage:false ())
  in
  let st =
    compile b (Experiments.reg_opts b ~label ~rc:true ~lat ~extra_stage:true ())
  in
  Alcotest.(check string)
    "±extra-stage images share a fingerprint"
    (Rc_isa.Image.fingerprint base.Pipeline.image)
    (Rc_isa.Image.fingerprint st.Pipeline.image);
  let _, tr = Pipeline.simulate_recorded base in
  let tr = Option.get tr in
  let r_exec = Pipeline.simulate st in
  let r_rep = Pipeline.simulate_replayed st tr in
  match divergence "fig12/grep/1cyc+st" r_exec r_rep with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* --- batched replay ------------------------------------------------------ *)

(* The batching prefetch's contract: one [replay_batch] pass over a
   group's shared trace must reproduce both the per-cell replay and
   direct execution of every member, field by field.  Cells are grouped
   exactly as the harness does — image fingerprint + semantic key — so
   every cell of the grid is covered, singletons as batches of one.
   (Within fig10 alone every cell schedules differently, so groups stay
   singletons; K > 1 batches are exercised by the cross-config test
   below.) *)
let test_fig10_batched () =
  let groups : (string, (string * Pipeline.compiled) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (key, b, opts) ->
      let c = compile b opts in
      let tk =
        Rc_isa.Image.fingerprint c.Pipeline.image
        ^ "#"
        ^ Experiments.semantic_key opts
      in
      match Hashtbl.find_opt groups tk with
      | Some r -> r := (key, c) :: !r
      | None ->
          Hashtbl.add groups tk (ref [ (key, c) ]);
          order := tk :: !order)
    (fig10_cells ());
  let checked = ref 0 in
  List.iter
    (fun tk ->
      let cells = List.rev !(Hashtbl.find groups tk) in
      let _, c0 = List.hd cells in
      let _, tr = Pipeline.simulate_recorded c0 in
      let tr = Option.get tr in
      let rs = Pipeline.simulate_replay_batch (List.map snd cells) tr in
      List.iter2
        (fun (key, c) r_batch ->
          let r_exec = Pipeline.simulate c in
          (match divergence (key ^ "/batch") r_exec r_batch with
          | None -> ()
          | Some msg -> Alcotest.fail msg);
          (match
             divergence (key ^ "/per-cell") r_exec
               (Pipeline.simulate_replayed c tr)
           with
          | None -> ()
          | Some msg -> Alcotest.fail msg);
          incr checked)
        cells rs)
    (List.rev !order);
  Alcotest.(check int)
    "every fig10 cell checked"
    (List.length (fig10_cells ()))
    !checked

(* Batching across configurations that differ in timing knobs only:
   extra_stage never enters compilation, so the fig12 ±st pair shares
   one image, and the +st image run on a one-channel machine is a third
   timing state — one trace, one pass, three states. *)
let test_batch_cross_config () =
  let b = Registry.find "grep" in
  let lat = Rc_isa.Latency.v ~connect:1 () in
  let label = Experiments.small_label b in
  let base =
    compile b (Experiments.reg_opts b ~label ~rc:true ~lat ~extra_stage:false ())
  in
  let st =
    compile b (Experiments.reg_opts b ~label ~rc:true ~lat ~extra_stage:true ())
  in
  let ch1 =
    { st with Pipeline.opts = { st.Pipeline.opts with Pipeline.mem_channels = 1 } }
  in
  let _, tr = Pipeline.simulate_recorded base in
  let tr = Option.get tr in
  List.iter2
    (fun (key, c) r_batch ->
      match divergence key (Pipeline.simulate c) r_batch with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    [
      ("fig12/grep/batch/base", base);
      ("fig12/grep/batch/+st", st);
      ("fig12/grep/batch/+st/1ch", ch1);
    ]
    (Pipeline.simulate_replay_batch [ base; st; ch1 ] tr)

(* --- planted divergence -------------------------------------------------- *)

(* Flip the recorded outcome of the first taken branch: replay charges a
   different redirect penalty, so the equivalence check must fire — and
   name the cell it fired on. *)
let test_sabotage_caught () =
  let key = "sabotage/cmp/rc/16" in
  let b = Registry.find "cmp" in
  let c = compile b (Experiments.reg_opts b ~label:16 ~rc:true ()) in
  let r_exec, tr = Pipeline.simulate_recorded c in
  let tr = Option.get tr in
  let open Rc_machine.Dtrace in
  let arch =
    arch_of_dins
      (Rc_isa.Dins.decode ~lat:c.Pipeline.opts.Pipeline.lat
         c.Pipeline.image.Rc_isa.Image.code)
  in
  let es = entries arch tr in
  let i =
    let rec find i =
      if i >= Array.length es then
        Alcotest.fail "no taken branch in the cmp trace"
      else if taken es.(i) then i
      else find (i + 1)
    in
    find 0
  in
  let e = es.(i) in
  let flipped =
    pack ~pc:(pc e) ~sp0:(sp0 e) ~sp1:(sp1 e) ~dp:(dp e) ~map_on:(map_on e)
      ~taken:false
  in
  let bad = sabotage arch tr i flipped in
  let report =
    try divergence key r_exec (Pipeline.simulate_replayed ~verify:false c bad)
    with Rc_machine.Machine.Simulation_error m ->
      Some (Fmt.str "%s: replay failed: %s" key m)
  in
  match report with
  | Some msg ->
      check_bool "divergence report names the cell" true
        (String.length msg >= String.length key
        && String.sub msg 0 (String.length key) = key)
  | None -> Alcotest.fail "planted divergence went undetected"

let suite =
  [
    ("fig10 grid: replay ≡ execute", `Slow, test_fig10_grid);
    ("fig13 grid: replay ≡ execute", `Slow, test_fig13_grid);
    ("all reset models: replay ≡ execute", `Slow, test_reset_models);
    ("cross-config re-timing", `Slow, test_cross_config_retiming);
    ("fig10 grid: batched ≡ per-cell ≡ execute", `Slow, test_fig10_batched);
    ("cross-config batch", `Slow, test_batch_cross_config);
    ("sabotaged trace is caught", `Slow, test_sabotage_caught);
  ]
