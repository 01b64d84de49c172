(* The block timing memo (DESIGN.md §18): memoised replay must be
   bit-identical to unmemoised replay and to execution-driven
   simulation — on real kernels, on generated programs across the full
   fuzz grid, and under every fallback condition the memo can take
   (long-latency writes straddling a block end, taken-branch
   redirects, map-table mutations, signature overflow, the fuel
   boundary). *)

open Rc_harness
open Rc_workloads
module Gen = Rc_check.Gen
module Fuzz = Rc_check.Fuzz
module Trace_replay = Rc_machine.Trace_replay

let divergence = T_replay.divergence
let compile = T_replay.compile

(** Execute-and-record, then replay twice — memo on (with [stats]) and
    memo off — and require both bit-identical to the execution. *)
let check_cell ?stats key c =
  let r_exec, tr = Pipeline.simulate_recorded c in
  match tr with
  | None -> Alcotest.failf "%s: run was not replayable" key
  | Some tr ->
      let r_memo = Pipeline.simulate_replayed ?stats c tr in
      let r_plain = Pipeline.simulate_replayed ~memo:false c tr in
      (match divergence (key ^ "/memo") r_exec r_memo with
      | None -> ()
      | Some msg -> Alcotest.fail msg);
      (match divergence (key ^ "/plain") r_exec r_plain with
      | None -> ()
      | Some msg -> Alcotest.fail msg)

(* --- property: generated programs over the fuzz grid --------------------- *)

(* 100 generator programs, each compiled and timed at all 18 fuzz grid
   points: memoised ≡ unmemoised ≡ execute, field by field.  The
   generator aims at spills, connects, carried dependences and mixed
   int/float traffic, so the grid sweep exercises map mutations and
   model resets the figure kernels cannot.  Preparation is shared per
   program and allocation per (program, alloc_key), as the harness
   does — the sweep is 1800 cells. *)
let test_gen_grid () =
  let stats = Trace_replay.memo_stats () in
  for seed = 0 to 99 do
    let opt = Fuzz.opt_of_index seed in
    let prog = Gen.render (Gen.generate seed) in
    let prep = Pipeline.prepare ~opt prog in
    let allocs = Hashtbl.create 4 in
    List.iter
      (fun p ->
        let opts = Fuzz.options_of_point ~opt p in
        let a =
          let k = Pipeline.alloc_key opts in
          match Hashtbl.find_opt allocs k with
          | Some a -> a
          | None ->
              let a = Pipeline.allocate opts prep in
              Hashtbl.add allocs k a;
              a
        in
        let c = Pipeline.compile_allocated opts a in
        check_cell ~stats
          (Fmt.str "gen%d/%s" seed (Fuzz.point_name p))
          c)
      Fuzz.grid
  done;
  (* The sweep must actually exercise the memo, not just fall back. *)
  Alcotest.(check bool)
    "memo engaged across the generator sweep" true
    (stats.Trace_replay.m_hits > 0 && stats.Trace_replay.m_misses > 0)

(* --- fallback conditions, one targeted test each ------------------------- *)

(* Long-latency loads whose scoreboard writes straddle block ends:
   the residues must round-trip through the out-signature exactly. *)
let test_straddling_latency () =
  let stats = Trace_replay.memo_stats () in
  let b = Registry.find "lex" in
  let lat = Rc_isa.Latency.v ~load:6 () in
  check_cell ~stats "memo/lex/load6"
    (compile b (Experiments.reg_opts b ~label:16 ~rc:true ~lat ()));
  Alcotest.(check bool)
    "long-latency replay exercised the memo" true
    (stats.Trace_replay.m_hits > 0)

(* Taken-branch redirects: a taken branch ends its block, and the
   block's identity carries the outcome, so a memoised visit replays
   the redirect penalty inside its effect.  The memo must stay exact
   around it (and with the extra mapping stage's larger penalty). *)
let test_redirects () =
  let stats = Trace_replay.memo_stats () in
  let b = Registry.find "grep" in
  let lat = Rc_isa.Latency.v ~connect:1 () in
  let label = Experiments.small_label b in
  check_cell ~stats "memo/grep/redirect"
    (compile b (Experiments.reg_opts b ~label ~rc:true ~lat ()));
  check_cell ~stats "memo/grep/redirect+st"
    (compile b
       (Experiments.reg_opts b ~label ~rc:true ~lat ~extra_stage:true ()));
  Alcotest.(check bool)
    "branchy replay exercised the memo" true
    (stats.Trace_replay.m_hits > 0)

(* Map-table mutations: literal entries with register deltas update the
   cursor's prediction tables, so the block cursor must version its
   block identities — a stale memo entry would re-time the wrong
   resolved registers.  Model 3's read-map updates make such literals
   common. *)
let test_map_mutation () =
  let stats = Trace_replay.memo_stats () in
  let model3 =
    List.find
      (fun m -> Rc_core.Model.number m = 3)
      Rc_core.Model.all
  in
  List.iter
    (fun name ->
      let b = Registry.find name in
      check_cell ~stats
        (Fmt.str "memo/%s/model3" name)
        (compile b
           (Experiments.reg_opts b
              ~label:(Experiments.small_label b)
              ~rc:true ~model:model3 ())))
    [ "cmp"; "eqn" ];
  Alcotest.(check bool)
    "map-mutating replay exercised the memo" true
    (stats.Trace_replay.m_hits > 0)

(* Signature overflow: at issue 300 the free-slot count does not fit
   the signature's byte, so every visit must fall back — and the
   result must still be exact. *)
let test_signature_overflow () =
  let stats = Trace_replay.memo_stats () in
  let b = Registry.find "cmp" in
  check_cell ~stats "memo/cmp/issue300"
    (compile b (Experiments.reg_opts b ~label:16 ~rc:true ~issue:300 ()));
  Alcotest.(check int) "no memo probe fits the signature" 0
    stats.Trace_replay.m_hits;
  Alcotest.(check bool)
    "every block visit fell back" true
    (stats.Trace_replay.m_fallbacks > 0)

(* The fuel boundary: a memo hit may never carry the clock past the
   configured fuel — near the limit the memo must fall back to the
   per-entry loop so exhaustion surfaces exactly as execution's. *)
let test_fuel_boundary () =
  let b = Registry.find "cmp" in
  let c = compile b (Experiments.reg_opts b ~label:16 ~rc:true ()) in
  let r_exec, tr = Pipeline.simulate_recorded c in
  let tr = Option.get tr in
  let cfg = Pipeline.machine_config c.Pipeline.opts in
  let image = c.Pipeline.image in
  (* Just enough fuel: all three engines finish, identically. *)
  let enough = { cfg with Rc_machine.Config.fuel = r_exec.Rc_machine.Machine.cycles + 1 } in
  let r_e = Rc_machine.Machine.run enough image in
  (match divergence "fuel/enough/memo" r_e (Trace_replay.replay enough image tr) with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  (match
     divergence "fuel/enough/plain" r_e
       (Trace_replay.replay ~memo:false enough image tr)
   with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  (* Not enough: every engine reports exhaustion rather than a result. *)
  let short =
    { cfg with Rc_machine.Config.fuel = max 1 (r_exec.Rc_machine.Machine.cycles / 2) }
  in
  let exhausts f =
    match f () with
    | exception Rc_machine.Machine.Simulation_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "execute exhausts" true
    (exhausts (fun () -> Rc_machine.Machine.run short image));
  Alcotest.(check bool)
    "memoised replay exhausts" true
    (exhausts (fun () -> Trace_replay.replay short image tr));
  Alcotest.(check bool)
    "unmemoised replay exhausts" true
    (exhausts (fun () -> Trace_replay.replay ~memo:false short image tr))

(* Loop-dominated kernels are the memo's reason to exist: repeated
   visits to the same block in the same timing state must mostly
   hit. *)
let test_loops_hit () =
  let stats = Trace_replay.memo_stats () in
  let b = Registry.find "matrix300" in
  check_cell ~stats "memo/matrix300/hits"
    (compile b
       (Experiments.reg_opts b ~label:(Experiments.small_label b) ~rc:true ()));
  Alcotest.(check bool)
    (Fmt.str "hits dominate misses (%d hits, %d misses)"
       stats.Trace_replay.m_hits stats.Trace_replay.m_misses)
    true
    (stats.Trace_replay.m_hits > stats.Trace_replay.m_misses)

(* The branchy kernels — short blocks, most of them ending in a taken
   branch — over the timing knobs that change what a block's effect
   is: issue width, connect latency (the pending map entries), the
   extra stage (the redirect penalty) and the four reset models (the
   connects' register traffic).  Every cell: memo ≡ plain ≡ execute,
   and across the grid the memo must mostly hit. *)
let test_branchy_grid () =
  let stats = Trace_replay.memo_stats () in
  List.iter
    (fun name ->
      let b = Registry.find name in
      List.iter
        (fun model ->
          List.iter
            (fun issue ->
              List.iter
                (fun connect ->
                  List.iter
                    (fun extra_stage ->
                      let lat = Rc_isa.Latency.v ~connect () in
                      check_cell ~stats
                        (Fmt.str "memo/%s/m%d/i%d/c%d%s" name
                           (Rc_core.Model.number model) issue connect
                           (if extra_stage then "+st" else ""))
                        (compile b
                           (Experiments.reg_opts b ~label:16 ~rc:true ~issue
                              ~lat ~model ~extra_stage ())))
                    [ false; true ])
                [ 0; 1 ])
            [ 1; 2; 4; 8 ])
        Rc_core.Model.all)
    [ "cccp"; "compress"; "yacc" ];
  Alcotest.(check bool)
    (Fmt.str "hits above misses (%d hits, %d misses)"
       stats.Trace_replay.m_hits stats.Trace_replay.m_misses)
    true
    (stats.Trace_replay.m_hits > stats.Trace_replay.m_misses)

(* [m_bytes] claims the memo tables' exact heap size: check it against
   the runtime's own count of every block reachable from the table,
   headers included — for one state, and summed over a batch. *)
let test_memo_bytes_exact () =
  List.iter
    (fun (name, rc) ->
      let b = Registry.find name in
      let c = compile b (Experiments.reg_opts b ~label:16 ~rc ()) in
      let r_exec, tr = Pipeline.simulate_recorded c in
      let tr = Option.get tr in
      let cfg = Pipeline.machine_config c.Pipeline.opts in
      let image = c.Pipeline.image in
      let stats = Trace_replay.memo_stats () in
      let r, memo = Trace_replay.replay_memo ~stats cfg image tr in
      (match divergence (name ^ "/bytes") r_exec r with
      | None -> ()
      | Some msg -> Alcotest.fail msg);
      let words = Obj.reachable_words (Obj.repr memo) in
      Alcotest.(check int)
        (Fmt.str "%s rc=%b: m_bytes = heap words reachable from the memo" name
           rc)
        (8 * words) stats.Trace_replay.m_bytes;
      let batch = Trace_replay.memo_stats () in
      ignore
        (Trace_replay.replay_batch ~stats:batch
           [| cfg; { cfg with Rc_machine.Config.issue = 2 } |]
           image tr);
      let _, memo2 =
        Trace_replay.replay_memo
          { cfg with Rc_machine.Config.issue = 2 }
          image tr
      in
      Alcotest.(check int)
        (Fmt.str "%s rc=%b: a batch sums its states' memos" name rc)
        (8 * (words + Obj.reachable_words (Obj.repr memo2)))
        batch.Trace_replay.m_bytes)
    [ ("cccp", false); ("compress", true); ("matrix300", true) ]

(* Replay allocates nothing per instruction, with the memo on or off:
   a run's minor allocation is its fixed set-up (predecode, tables,
   output list), well under half a word per simulated instruction.  A
   value boxed or a signature built on the hot path costs words per
   instruction that reaches it. *)
let test_replay_allocation () =
  List.iter
    (fun name ->
      List.iter
        (fun rc ->
          let b = Registry.find name in
          let c = compile b (Experiments.reg_opts b ~label:16 ~rc ()) in
          let _, tr = Pipeline.simulate_recorded c in
          let tr = Option.get tr in
          let cfg = Pipeline.machine_config c.Pipeline.opts in
          List.iter
            (fun memo ->
              let w0 = Gc.minor_words () in
              let r = Trace_replay.replay ~memo cfg c.Pipeline.image tr in
              let words = Gc.minor_words () -. w0 in
              let per_insn = words /. float_of_int r.Rc_machine.Machine.issued in
              if per_insn >= 0.5 then
                Alcotest.failf
                  "%s rc=%b memo=%b: %.2f minor words per simulated instruction"
                  name rc memo per_insn)
            [ true; false ])
        [ false; true ])
    [ "cccp"; "compress"; "yacc"; "espresso" ]

let suite =
  [
    ("generator programs x fuzz grid: memo ≡ plain ≡ execute", `Slow, test_gen_grid);
    ("straddling long-latency writes", `Quick, test_straddling_latency);
    ("taken-branch redirects", `Quick, test_redirects);
    ("map-table mutations version the memo", `Quick, test_map_mutation);
    ("signature overflow falls back exactly", `Quick, test_signature_overflow);
    ("fuel boundary falls back exactly", `Quick, test_fuel_boundary);
    ("loop kernels mostly hit", `Quick, test_loops_hit);
    ("branchy kernels x timing grid: memo ≡ plain ≡ execute", `Slow, test_branchy_grid);
    ("memo bytes are exact", `Quick, test_memo_bytes_exact);
    ("replay allocates almost nothing", `Quick, test_replay_allocation);
  ]
