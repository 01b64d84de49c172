(* Tests for rc_sched: dependence graph construction and list-scheduling
   correctness (permutation + dependence preservation) and packing. *)

open Rc_isa
module D = Rc_sched.Depgraph
module S = Rc_sched.List_sched

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lat = Latency.default

(* --- dependence graph ------------------------------------------------------ *)

let has_edge g a b = List.mem_assoc b g.D.succs.(a)

let test_raw_edge () =
  let insns = [| Insn.li ~dst:8 1L; Insn.alu Opcode.Add ~dst:9 ~s1:8 ~s2:8 |] in
  let g = D.build lat insns in
  check_bool "raw edge" true (has_edge g 0 1);
  check "latency carried" 1 (List.assoc 1 g.D.succs.(0))

let test_raw_latency_mul () =
  let insns = [| Insn.alu Opcode.Mul ~dst:8 ~s1:9 ~s2:9; Insn.alu Opcode.Add ~dst:10 ~s1:8 ~s2:8 |] in
  let g = D.build lat insns in
  check "mul latency 3" 3 (List.assoc 1 g.D.succs.(0))

let test_war_waw_edges () =
  let insns =
    [|
      Insn.alu Opcode.Add ~dst:8 ~s1:9 ~s2:9 (* def r8 *);
      Insn.alu Opcode.Add ~dst:10 ~s1:8 ~s2:8 (* use r8 *);
      Insn.li ~dst:8 5L (* redefines r8: WAR vs 1, WAW vs 0 *);
    |]
  in
  let g = D.build lat insns in
  check_bool "waw 0->2" true (has_edge g 0 2);
  check_bool "war 1->2" true (has_edge g 1 2);
  check "war latency zero" 0 (List.assoc 2 g.D.succs.(1))

let test_independent_no_edge () =
  let insns = [| Insn.li ~dst:8 1L; Insn.li ~dst:9 2L |] in
  let g = D.build lat insns in
  check_bool "independent" false (has_edge g 0 1 || has_edge g 1 0)

let test_memory_conservative () =
  let insns =
    [|
      Insn.st ~src:8 ~base:9 ~off:0 ();
      Insn.ld ~dst:10 ~base:11 ~off:0 () (* unknown bases: must be ordered *);
    |]
  in
  let g = D.build lat insns in
  check_bool "store before load" true (has_edge g 0 1)

let test_memory_sp_disambiguation () =
  let insns =
    [|
      Insn.st ~src:8 ~base:Reg.sp ~off:0 ();
      Insn.ld ~dst:10 ~base:Reg.sp ~off:8 () (* disjoint slots *);
      Insn.ld ~dst:11 ~base:Reg.sp ~off:0 () (* same slot: depends *);
    |]
  in
  let g = D.build lat insns in
  check_bool "disjoint sp slots independent" false (has_edge g 0 1);
  check_bool "same slot ordered" true (has_edge g 0 2)

let test_byte_overlap () =
  let insns =
    [|
      Insn.st ~src:8 ~base:Reg.sp ~off:0 () (* 8 bytes at 0..7 *);
      Insn.ld ~width:Opcode.W1 ~dst:10 ~base:Reg.sp ~off:5 () (* inside *);
    |]
  in
  let g = D.build lat insns in
  check_bool "byte inside word ordered" true (has_edge g 0 1)

let test_sp_redefinition_blocks_disambiguation () =
  let insns =
    [|
      Insn.st ~src:8 ~base:Reg.sp ~off:0 ();
      Insn.alui Opcode.Sub ~dst:Reg.sp ~s1:Reg.sp ~imm:16L;
      Insn.ld ~dst:10 ~base:Reg.sp ~off:8 () (* different sp! *);
    |]
  in
  let g = D.build lat insns in
  check_bool "load after sp change ordered vs store" true (has_edge g 0 2)

let test_call_barrier () =
  let insns =
    [| Insn.li ~dst:8 1L; Insn.jsr 3; Insn.li ~dst:9 2L |]
  in
  let g = D.build lat insns in
  check_bool "before call" true (has_edge g 0 1);
  check_bool "after call" true (has_edge g 1 2)

let test_emit_ordering () =
  let insns = [| Insn.emit ~src:8; Insn.emit ~src:9 |] in
  let g = D.build lat insns in
  check_bool "output order preserved" true (has_edge g 0 1)

let test_terminator_pinned () =
  let insns =
    [|
      Insn.li ~dst:8 1L;
      Insn.li ~dst:9 2L;
      Insn.br Opcode.Lt ~s1:8 ~s2:9 ~target:7 ~hint:false;
      Insn.jmp 9;
    |]
  in
  let g = D.build lat insns in
  check "two terminators" 2 g.D.n_term;
  check_bool "everything before br" true (has_edge g 0 2 && has_edge g 1 2);
  check_bool "br before jmp" true (has_edge g 2 3)

let test_heights () =
  let insns =
    [|
      Insn.alu Opcode.Mul ~dst:8 ~s1:9 ~s2:9;
      Insn.alu Opcode.Add ~dst:10 ~s1:8 ~s2:8;
      Insn.li ~dst:11 0L;
    |]
  in
  let g = D.build lat insns in
  let h = D.heights g in
  check_bool "chain head taller" true (h.(0) > h.(1));
  check "independent leaf" 0 h.(2)

(* --- list scheduling --------------------------------------------------------- *)

(** A schedule is valid iff it is a permutation that respects every
    dependence edge of the original order. *)
let valid_schedule original scheduled =
  let g = D.build lat original in
  let n = Array.length original in
  if Array.length scheduled <> n then false
  else begin
    (* positions by physical identity: the scheduler permutes the very
       same instruction records *)
    let find i =
      let rec go k =
        if k >= n then None else if scheduled.(k) == i then Some k else go (k + 1)
      in
      go 0
    in
    let perm = Array.for_all (fun i -> find i <> None) original in
    perm
    && begin
         let ok = ref true in
         Array.iteri
           (fun a succs ->
             List.iter
               (fun (b, _) ->
                 match (find original.(a), find original.(b)) with
                 | Some pa, Some pb -> if pa >= pb then ok := false
                 | _ -> ok := false)
               succs)
           g.D.succs;
         !ok
       end
  end

let test_schedule_respects_deps () =
  let original =
    [|
      Insn.li ~dst:8 1L;
      Insn.alu Opcode.Mul ~dst:9 ~s1:8 ~s2:8;
      Insn.li ~dst:10 2L;
      Insn.alu Opcode.Add ~dst:11 ~s1:9 ~s2:10;
      Insn.st ~src:11 ~base:Reg.sp ~off:0 ();
      Insn.ld ~dst:12 ~base:Reg.sp ~off:0 ();
      Insn.emit ~src:12;
      Insn.br Opcode.Lt ~s1:11 ~s2:12 ~target:3 ~hint:false;
    |]
  in
  let cfg = S.config ~width:4 ~mem_channels:2 ~lat () in
  let scheduled = S.schedule_block cfg (Array.copy original) in
  check_bool "valid schedule" true (valid_schedule original scheduled)

let test_schedule_fills_latency () =
  (* ld (latency 2) followed by its consumer and an independent op: the
     scheduler should place the independent op between them *)
  let original =
    [|
      Insn.ld ~dst:8 ~base:Reg.sp ~off:0 ();
      Insn.alu Opcode.Add ~dst:9 ~s1:8 ~s2:8;
      Insn.li ~dst:10 5L;
    |]
  in
  let cfg = S.config ~width:1 ~mem_channels:1 ~lat () in
  let s = S.schedule_block cfg (Array.copy original) in
  check_bool "independent op hides load latency" true
    (s.(1).Insn.op = Opcode.Li)

let test_schedule_workload_blocks () =
  (* every block of a compiled workload must be a valid schedule *)
  let bench = Rc_workloads.W_eqn.bench in
  let prog = bench.Rc_workloads.Wutil.build 1 in
  Rc_opt.Pass.ilp prog;
  Rc_codegen.Legalize.run prog;
  let outcome = Rc_interp.Interp.run prog in
  let alloc =
    Rc_regalloc.Alloc.run ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 32)
      prog outcome.Rc_interp.Interp.profile
  in
  let m = Rc_codegen.Lower.run prog alloc outcome.Rc_interp.Interp.profile in
  let cfg = S.config ~width:4 ~mem_channels:2 ~lat () in
  List.iter
    (fun (f : Mcode.func) ->
      List.iter
        (fun (b : Mcode.block) ->
          let original = Array.of_list b.Mcode.insns in
          let scheduled = S.schedule_block cfg (Array.copy original) in
          check_bool "workload block schedule valid" true
            (valid_schedule original scheduled))
        f.Mcode.blocks)
    m.Mcode.funcs

let qcheck_random_blocks =
  (* random straight-line blocks: scheduling preserves dependences *)
  let insn_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map3
              (fun d s1 s2 -> Insn.alu Opcode.Add ~dst:(8 + d) ~s1:(8 + s1) ~s2:(8 + s2))
              (int_range 0 5) (int_range 0 5) (int_range 0 5) );
          ( 2,
            map2
              (fun d off -> Insn.ld ~dst:(8 + d) ~base:Reg.sp ~off:(8 * off) ())
              (int_range 0 5) (int_range 0 3) );
          ( 2,
            map2
              (fun s off -> Insn.st ~src:(8 + s) ~base:Reg.sp ~off:(8 * off) ())
              (int_range 0 5) (int_range 0 3) );
          (1, map (fun s -> Insn.emit ~src:(8 + s)) (int_range 0 5));
          (1, map (fun d -> Insn.li ~dst:(8 + d) 7L) (int_range 0 5));
        ])
  in
  QCheck.Test.make ~count:200 ~name:"random blocks schedule validly"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) insn_gen))
    (fun insns ->
      let original = Array.of_list insns in
      let cfg = S.config ~width:4 ~mem_channels:2 ~lat () in
      let scheduled = S.schedule_block cfg (Array.copy original) in
      valid_schedule original scheduled)

(* --- equal to the reference scheduler --------------------------------------- *)

(* [Sched_ref] keeps the scheduler as it stood before its ready heaps
   and edge stamps.  The rule is unchanged, so the orders must be
   equal, record for record. *)
let same_order cfg insns =
  let a = S.schedule_block cfg (Array.copy insns)
  and b = Sched_ref.schedule_block cfg (Array.copy insns) in
  Array.length a = Array.length b && Array.for_all2 ( == ) a b

(* The sweep's scheduler settings: issue 1, 2, 4 and 8 with their
   default channels, 2 and 4 channels at 4-issue, 2- and 4-cycle
   loads. *)
let sweep_configs =
  List.concat_map
    (fun load ->
      let lat = Latency.v ~load () in
      List.map
        (fun (width, mem_channels) -> S.config ~width ~mem_channels ~lat ())
        [ (1, 2); (2, 2); (4, 2); (4, 4); (8, 4) ])
    [ 2; 4 ]

let test_reference_kernel_blocks () =
  let blocks = ref 0 in
  List.iter
    (fun (b : Rc_workloads.Wutil.bench) ->
      List.iter
        (fun opt ->
          let prep =
            Rc_harness.Pipeline.prepare ~opt (b.Rc_workloads.Wutil.build 1)
          in
          List.iter
            (fun opts ->
              let a = Rc_harness.Pipeline.allocate opts prep in
              List.iter
                (fun (f : Mcode.func) ->
                  List.iter
                    (fun (blk : Mcode.block) ->
                      let insns = Array.of_list blk.Mcode.insns in
                      incr blocks;
                      List.iter
                        (fun (cfg : S.config) ->
                          if not (same_order cfg insns) then
                            Alcotest.failf
                              "%s: block %d (%d insns) scheduled differently \
                               at width %d, %d channels, load %d"
                              b.Rc_workloads.Wutil.name blk.Mcode.label
                              (Array.length insns) cfg.S.width
                              cfg.S.mem_channels cfg.S.lat.Latency.load)
                        sweep_configs)
                    f.Mcode.blocks)
                a.Rc_harness.Pipeline.a_mcode.Mcode.funcs)
            [
              Rc_harness.Pipeline.options ~opt ~rc:false ~core_int:16
                ~core_float:16 ();
              Rc_harness.Pipeline.options ~opt ~rc:true ~core_int:16
                ~core_float:16 ();
              Rc_harness.Experiments.reg_opts b
                ~label:(Rc_harness.Experiments.small_label b)
                ~rc:true ~opt ();
            ])
        [ Rc_opt.Pass.Classical; Rc_opt.Pass.Ilp Rc_opt.Pass.default_unroll ])
    (Rc_workloads.Registry.all ());
  check_bool "kernel blocks compared" true (!blocks > 0)

(* Random blocks mixing what the dependence graph distinguishes: RAW,
   WAR and WAW chains, SP slots of both widths, SP redefinitions,
   stores and loads through other bases, emits, calls, and pinned
   terminators. *)
let qcheck_reference_random_blocks =
  let r n = QCheck.Gen.int_range 0 n in
  let insn_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map3
              (fun d s1 s2 ->
                Insn.alu Opcode.Add ~dst:(8 + d) ~s1:(8 + s1) ~s2:(8 + s2))
              (r 7) (r 7) (r 7) );
          ( 1,
            map3
              (fun d s1 s2 ->
                Insn.alu Opcode.Mul ~dst:(8 + d) ~s1:(8 + s1) ~s2:(8 + s2))
              (r 7) (r 7) (r 7) );
          ( 1,
            map3
              (fun d s1 s2 ->
                Insn.fpu Opcode.Fadd ~dst:(8 + d) ~s1:(8 + s1) ~s2:(8 + s2))
              (r 3) (r 3) (r 3) );
          ( 2,
            map2
              (fun d off -> Insn.ld ~dst:(8 + d) ~base:Reg.sp ~off:(8 * off) ())
              (r 7) (r 3) );
          ( 1,
            map2
              (fun d off ->
                Insn.ld ~width:Opcode.W1 ~dst:(8 + d) ~base:Reg.sp ~off ())
              (r 7) (r 31) );
          ( 2,
            map3
              (fun d b off -> Insn.ld ~dst:(8 + d) ~base:(8 + b) ~off:(8 * off) ())
              (r 7) (r 7) (r 3) );
          ( 2,
            map2
              (fun s off -> Insn.st ~src:(8 + s) ~base:Reg.sp ~off:(8 * off) ())
              (r 7) (r 3) );
          ( 1,
            map3
              (fun s b off -> Insn.st ~src:(8 + s) ~base:(8 + b) ~off:(8 * off) ())
              (r 7) (r 7) (r 3) );
          ( 1,
            map2
              (fun s off -> Insn.fst_ ~src:(8 + s) ~base:Reg.sp ~off:(8 * off) ())
              (r 3) (r 3) );
          (1, return (Insn.alui Opcode.Sub ~dst:Reg.sp ~s1:Reg.sp ~imm:16L));
          (1, map (fun s -> Insn.emit ~src:(8 + s)) (r 7));
          (1, map (fun d -> Insn.li ~dst:(8 + d) 7L) (r 7));
          (1, return (Insn.jsr 3));
        ])
  in
  let block_gen =
    QCheck.Gen.(
      map2
        (fun body term ->
          body
          @
          match term with
          | 0 -> []
          | 1 -> [ Insn.jmp 9 ]
          | _ ->
              [ Insn.br Opcode.Lt ~s1:8 ~s2:9 ~target:7 ~hint:false; Insn.jmp 9 ])
        (list_size (int_range 0 60) insn_gen)
        (int_range 0 2))
  in
  let cfg_gen =
    QCheck.Gen.(
      map3
        (fun width mem_channels load ->
          S.config ~width ~mem_channels ~lat:(Latency.v ~load ()) ())
        (int_range 1 8) (int_range 1 4) (int_range 1 6))
  in
  QCheck.Test.make ~count:500 ~name:"random blocks schedule as the reference"
    (QCheck.make QCheck.Gen.(pair block_gen cfg_gen))
    (fun (insns, cfg) -> same_order cfg (Array.of_list insns))

let suite =
  [
    ("RAW edge", `Quick, test_raw_edge);
    ("RAW latency from producer", `Quick, test_raw_latency_mul);
    ("WAR and WAW edges", `Quick, test_war_waw_edges);
    ("independent ops", `Quick, test_independent_no_edge);
    ("conservative memory", `Quick, test_memory_conservative);
    ("sp slot disambiguation", `Quick, test_memory_sp_disambiguation);
    ("byte/word overlap", `Quick, test_byte_overlap);
    ("sp redefinition", `Quick, test_sp_redefinition_blocks_disambiguation);
    ("call barrier", `Quick, test_call_barrier);
    ("emit ordering", `Quick, test_emit_ordering);
    ("terminators pinned", `Quick, test_terminator_pinned);
    ("heights", `Quick, test_heights);
    ("schedule respects deps", `Quick, test_schedule_respects_deps);
    ("schedule hides latency", `Quick, test_schedule_fills_latency);
    ("workload blocks schedule validly", `Quick, test_schedule_workload_blocks);
    QCheck_alcotest.to_alcotest qcheck_random_blocks;
    ("kernel blocks schedule as the reference", `Slow, test_reference_kernel_blocks);
    QCheck_alcotest.to_alcotest qcheck_reference_random_blocks;
  ]
