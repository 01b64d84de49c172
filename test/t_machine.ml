(* Tests for rc_machine: functional semantics, cycle-accurate timing
   (latencies, issue width, memory channels, branch penalties, connect
   latency), and the upward-compatibility behaviours of paper section 4
   (jsr/rts map reset, trap map bypass, context switching). *)

open Rc_isa
open Rc_core
module M = Rc_machine.Machine
module C = Rc_machine.Config

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(** Assemble one block of instructions as the whole program. *)
let image_of ?(globals = []) insns =
  let m = Mcode.create ~entry:"main" in
  List.iter (Mcode.add_global m) globals;
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks = [ { Mcode.label = 0; insns } ];
    };
  Image.assemble m

let run ?(cfg = C.v ()) ?globals insns = M.run cfg (image_of ?globals insns)

let cfg1 = C.v ~issue:1 ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 16) ()
let cfg4 = C.v ~issue:4 ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 16) ()

(* --- functional behaviour --------------------------------------------------- *)

let test_functional_alu () =
  let r =
    run ~cfg:cfg1
      [
        Insn.li ~dst:8 6L;
        Insn.li ~dst:9 7L;
        Insn.alu Opcode.Mul ~dst:10 ~s1:8 ~s2:9;
        Insn.emit ~src:10;
        Insn.alui Opcode.Sub ~dst:11 ~s1:10 ~imm:2L;
        Insn.emit ~src:11;
        Insn.halt ();
      ]
  in
  Alcotest.(check (list int64)) "alu output" [ 42L; 40L ] r.M.output

let test_functional_memory () =
  let g = Mcode.global ~name:"buf" ~bytes:32 ~init:(Mcode.Words [| 5L |]) () in
  let addr = Image.data_base in
  let r =
    run ~cfg:cfg1 ~globals:[ g ]
      [
        Insn.li ~dst:8 (Int64.of_int addr);
        Insn.ld ~dst:9 ~base:8 ~off:0 ();
        Insn.emit ~src:9;
        Insn.st ~src:9 ~base:8 ~off:8 ();
        Insn.ld ~dst:10 ~base:8 ~off:8 ();
        Insn.emit ~src:10;
        Insn.ld ~width:Opcode.W1 ~dst:11 ~base:8 ~off:0 ();
        Insn.emit ~src:11;
        Insn.halt ();
      ]
  in
  Alcotest.(check (list int64)) "memory" [ 5L; 5L; 5L ] r.M.output

let test_zero_register () =
  let r =
    run ~cfg:cfg1
      [
        Insn.li ~dst:Reg.zero 99L (* write discarded *);
        Insn.emit ~src:Reg.zero;
        Insn.halt ();
      ]
  in
  Alcotest.(check (list int64)) "zero stays zero" [ 0L ] r.M.output

(* --- timing ------------------------------------------------------------------ *)

let cycles ?(cfg = cfg1) insns = (run ~cfg insns).M.cycles

let test_single_issue_ipc () =
  (* independent single-cycle ops at 1-issue: one per cycle (+halt) *)
  let insns = List.init 10 (fun k -> Insn.li ~dst:(8 + k) 1L) @ [ Insn.halt () ] in
  check "10 lis + halt" 11 (cycles insns)

let test_wide_issue () =
  (* the same ops at 4-issue *)
  let insns = List.init 8 (fun k -> Insn.li ~dst:(8 + k) 1L) @ [ Insn.halt () ] in
  check "8 lis in 2 cycles + halt" 3 (cycles ~cfg:cfg4 insns)

let test_alu_latency_chain () =
  (* chain of n dependent adds: n cycles even at 4-issue *)
  let insns =
    Insn.li ~dst:8 0L
    :: List.init 6 (fun _ -> Insn.alui Opcode.Add ~dst:8 ~s1:8 ~imm:1L)
    @ [ Insn.halt () ]
  in
  (* li in c0; adds at c1..c6; halt in c6's group? halt depends on nothing
     but issues in order after the last add, same cycle *)
  check "dependent adds serialise" 7 (cycles ~cfg:cfg4 insns)

let test_mul_latency () =
  let insns =
    [
      Insn.li ~dst:8 3L;
      Insn.alu Opcode.Mul ~dst:9 ~s1:8 ~s2:8 (* issues c1, ready c4 *);
      Insn.alui Opcode.Add ~dst:10 ~s1:9 ~imm:1L (* issues c4 *);
      Insn.halt ();
    ]
  in
  check "mul consumer waits 3" 5 (cycles ~cfg:cfg4 insns)

let test_load_latency_config () =
  let prog off_lat =
    [
      Insn.li ~dst:8 (Int64.of_int Image.data_base);
      Insn.ld ~dst:9 ~base:8 ~off:0 ();
      Insn.alui Opcode.Add ~dst:10 ~s1:9 ~imm:1L;
      Insn.halt ();
    ]
    |> fun insns ->
    let cfg =
      C.v ~issue:1 ~lat:(Latency.v ~load:off_lat ())
        ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 16) ()
    in
    cycles ~cfg insns
  in
  check "2-cycle load" 5 (prog 2);
  check "4-cycle load" 7 (prog 4)

let test_memory_channels () =
  let loads n =
    Insn.li ~dst:8 (Int64.of_int Image.data_base)
    :: List.init n (fun k -> Insn.ld ~dst:(9 + k) ~base:8 ~off:(8 * k) ())
    @ [ Insn.halt () ]
  in
  let with_channels ch =
    let cfg =
      C.v ~issue:8 ~mem_channels:ch ~ifile:(Reg.core_only 32)
        ~ffile:(Reg.core_only 16) ()
    in
    cycles ~cfg (loads 8)
  in
  check_bool "4 channels faster than 2" true (with_channels 4 < with_channels 2);
  (* 8 independent loads, 2 channels: 4 cycles of loads *)
  check "2 channels" 5 (with_channels 2);
  check "4 channels" 3 (with_channels 4)

let test_waw_interlock () =
  (* CRAY-1 interlock: overwriting an in-flight destination stalls *)
  let insns =
    [
      Insn.li ~dst:8 3L;
      Insn.alu Opcode.Mul ~dst:9 ~s1:8 ~s2:8 (* r9 busy until c4 *);
      Insn.li ~dst:9 0L (* WAW: must wait *);
      Insn.halt ();
    ]
  in
  check "waw stall" 5 (cycles ~cfg:cfg4 insns)

let test_branch_prediction () =
  (* a correctly predicted taken branch costs no extra penalty cycles *)
  let body hint =
    [
      Insn.li ~dst:8 0L;
      Insn.li ~dst:9 1L;
      Insn.br Opcode.Lt ~s1:8 ~s2:9 ~target:1 ~hint (* -> label 1 *);
    ]
  in
  let make hint =
    let m = Mcode.create ~entry:"main" in
    Mcode.add_func m
      {
        Mcode.name = "main";
        entry_label = 0;
        blocks =
          [
            { Mcode.label = 0; insns = body hint };
            { Mcode.label = 1; insns = [ Insn.halt () ] };
          ];
      };
    M.run cfg1 (Image.assemble m)
  in
  let good = make true and bad = make false in
  check "no mispredicts when hinted" 0 good.M.mispredicts;
  check "mispredict counted" 1 bad.M.mispredicts;
  check "penalty paid" (good.M.cycles + C.mispredict_penalty cfg1) bad.M.cycles

let test_extra_stage_penalty () =
  let cfg_fast = C.v ~issue:1 ~ifile:(Reg.core_only 32) () in
  let cfg_deep = C.v ~issue:1 ~extra_stage:true ~ifile:(Reg.core_only 32) () in
  check "penalty 1" 1 (C.mispredict_penalty cfg_fast);
  check "penalty 2 with extra stage" 2 (C.mispredict_penalty cfg_deep)

(* --- connects ------------------------------------------------------------------ *)

let rc_file = Reg.file ~core:8 ~total:32
let rc_file16 = Reg.file ~core:16 ~total:32

let rc_cfg ?(connect = 0) () =
  C.v ~issue:4 ~lat:(Latency.v ~connect ()) ~ifile:rc_file
    ~ffile:(Reg.core_only 8) ()

let rc_cfg16 ?(connect = 0) () =
  C.v ~issue:4 ~lat:(Latency.v ~connect ()) ~ifile:rc_file16
    ~ffile:(Reg.core_only 8) ()

let connect_prog =
  [
    Insn.li ~dst:7 5L (* rv holds 5 *);
    (* send it to extended register 20 via a def connect *)
    Insn.connect_def ~cls:Reg.Int ~ri:7 ~rp:20 ();
    Insn.alui Opcode.Add ~dst:7 ~s1:7 ~imm:1L (* writes Rp20 := 6 *);
    (* model 3: read map of r7 now points at Rp20 *)
    Insn.emit ~src:7;
    (* r7's write map snapped home, so this writes the core register *)
    Insn.li ~dst:7 100L;
    Insn.emit ~src:7 (* model 3: reads Rp7 = 100 *);
    Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
    Insn.emit ~src:7 (* back to Rp20 = 6 *);
    Insn.halt ();
  ]

let test_connect_functional_model3 () =
  let r = M.run (rc_cfg ()) (image_of connect_prog) in
  Alcotest.(check (list int64)) "model 3 semantics" [ 6L; 100L; 6L ] r.M.output;
  check "dynamic connects" 2 r.M.connects

let test_connect_zero_vs_one_cycle () =
  (* connect in the same cycle as its consumer: free at 0 cycles
     (dispatch forwarding), a stall at 1 cycle *)
  let insns =
    [
      Insn.li ~dst:8 1L;
      Insn.li ~dst:9 2L;
      (* filler so the consumer's operands are ready in the connect's
         cycle *)
      Insn.alu Opcode.Add ~dst:12 ~s1:8 ~s2:8;
      Insn.connect_use ~cls:Reg.Int ~ri:10 ~rp:9 ();
      Insn.alu Opcode.Add ~dst:11 ~s1:10 ~s2:8 (* reads via idx 10 *);
      Insn.emit ~src:11;
      Insn.halt ();
    ]
  in
  let c0 = (M.run (rc_cfg16 ~connect:0 ()) (image_of insns)).M.cycles in
  let c1 = (M.run (rc_cfg16 ~connect:1 ()) (image_of insns)).M.cycles in
  check_bool "1-cycle connect costs a stall" true (c1 > c0);
  let r = M.run (rc_cfg16 ~connect:1 ()) (image_of insns) in
  Alcotest.(check (list int64)) "same result" [ 3L ] r.M.output;
  check_bool "map stall recorded" true (r.M.map_stalls > 0)

let test_connect_dispatch_budget () =
  (* connects dispatch through their own budget of [issue] per cycle,
     beside the issue slots (section 2.4) *)
  let li k = Insn.li ~dst:(8 + k) (Int64.of_int k) in
  let con k = Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:(20 + k) () in
  let run insns = M.run (rc_cfg16 ()) (image_of (insns @ [ Insn.halt () ])) in
  (* four connects interleaved with four real instructions cost no
     cycle: they take no issue slot *)
  let plain = run (List.init 4 li) in
  let mixed = run (List.concat (List.init 4 (fun k -> [ li k; con k ]))) in
  check "connects take no issue slot" plain.M.cycles mixed.M.cycles;
  check "every instruction issued" (plain.M.issued + 4) mixed.M.issued;
  (* a fifth connect in a 4-issue cycle waits for the next cycle, and
     the wait is charged to the mapping table *)
  let four = run (List.init 4 con) and five = run (List.init 5 con) in
  check "a fifth connect waits a cycle" (four.M.cycles + 1) five.M.cycles;
  check "four connects fit one cycle" 0 four.M.map_stalls;
  check "the fifth stalls on the map" 1 five.M.map_stalls;
  List.iter
    (fun (r : M.result) ->
      check "extra_connects = connects" r.M.connects r.M.extra_connects)
    [ mixed; four; five ]

(* --- jsr / rts map reset (section 4.1) -------------------------------------------- *)

let test_jsr_resets_map () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              [
                Insn.li ~dst:7 1L;
                (* connect r7 reads to extended 20 holding 77 *)
                Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
                Insn.li ~dst:5 77L (* Rp20 := 77 *);
                Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
                Insn.emit ~src:7 (* 77 via the map *);
                Insn.jsr 1 (* hardware resets the map *);
                Insn.emit ~src:7 (* now the core register: 1 *);
                Insn.halt ();
              ];
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "callee";
      entry_label = 1;
      blocks =
        [
          {
            Mcode.label = 1;
            insns =
              [
                (* callee reads r7: must see the CORE register (jsr
                   reset), not extended 20 *)
                Insn.emit ~src:7;
                Insn.rts ();
              ];
          };
        ];
    };
  let r = M.run (rc_cfg ()) (Image.assemble m) in
  Alcotest.(check (list int64)) "jsr/rts reset" [ 77L; 1L; 1L ] r.M.output

(* Nested jsr/rts with live connects on both sides of every call
   boundary, checked against the sequential oracle executor (Iexec).
   Every call edge must reset both maps to home (paper section 4.1):
   connects made by the caller are invisible to the callee and vice
   versa, and the machine and the oracle must agree on all of it. *)
let test_jsr_rts_call_heavy () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              [
                Insn.connect_def ~cls:Reg.Int ~ri:4 ~rp:20 ();
                Insn.li ~dst:4 111L (* Rp20 := 111; model 3 redirects reads *);
                Insn.emit ~src:4 (* 111 via the read map *);
                Insn.jsr 1;
                Insn.emit ~src:4 (* rts reset home: core r4 = 222 *);
                Insn.halt ();
              ];
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "middle";
      entry_label = 1;
      blocks =
        [
          {
            Mcode.label = 1;
            insns =
              [
                Insn.emit ~src:4 (* jsr reset: core r4 = 0, not 111 *);
                Insn.li ~dst:4 222L (* maps home: core r4 := 222 *);
                Insn.connect_use ~cls:Reg.Int ~ri:4 ~rp:21 ();
                Insn.emit ~src:4 (* extended Rp21 = 0 *);
                Insn.move ~dst:5 ~src:Reg.ra () (* save ra across call *);
                Insn.jsr 2;
                Insn.move ~dst:Reg.ra ~src:5 ();
                Insn.emit ~src:4 (* rts reset home again: 222 *);
                Insn.rts ();
              ];
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "leaf";
      entry_label = 2;
      blocks =
        [
          {
            Mcode.label = 2;
            insns =
              [
                Insn.emit ~src:4 (* caller's connect invisible: 222 *);
                Insn.connect_use ~cls:Reg.Int ~ri:4 ~rp:22 ();
                Insn.emit ~src:4 (* extended Rp22 = 0 *);
                Insn.rts ();
              ];
          };
        ];
    };
  let image = Image.assemble m in
  let expected = [ 111L; 0L; 0L; 222L; 0L; 222L; 222L ] in
  let r = M.run (rc_cfg ~connect:1 ()) image in
  Alcotest.(check (list int64)) "machine output" expected r.M.output;
  let o =
    Rc_interp.Iexec.create ~ifile:rc_file ~ffile:(Reg.core_only 8) image
  in
  Rc_interp.Iexec.run o;
  Alcotest.(check (list int64))
    "oracle output" expected
    (Rc_interp.Iexec.output o);
  (* the final rts left both of the oracle's tables fully home *)
  check_bool "int map home" true (Map_table.is_home o.Rc_interp.Iexec.imap);
  check_bool "float map home" true (Map_table.is_home o.Rc_interp.Iexec.fmap)

(* --- traps and interrupts (section 4.3) --------------------------------------------- *)

let trap_image () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              [
                Insn.li ~dst:7 11L (* core r7 = 11 *);
                Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
                Insn.li ~dst:5 99L (* extended Rp20 = 99 *);
                Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
                Insn.emit ~src:7 (* 99 through the map *);
                Insn.trap () (* enter handler, map disabled *);
                Insn.emit ~src:7 (* map restored by rfe: 99 again *);
                Insn.halt ();
              ];
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "handler";
      entry_label = 1;
      blocks =
        [
          {
            Mcode.label = 1;
            insns =
              [
                (* map-enable cleared: r7 reads the CORE register *)
                Insn.emit ~src:7;
                Insn.rfe ();
              ];
          };
        ];
    };
  Image.assemble m

let test_trap_bypasses_map () =
  let cfg =
    C.v ~issue:1 ~ifile:rc_file ~ffile:(Reg.core_only 8)
      ~trap_handler:"handler" ()
  in
  let r = M.run cfg (trap_image ()) in
  Alcotest.(check (list int64)) "trap map bypass" [ 99L; 11L; 99L ] r.M.output

let test_interrupt_injection () =
  let cfg =
    C.v ~issue:1 ~ifile:rc_file16 ~ffile:(Reg.core_only 8)
      ~trap_handler:"handler" ()
  in
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              (List.init 20 (fun k -> Insn.li ~dst:8 (Int64.of_int k))
              @ [ Insn.li ~dst:7 5L; Insn.emit ~src:7; Insn.halt () ]);
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "handler";
      entry_label = 1;
      blocks = [ { Mcode.label = 1; insns = [ Insn.emit ~src:Reg.zero; Insn.rfe () ] } ];
    };
  let t = M.create cfg (Image.assemble m) in
  M.run_cycle t;
  M.run_cycle t;
  M.inject_interrupt t;
  let r = M.run_machine t in
  (* the handler ran exactly once (emitted 0), main still completed *)
  Alcotest.(check (list int64)) "interrupted run" [ 0L; 5L ] r.M.output

let test_extended_handler_protocol () =
  (* Section 4.3, second half: a handler that needs more than the core
     registers re-enables the map, but must save, reuse and restore the
     map entries it touches so the interrupted program's connections
     survive. *)
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              [
                Insn.li ~dst:7 11L;
                Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
                Insn.li ~dst:5 99L (* extended Rp20 = 99 *);
                Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
                Insn.emit ~src:7 (* 99 *);
                Insn.trap ();
                Insn.emit ~src:7 (* still 99: the handler restored r7's map *);
                Insn.halt ();
              ];
          };
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "handler";
      entry_label = 1;
      blocks =
        [
          {
            Mcode.label = 1;
            insns =
              [
                (* save the map entry we are about to reuse (works with
                   the map disabled) *)
                Insn.mfmap Opcode.Read ~dst:2 ~idx:7;
                (* the handler needs extended registers: re-enable *)
                Insn.mapen true;
                Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:21 ();
                Insn.emit ~src:7 (* the handler's own extended value: 0 *);
                (* restore the saved entry before returning *)
                Insn.mtmap Opcode.Read ~src:2 ~idx:7;
                Insn.rfe ();
              ];
          };
        ];
    };
  let cfg =
    C.v ~issue:1 ~ifile:rc_file ~ffile:(Reg.core_only 8)
      ~trap_handler:"handler" ()
  in
  let r = M.run cfg (Image.assemble m) in
  Alcotest.(check (list int64)) "extended handler protocol" [ 99L; 0L; 99L ]
    r.M.output

let test_mfmap_mtmap_roundtrip () =
  let insns =
    [
      Insn.connect_use ~cls:Reg.Int ~ri:4 ~rp:25 ();
      Insn.mfmap Opcode.Read ~dst:7 ~idx:4;
      Insn.emit ~src:7 (* 25 *);
      Insn.mfmap Opcode.Write ~dst:7 ~idx:4;
      Insn.emit ~src:7 (* 4: write map still home *);
      Insn.li ~dst:7 30L;
      Insn.mtmap Opcode.Write ~src:7 ~idx:4;
      Insn.mfmap Opcode.Write ~dst:7 ~idx:4;
      Insn.emit ~src:7 (* 30 *);
      Insn.halt ();
    ]
  in
  let r = M.run (rc_cfg ()) (image_of insns) in
  Alcotest.(check (list int64)) "map roundtrip" [ 25L; 4L; 30L ] r.M.output

let test_mapen_instruction () =
  let insns =
    [
      Insn.li ~dst:7 1L;
      Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
      Insn.mapen false (* bypass the table *);
      Insn.emit ~src:7 (* core register *);
      Insn.mapen true;
      Insn.emit ~src:7 (* extended again (0) *);
      Insn.halt ();
    ]
  in
  let r = M.run (rc_cfg ()) (image_of insns) in
  Alcotest.(check (list int64)) "mapen" [ 1L; 0L ] r.M.output

(* --- context switching (section 4.2) -------------------------------------------------- *)

let test_context_switch_roundtrip () =
  let cfg = rc_cfg () in
  let insns =
    [
      Insn.li ~dst:7 123L;
      Insn.connect_use ~cls:Reg.Int ~ri:5 ~rp:25 ();
      Insn.halt ();
    ]
  in
  let t = M.create cfg (image_of insns) in
  ignore (M.run_machine t);
  let view = M.context_view t in
  let saved = Context.save view in
  (* another process tramples the state *)
  Bytes.fill view.Context.iregs 0 (8 * 32) '\000';
  Map_table.reset view.Context.imap;
  Context.restore view saved;
  Alcotest.(check int64) "register restored" 123L
    (Opcode.get_reg view.Context.iregs 7);
  check "connection restored" 25 (Map_table.read view.Context.imap 5);
  (* The view is the machine's own state, not a copy: the process
     resumed on a second machine emits the restored r7 ... *)
  let t2 = M.create cfg (image_of [ Insn.emit ~src:7; Insn.halt () ]) in
  Context.restore (M.context_view t2) saved;
  Alcotest.(check (list int64))
    "resumed machine sees r7" [ 123L ] (M.run_machine t2).M.output;
  (* ... and a reset there, as jsr/rts do, brings the restored
     connection home *)
  check "connection restored on the machine" 25 (Map_table.read t2.M.imap 5);
  Map_table.reset t2.M.imap;
  check_bool "reset after restore is home" true (Map_table.is_home t2.M.imap)

(* --- slot accounting (stall attribution) ------------------------------------------------ *)

(* Every unused issue slot must be charged to exactly one loss reason:
   cycles * issue = (issued - extra_connects) + lost slots.  Checked over
   a matrix of micro-programs crossing issue width, connect latency and
   RC on/off. *)

let micro_programs =
  [
    ( "alu chain",
      Insn.li ~dst:8 0L
      :: List.init 6 (fun _ -> Insn.alui Opcode.Add ~dst:8 ~s1:8 ~imm:1L)
      @ [ Insn.halt () ] );
    ( "independent lis",
      (* destinations within the 16-register RC core file *)
      List.init 8 (fun k -> Insn.li ~dst:(8 + k) 1L) @ [ Insn.halt () ] );
    ( "loads",
      Insn.li ~dst:8 (Int64.of_int Image.data_base)
      :: List.init 6 (fun k -> Insn.ld ~dst:(9 + k) ~base:8 ~off:(8 * k) ())
      @ [ Insn.halt () ] );
    ( "mul consumers",
      [
        Insn.li ~dst:8 3L;
        Insn.alu Opcode.Mul ~dst:9 ~s1:8 ~s2:8;
        Insn.alui Opcode.Add ~dst:10 ~s1:9 ~imm:1L;
        Insn.alu Opcode.Mul ~dst:11 ~s1:10 ~s2:9;
        Insn.emit ~src:11;
        Insn.halt ();
      ] );
    ("connects", connect_prog);
  ]

(* A mispredicted branch exercises the Redirect attribution. *)
let mispredict_image () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          {
            Mcode.label = 0;
            insns =
              [
                Insn.li ~dst:8 0L;
                Insn.li ~dst:9 1L;
                Insn.br Opcode.Lt ~s1:8 ~s2:9 ~target:1 ~hint:false;
              ];
          };
          { Mcode.label = 1; insns = [ Insn.emit ~src:9; Insn.halt () ] };
        ];
    };
  Image.assemble m

let check_invariant name ~issue (r : M.result) =
  check_bool
    (Fmt.str "%s: %d*%d = (%d - %d) + %d" name r.M.cycles issue r.M.issued
       r.M.extra_connects (M.lost_slots r))
    true
    (M.slot_invariant_holds ~issue r)

let test_slot_invariant_matrix () =
  List.iter
    (fun issue ->
      List.iter
        (fun connect ->
          List.iter
            (fun rc ->
              let ifile =
                if rc then Reg.file ~core:16 ~total:32 else Reg.core_only 32
              in
              let cfg =
                C.v ~issue ~lat:(Latency.v ~connect ()) ~ifile
                  ~ffile:(Reg.core_only 8) ()
              in
              List.iter
                (fun (name, insns) ->
                  (* connect micro-programs need the map table *)
                  if rc || name <> "connects" then
                    let r = M.run cfg (image_of insns) in
                    check_invariant
                      (Fmt.str "%s i=%d c=%d rc=%b" name issue connect rc)
                      ~issue r)
                micro_programs;
              let r = M.run cfg (mispredict_image ()) in
              check_invariant
                (Fmt.str "mispredict i=%d c=%d rc=%b" issue connect rc)
                ~issue r;
              check_bool "redirect slots lost" true (r.M.lost_branch > 0))
            [ false; true ])
        [ 0; 1 ])
    [ 1; 2; 4; 8 ]

let test_slot_invariant_shared_dispatch () =
  (* every connect dispatches beside the issue slots, so the invariant
     excludes all of them, under 0- and 1-cycle connects alike *)
  List.iter
    (fun connect ->
      let r = M.run (rc_cfg16 ~connect ()) (image_of connect_prog) in
      check
        (Fmt.str "%d-cycle connects: extra_connects = connects" connect)
        r.M.connects r.M.extra_connects;
      check_invariant (Fmt.str "%d-cycle connects" connect) ~issue:4 r)
    [ 0; 1 ]

let test_observer_samples () =
  (* the per-cycle observer stream must tile the run: samples'
     s_cycles/s_issued/s_connects and all five losses sum to the final
     counters, and each sample satisfies the per-cycle invariant — over
     programs that between them lose slots to every cause *)
  let loads = List.assoc "loads" micro_programs in
  let runs =
    [
      ("connects", rc_cfg16 ~connect:1 (), image_of connect_prog);
      ( "loads, 1 channel",
        C.v ~issue:4 ~mem_channels:1 ~ifile:(Reg.core_only 32)
          ~ffile:(Reg.core_only 8) (),
        image_of loads );
      ("mispredict", cfg4, mispredict_image ());
    ]
  in
  let totals = Array.make 5 0 in
  List.iter
    (fun (name, cfg, image) ->
      let t = M.create cfg image in
      let samples = ref [] in
      M.set_observer t (Some (fun s -> samples := s :: !samples));
      let r = M.run_machine t in
      let samples = List.rev !samples in
      let sum f = List.fold_left (fun a s -> a + f s) 0 samples in
      let covered what total f = check (name ^ ": " ^ what) total (sum f) in
      covered "cycles" r.M.cycles (fun s -> s.M.s_cycles);
      covered "issued" r.M.issued (fun s -> s.M.s_issued);
      covered "connects" r.M.connects (fun s -> s.M.s_connects);
      covered "data losses" r.M.lost_data (fun s -> s.M.s_lost_data);
      covered "map losses" r.M.lost_map (fun s -> s.M.s_lost_map);
      covered "channel losses" r.M.lost_channel (fun s -> s.M.s_lost_channel);
      covered "branch losses" r.M.lost_branch (fun s -> s.M.s_lost_branch);
      covered "fetch losses" r.M.lost_fetch (fun s -> s.M.s_lost_fetch);
      List.iteri
        (fun i v -> totals.(i) <- totals.(i) + v)
        [ r.M.lost_data; r.M.lost_map; r.M.lost_channel; r.M.lost_branch;
          r.M.lost_fetch ];
      List.iter
        (fun s ->
          let lost =
            s.M.s_lost_data + s.M.s_lost_map + s.M.s_lost_channel
            + s.M.s_lost_branch + s.M.s_lost_fetch
          in
          (* connects may dispatch through the extra budget, beyond the
             regular slots *)
          check_bool
            (Fmt.str "%s: cycle %d sample balances" name s.M.s_cycle)
            true
            ((s.M.s_cycles * cfg.C.issue) + s.M.s_connects
            >= s.M.s_issued + lost))
        samples)
    runs;
  List.iteri
    (fun i cause ->
      check_bool (cause ^ " losses exercised") true (totals.(i) > 0))
    [ "data"; "map"; "channel"; "branch"; "fetch" ]

let test_observer_absent_same_result () =
  (* telemetry must not perturb the simulation *)
  let run_with obs =
    let t = M.create (rc_cfg16 ~connect:1 ()) (image_of connect_prog) in
    M.set_observer t obs;
    M.run_machine t
  in
  let a = run_with None and b = run_with (Some (fun _ -> ())) in
  check "same cycles" a.M.cycles b.M.cycles;
  check "same issued" a.M.issued b.M.issued;
  Alcotest.(check (list int64)) "same output" a.M.output b.M.output

(* qcheck: the invariant holds for random independent-op programs at
   random widths *)
let prop_slot_invariant =
  QCheck.Test.make ~count:200 ~name:"slot accounting balances"
    QCheck.(pair (int_range 0 30) (int_range 1 8))
    (fun (n, w) ->
      let insns =
        List.init n (fun k -> Insn.li ~dst:(8 + (k mod 20)) (Int64.of_int k))
        @ [ Insn.halt () ]
      in
      let cfg =
        C.v ~issue:w ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 8) ()
      in
      let r = M.run cfg (image_of insns) in
      M.slot_invariant_holds ~issue:w r)

(* --- error handling --------------------------------------------------------------------- *)

let test_fuel_exhaustion () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks = [ { Mcode.label = 0; insns = [ Insn.jmp 0 ] } ];
    };
  let cfg = C.v ~issue:1 ~ifile:(Reg.core_only 32) ~fuel:100 () in
  check_bool "infinite loop detected" true
    (try
       ignore (M.run cfg (Image.assemble m));
       false
     with M.Simulation_error _ -> true)

let test_config_rejects_nonpositive () =
  (* below 1, channels would hang the scheduler and fuel would let the
     engines disagree on a halt-only program *)
  List.iter
    (fun (what, mk) ->
      check_bool what true
        (match mk () with
        | (_ : C.t) -> false
        | exception Invalid_argument _ -> true))
    [
      ("issue 0", fun () -> C.v ~issue:0 ());
      ("mem_channels 0", fun () -> C.v ~mem_channels:0 ());
      ("mem_channels -1", fun () -> C.v ~mem_channels:(-1) ());
      ("fuel 0", fun () -> C.v ~fuel:0 ());
      ("fuel -5", fun () -> C.v ~fuel:(-5) ());
    ]

let test_options_reject_core_counts () =
  (* an integer core below the reserved registers cannot be lowered to
     architectural form, and the allocation time and memory grow with the
     file: the pipeline accepts 8..2048 integer and 4..2048 FP registers *)
  List.iter
    (fun (what, mk) ->
      check_bool what true
        (match mk () with
        | (_ : Rc_harness.Pipeline.options) -> false
        | exception Invalid_argument _ -> true))
    [
      ("core_int 5", fun () -> Rc_harness.Pipeline.options ~core_int:5 ());
      ("core_int 2049", fun () -> Rc_harness.Pipeline.options ~core_int:2049 ());
      ("core_float 3", fun () -> Rc_harness.Pipeline.options ~core_float:3 ());
      ( "core_float 1000000",
        fun () -> Rc_harness.Pipeline.options ~core_float:1_000_000 () );
    ];
  let o = Rc_harness.Pipeline.options ~core_int:8 ~core_float:4 () in
  check "smallest integer core" 8 o.Rc_harness.Pipeline.core_int;
  let o = Rc_harness.Pipeline.options ~core_int:2048 ~core_float:2048 () in
  check "largest FP core" 2048 o.Rc_harness.Pipeline.core_float

(* The issue loop keeps every value unboxed from register read to
   register write, so a run's minor allocation is its fixed set-up
   (predecode, output list), well under half a word per instruction.  A
   value boxed on the hot path costs at least two words per instruction
   that executes it. *)
let test_execute_allocation () =
  List.iter
    (fun name ->
      let b = Rc_workloads.Registry.find name in
      let opts = Rc_harness.Pipeline.options ~rc:true ~core_int:16 ~core_float:16 () in
      let c = Rc_harness.Pipeline.compile opts (b.Rc_workloads.Wutil.build 1) in
      let cfg = Rc_harness.Pipeline.machine_config opts in
      let w0 = Gc.minor_words () in
      let r = M.run cfg c.Rc_harness.Pipeline.image in
      let words = Gc.minor_words () -. w0 in
      let per_insn = words /. float_of_int r.M.issued in
      if per_insn >= 0.5 then
        Alcotest.failf "%s: %.2f minor words per issued instruction" name
          per_insn)
    [ "espresso"; "tomcatv" ]

(* Under 1-cycle connects the timing core keeps this cycle's map-table
   touches as packed ints in a reused buffer, so execution with RC
   allocates no more than without: a list cell per connect entry would
   cost several words per connect issued. *)
let test_execute_allocation_connect1 () =
  List.iter
    (fun name ->
      let b = Rc_workloads.Registry.find name in
      let opts =
        Rc_harness.Pipeline.options ~rc:true ~core_int:16 ~core_float:16
          ~lat:(Latency.v ~connect:1 ()) ()
      in
      let c = Rc_harness.Pipeline.compile opts (b.Rc_workloads.Wutil.build 1) in
      let cfg = Rc_harness.Pipeline.machine_config opts in
      let w0 = Gc.minor_words () in
      let r = M.run cfg c.Rc_harness.Pipeline.image in
      let words = Gc.minor_words () -. w0 in
      let per_insn = words /. float_of_int r.M.issued in
      if r.M.connects = 0 then Alcotest.failf "%s: no connects issued" name;
      if per_insn >= 0.5 then
        Alcotest.failf "%s: %.2f minor words per issued instruction" name
          per_insn)
    [ "cccp"; "compress"; "yacc"; "espresso" ]

let test_bad_memory_access () =
  let insns =
    [ Insn.li ~dst:8 (-64L); Insn.ld ~dst:9 ~base:8 ~off:0 (); Insn.halt () ]
  in
  check_bool "bad address" true
    (try
       ignore (run ~cfg:cfg1 insns);
       false
     with M.Simulation_error _ -> true)

(* qcheck: n independent single-cycle ops at width w issue in
   ceil(n/w) cycles (+1 for halt when it does not fit the last group) *)
let prop_issue_width =
  QCheck.Test.make ~count:200 ~name:"independent ops fill the issue width"
    QCheck.(pair (int_range 0 40) (int_range 1 8))
    (fun (n, w) ->
      let insns =
        List.init n (fun k -> Insn.li ~dst:(8 + (k mod 20)) (Int64.of_int k))
        @ [ Insn.halt () ]
      in
      (* avoid WAW reuse stalls: distinct destinations per group *)
      QCheck.assume (n <= 20);
      let cfg = C.v ~issue:w ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 8) () in
      let r = M.run cfg (image_of insns) in
      let groups = (n + w - 1) / w in
      let expected = if n mod w = 0 then groups + 1 else groups in
      r.M.cycles = max 1 expected)

(* qcheck: a dependent chain of k adds takes k cycles after the seed *)
let prop_chain_latency =
  QCheck.Test.make ~count:100 ~name:"dependent chain takes chain-length cycles"
    QCheck.(int_range 1 30)
    (fun k ->
      let insns =
        Insn.li ~dst:8 0L
        :: List.init k (fun _ -> Insn.alui Opcode.Add ~dst:8 ~s1:8 ~imm:1L)
        @ [ Insn.emit ~src:8; Insn.halt () ]
      in
      let r = M.run cfg4 (image_of insns) in
      r.M.cycles = k + 2 && r.M.output = [ Int64.of_int k ])

let suite =
  [
    ("functional alu", `Quick, test_functional_alu);
    ("functional memory", `Quick, test_functional_memory);
    ("zero register", `Quick, test_zero_register);
    ("single-issue ipc", `Quick, test_single_issue_ipc);
    ("wide issue", `Quick, test_wide_issue);
    ("alu latency chain", `Quick, test_alu_latency_chain);
    ("mul latency", `Quick, test_mul_latency);
    ("load latency 2 vs 4", `Quick, test_load_latency_config);
    ("memory channels", `Quick, test_memory_channels);
    ("WAW interlock", `Quick, test_waw_interlock);
    ("branch prediction and penalty", `Quick, test_branch_prediction);
    ("extra pipeline stage penalty", `Quick, test_extra_stage_penalty);
    ("connect semantics (model 3)", `Quick, test_connect_functional_model3);
    ("connect 0 vs 1 cycle", `Quick, test_connect_zero_vs_one_cycle);
    ("connect dispatch budget", `Quick, test_connect_dispatch_budget);
    ("jsr/rts reset the map", `Quick, test_jsr_resets_map);
    ("call-heavy jsr/rts vs oracle", `Quick, test_jsr_rts_call_heavy);
    ("trap bypasses the map", `Quick, test_trap_bypasses_map);
    ("interrupt injection", `Quick, test_interrupt_injection);
    ("mapen instruction", `Quick, test_mapen_instruction);
    ("extended handler protocol (sec 4.3)", `Quick, test_extended_handler_protocol);
    ("mfmap/mtmap roundtrip", `Quick, test_mfmap_mtmap_roundtrip);
    ("context switch roundtrip", `Quick, test_context_switch_roundtrip);
    ("slot invariant matrix", `Quick, test_slot_invariant_matrix);
    ("slot invariant, shared dispatch", `Quick, test_slot_invariant_shared_dispatch);
    ("observer samples tile the run", `Quick, test_observer_samples);
    ("observer does not perturb", `Quick, test_observer_absent_same_result);
    ("fuel exhaustion", `Quick, test_fuel_exhaustion);
    ("config rejects non-positive knobs", `Quick, test_config_rejects_nonpositive);
    ("bad memory access", `Quick, test_bad_memory_access);
    QCheck_alcotest.to_alcotest prop_issue_width;
    QCheck_alcotest.to_alcotest prop_chain_latency;
    QCheck_alcotest.to_alcotest prop_slot_invariant;
    ("pipeline options reject core register counts", `Quick, test_options_reject_core_counts);
    ("execution allocates almost nothing", `Quick, test_execute_allocation);
    ("execution under 1-cycle connects allocates almost nothing", `Quick, test_execute_allocation_connect1);
  ]
