(* Upward compatibility walk-through — paper section 4.

   An operating-system bring-up scenario on an RC machine:

   1. subroutine calls: jsr/rts reset the mapping table, so a callee
      written for the *original* architecture saves and restores the
      true core registers (the section 4.1 corruption scenario cannot
      happen);
   2. traps: the PSW map-enable flag makes handlers address core
      registers directly, paying zero connect overhead (section 4.3);
   3. context switches: processes compiled for the original architecture
      save a small context, processes using RC save core + extended +
      connection information (section 4.2);
   4. handlers that need more than the core registers: re-enable the map
      with the PSW, but save and restore the map entries they use
      (section 4.3, second half) via the privileged mfmap/mtmap pair.

     dune exec examples/upward_compat.exe
*)

open Rc_isa
open Rc_core
module M = Rc_machine.Machine

let file = Reg.file ~core:8 ~total:32

let block label insns = { Mcode.label; insns }

(* --- 1. jsr/rts reset --------------------------------------------------------- *)

let call_demo () =
  Fmt.pr "== 1. jsr/rts reset the register map (section 4.1) ==@.";
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          block 0
            [
              Insn.li ~dst:7 1L (* core r7 = 1 *);
              (* stash 77 in extended register 20 and connect r7's reads
                 to it *)
              Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
              Insn.li ~dst:5 77L;
              Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
              Insn.emit ~src:7 (* 77: r7 reads the extended register *);
              Insn.jsr 1 (* hardware resets the map here *);
              Insn.emit ~src:7 (* 1: reset survives the return too *);
              Insn.halt ();
            ];
        ];
    };
  (* the callee is "legacy code": it knows nothing about connects *)
  Mcode.add_func m
    {
      Mcode.name = "legacy_callee";
      entry_label = 1;
      blocks = [ block 1 [ Insn.emit ~src:7; Insn.rts () ] ];
    };
  let cfg = Rc_machine.Config.v ~issue:1 ~ifile:file ~ffile:(Reg.core_only 8) () in
  let r = M.run cfg (Image.assemble m) in
  Fmt.pr "caller sees (through the map): %Ld@." (List.nth r.M.output 0);
  Fmt.pr "legacy callee sees (after jsr reset): %Ld@." (List.nth r.M.output 1);
  Fmt.pr "caller after return (after rts reset): %Ld@.@." (List.nth r.M.output 2)

(* --- 2. traps bypass the map ---------------------------------------------------- *)

let trap_demo () =
  Fmt.pr "== 2. traps bypass the register map (section 4.3) ==@.";
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          block 0
            [
              Insn.li ~dst:7 11L;
              Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
              Insn.li ~dst:5 99L;
              Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
              Insn.emit ~src:7 (* program: 99 through the map *);
              Insn.trap () (* device interrupt arrives *);
              Insn.emit ~src:7 (* back in the program: map restored *);
              Insn.halt ();
            ];
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "driver";
      entry_label = 1;
      blocks =
        [
          block 1
            [
              (* a time-critical driver: touches r7 with the map
                 disabled, no connect bookkeeping needed *)
              Insn.emit ~src:7;
              Insn.rfe ();
            ];
        ];
    };
  let cfg =
    Rc_machine.Config.v ~issue:1 ~ifile:file ~ffile:(Reg.core_only 8)
      ~trap_handler:"driver" ()
  in
  let r = M.run cfg (Image.assemble m) in
  Fmt.pr "program before the trap:   %Ld (extended, via the map)@."
    (List.nth r.M.output 0);
  Fmt.pr "driver inside the trap:    %Ld (core register, map disabled)@."
    (List.nth r.M.output 1);
  Fmt.pr "program after rfe:         %Ld (map automatically re-enabled)@.@."
    (List.nth r.M.output 2)

(* --- 3. dual context-switch formats ----------------------------------------------- *)

let context_demo () =
  Fmt.pr "== 3. dual process-context formats (section 4.2) ==@.";
  let make_machine ~extended_arch =
    let m = Mcode.create ~entry:"main" in
    Mcode.add_func m
      {
        Mcode.name = "main";
        entry_label = 0;
        blocks =
          [
            block 0
              [
                Insn.li ~dst:7 123L;
                Insn.connect_use ~cls:Reg.Int ~ri:4 ~rp:25 ();
                Insn.halt ();
              ];
          ];
      };
    let cfg = Rc_machine.Config.v ~issue:1 ~ifile:file ~ffile:(Reg.core_only 8) () in
    let t = M.create cfg (Image.assemble m) in
    ignore (M.run_machine t);
    let view = M.context_view t in
    view.Context.psw.Psw.extended_arch <- extended_arch;
    view
  in
  let legacy = make_machine ~extended_arch:false in
  let extended = make_machine ~extended_arch:true in
  let c_legacy = Context.save legacy in
  let c_extended = Context.save extended in
  Fmt.pr "legacy process context:   %d words (core registers + PSW)@."
    (Context.words c_legacy);
  Fmt.pr "extended process context: %d words (+ extended registers + maps)@."
    (Context.words c_extended);
  (* round-trip the extended one through a context switch *)
  Bytes.fill extended.Context.iregs 0 (8 * 32) '\000';
  Map_table.reset extended.Context.imap;
  Context.restore extended c_extended;
  Fmt.pr "after restore: r7=%Ld, map entry 4 reads Rp%d — connection state survives@."
    (Opcode.get_reg extended.Context.iregs 7)
    (Map_table.read extended.Context.imap 4)

(* --- 4. handlers that need extended registers ------------------------------------ *)

let extended_handler_demo () =
  Fmt.pr "@.== 4. a handler that re-enables the map (section 4.3) ==@.";
  let m = Mcode.create ~entry:"main" in
  Mcode.add_func m
    {
      Mcode.name = "main";
      entry_label = 0;
      blocks =
        [
          block 0
            [
              Insn.li ~dst:7 11L;
              Insn.connect_def ~cls:Reg.Int ~ri:5 ~rp:20 ();
              Insn.li ~dst:5 99L;
              Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:20 ();
              Insn.emit ~src:7;
              Insn.trap ();
              Insn.emit ~src:7 (* the program's connection must survive *);
              Insn.halt ();
            ];
        ];
    };
  Mcode.add_func m
    {
      Mcode.name = "big_handler";
      entry_label = 1;
      blocks =
        [
          block 1
            [
              (* save the entry we are about to reuse, then re-enable the
                 map and work in the extended file *)
              Insn.mfmap Opcode.Read ~dst:2 ~idx:7;
              Insn.mapen true;
              Insn.connect_use ~cls:Reg.Int ~ri:7 ~rp:21 ();
              Insn.emit ~src:7;
              (* restore before returning *)
              Insn.mtmap Opcode.Read ~src:2 ~idx:7;
              Insn.rfe ();
            ];
        ];
    };
  let cfg =
    Rc_machine.Config.v ~issue:1 ~ifile:file ~ffile:(Reg.core_only 8)
      ~trap_handler:"big_handler" ()
  in
  let r = M.run cfg (Image.assemble m) in
  Fmt.pr "program before the trap:       %Ld@." (List.nth r.M.output 0);
  Fmt.pr "handler's own extended value:  %Ld@." (List.nth r.M.output 1);
  Fmt.pr "program after rfe:             %Ld (map entry saved and restored)@."
    (List.nth r.M.output 2)

let () =
  call_demo ();
  trap_demo ();
  context_demo ();
  extended_handler_demo ()
