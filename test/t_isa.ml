(* Unit tests for the rc_isa library: register files, opcodes, latencies,
   instruction constructors, machine-code containers and the assembler. *)

open Rc_isa

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Reg ---------------------------------------------------------------- *)

let test_file_partition () =
  let f = Reg.file ~core:16 ~total:256 in
  check "core" 16 f.Reg.core;
  check "extended" 240 (Reg.extended_count f);
  check_bool "core reg" true (Reg.is_core f 15);
  check_bool "not core" false (Reg.is_core f 16);
  check_bool "extended" true (Reg.is_extended f 16);
  check_bool "extended top" true (Reg.is_extended f 255);
  check_bool "beyond" false (Reg.is_extended f 256)

let test_file_validation () =
  Alcotest.check_raises "core too small" (Invalid_argument "Reg.file: core < 4")
    (fun () -> ignore (Reg.file ~core:2 ~total:8));
  Alcotest.check_raises "total < core"
    (Invalid_argument "Reg.file: total < core") (fun () ->
      ignore (Reg.file ~core:16 ~total:8))

let test_roles () =
  check "zero" 0 Reg.zero;
  check "sp" 1 Reg.sp;
  check "ra" 6 Reg.ra;
  check "rv" 7 Reg.rv;
  check "spill temps" 4 (Array.length (Reg.spill_temps Reg.Int));
  check "fspill temps" 2 (Array.length (Reg.spill_temps Reg.Float));
  check "home" 9 (Reg.home 9)

(* Every allocatable register of a partition, in index order. *)
let allocatable cls f =
  let pt = Reg.partition cls f in
  List.concat_map
    (fun (r : Reg.range) -> List.init (Reg.size r) (fun k -> r.Reg.lo + k))
    [ pt.Reg.caller; pt.Reg.callee; pt.Reg.extended ]

let test_allocatable () =
  let f = Reg.file ~core:16 ~total:32 in
  let alloc = allocatable Reg.Int f in
  check "allocatable count" (32 - Reg.first_alloc_int) (List.length alloc);
  check_bool "sp not allocatable" false (List.mem Reg.sp alloc);
  Array.iter
    (fun p -> check_bool "spill temp not allocatable" false (List.mem p alloc))
    (Reg.spill_temps Reg.Int);
  check_bool "ra not allocatable" false (List.mem Reg.ra alloc);
  check_bool "first alloc included" true (List.mem Reg.first_alloc_int alloc);
  check_bool "extended included" true (List.mem 31 alloc)

let test_callee_saved () =
  let f = Reg.core_only 16 in
  let pt = Reg.partition Reg.Int f in
  (* allocatable core = 8..15, upper half = 12..15 *)
  check "callee lo" 12 pt.Reg.callee.Reg.lo;
  check "callee hi" 16 pt.Reg.callee.Reg.hi;
  check "caller" 4 (Reg.size pt.Reg.caller);
  check "no extended" 0 (Reg.size pt.Reg.extended);
  check_bool "is callee" true (Reg.is_callee_saved Reg.Int f 12);
  check_bool "not callee" false (Reg.is_callee_saved Reg.Int f 11)

let test_pinned_indices () =
  Alcotest.(check (list int))
    "int pinned" [ Reg.zero; Reg.sp; Reg.ra ]
    (Reg.pinned_indices Reg.Int);
  Alcotest.(check (list int)) "float pinned" [] (Reg.pinned_indices Reg.Float)

(* --- Opcode ------------------------------------------------------------- *)

let test_eval_alu () =
  let open Opcode in
  Alcotest.(check int64) "add" 7L (eval_alu Add 3L 4L);
  Alcotest.(check int64) "sub" (-1L) (eval_alu Sub 3L 4L);
  Alcotest.(check int64) "mul" 12L (eval_alu Mul 3L 4L);
  Alcotest.(check int64) "div" 3L (eval_alu Div 13L 4L);
  Alcotest.(check int64) "div0" 0L (eval_alu Div 13L 0L);
  Alcotest.(check int64) "rem" 1L (eval_alu Rem 13L 4L);
  Alcotest.(check int64) "rem0" 0L (eval_alu Rem 13L 0L);
  Alcotest.(check int64) "and" 4L (eval_alu And 12L 5L);
  Alcotest.(check int64) "or" 13L (eval_alu Or 12L 5L);
  Alcotest.(check int64) "xor" 9L (eval_alu Xor 12L 5L);
  Alcotest.(check int64) "sll" 24L (eval_alu Sll 3L 3L);
  Alcotest.(check int64) "srl" 3L (eval_alu Srl 24L 3L);
  Alcotest.(check int64) "sra neg" (-2L) (eval_alu Sra (-8L) 2L);
  Alcotest.(check int64) "srl neg"
    0x3FFFFFFFFFFFFFFEL
    (eval_alu Srl (-8L) 2L);
  Alcotest.(check int64) "slt true" 1L (eval_alu Slt (-1L) 0L);
  Alcotest.(check int64) "slt false" 0L (eval_alu Slt 1L 0L);
  Alcotest.(check int64) "seq" 1L (eval_alu Seq 5L 5L);
  Alcotest.(check int64) "shift masks to 63" 2L (eval_alu Sll 1L 65L)

let test_eval_cond () =
  let open Opcode in
  check_bool "eq" true (eval_cond Eq 3L 3L);
  check_bool "ne" true (eval_cond Ne 3L 4L);
  check_bool "lt signed" true (eval_cond Lt (-1L) 0L);
  check_bool "le" true (eval_cond Le 3L 3L);
  check_bool "gt" false (eval_cond Gt 3L 3L);
  check_bool "ge" true (eval_cond Ge 3L 3L);
  List.iter
    (fun c ->
      List.iter
        (fun (a, b) ->
          check_bool
            (string_of_cond c ^ " negation")
            (eval_cond c a b)
            (not (eval_cond (negate_cond c) a b)))
        [ (1L, 2L); (2L, 1L); (1L, 1L); (-5L, 3L) ])
    [ Eq; Ne; Lt; Le; Gt; Ge ]

let test_eval_fpu () =
  let open Opcode in
  Alcotest.(check (float 1e-9)) "fadd" 7.5 (eval_fpu Fadd 3.0 4.5);
  Alcotest.(check (float 1e-9)) "fsub" (-1.5) (eval_fpu Fsub 3.0 4.5);
  Alcotest.(check (float 1e-9)) "fmul" 13.5 (eval_fpu Fmul 3.0 4.5);
  Alcotest.(check (float 1e-9)) "fdiv" 1.5 (eval_fpu Fdiv 4.5 3.0);
  Alcotest.(check (float 1e-9)) "fdiv0" 0.0 (eval_fpu Fdiv 4.5 0.0);
  Alcotest.(check (float 1e-9)) "fneg" (-3.0) (eval_fpu Fneg 3.0 0.0);
  Alcotest.(check (float 1e-9)) "fabs" 3.0 (eval_fpu Fabs (-3.0) 0.0)

let test_classification () =
  let open Opcode in
  check_bool "br is branch" true (is_branch (Br Eq));
  check_bool "jsr is branch" true (is_branch Jsr);
  check_bool "jsr is call" true (is_call Jsr);
  check_bool "ld is load" true (is_load (Ld W8));
  check_bool "fst is store" true (is_store Fst);
  check_bool "fld is mem" true (is_mem Fld);
  check_bool "connect" true (is_connect Connect);
  check_bool "alu not branch" false (is_branch (Alu Add))

(* --- Latency ------------------------------------------------------------ *)

let test_latency_table1 () =
  let lat = Latency.default in
  let l op = Latency.of_opcode lat op in
  check "int alu" 1 (l (Opcode.Alu Opcode.Add));
  check "int mul" 3 (l (Opcode.Alu Opcode.Mul));
  check "int div" 10 (l (Opcode.Alu Opcode.Div));
  check "int rem" 10 (l (Opcode.Alui Opcode.Rem));
  check "branch" 1 (l (Opcode.Br Opcode.Eq));
  check "load default" 2 (l (Opcode.Ld Opcode.W8));
  check "store" 1 (l (Opcode.St Opcode.W8));
  check "fp alu" 3 (l (Opcode.Fpu Opcode.Fadd));
  check "fp conversion" 3 (l Opcode.Itof);
  check "fp mul" 3 (l (Opcode.Fpu Opcode.Fmul));
  check "fp div" 10 (l (Opcode.Fpu Opcode.Fdiv));
  check "connect default" 0 (l Opcode.Connect);
  let lat4 = Latency.v ~load:4 ~connect:1 () in
  check "load 4" 4 (Latency.of_opcode lat4 (Opcode.Fld));
  check "connect 1" 1 (Latency.of_opcode lat4 Opcode.Connect);
  check "table rows" 10 (List.length (Latency.table1 lat))

let test_latency_validation () =
  Alcotest.check_raises "bad connect" (Invalid_argument "Latency.v: connect not 0/1")
    (fun () -> ignore (Latency.v ~connect:2 ()));
  Alcotest.check_raises "bad load" (Invalid_argument "Latency.v: load < 1")
    (fun () -> ignore (Latency.v ~load:0 ()));
  Alcotest.check_raises "load beyond max_load"
    (Invalid_argument "Latency.v: load > max_load")
    (fun () -> ignore (Latency.v ~load:65 ()))

(* --- Insn ---------------------------------------------------------------- *)

let test_insn_constructors () =
  let i = Insn.alu Opcode.Add ~dst:8 ~s1:9 ~s2:10 in
  check "srcs" 2 (Array.length i.Insn.srcs);
  check "dst" 8 (Option.get i.Insn.dst).Insn.r;
  let l = Insn.ld ~dst:8 ~base:Reg.sp ~off:16 () in
  Alcotest.(check int64) "offset" 16L l.Insn.imm;
  check_bool "load class int" true ((Option.get l.Insn.dst).Insn.cls = Reg.Int);
  let f = Insn.fld ~dst:3 ~base:Reg.sp ~off:8 () in
  check_bool "fld dst float" true ((Option.get f.Insn.dst).Insn.cls = Reg.Float);
  let b = Insn.br Opcode.Lt ~s1:8 ~s2:9 ~target:42 ~hint:true in
  check "target" 42 b.Insn.target;
  check_bool "hint" true b.Insn.hint;
  let j = Insn.jsr 7 in
  check "jsr writes ra" Reg.ra (Option.get j.Insn.dst).Insn.r;
  let r = Insn.rts () in
  check "rts reads ra" Reg.ra r.Insn.srcs.(0).Insn.r

let test_insn_connects () =
  let c = Insn.connect_use ~cls:Reg.Int ~ri:5 ~rp:30 () in
  check_bool "is connect" true (Insn.is_connect c);
  check "one update" 1 (Array.length c.Insn.connects);
  (let e = c.Insn.connects.(0) in
   check_bool "read kind" true (e.Insn.cmap = Insn.Read);
   check "ri" 5 e.Insn.ri;
   check "rp" 30 e.Insn.rp);
  let c2 =
    Insn.connect2
      { Insn.cmap = Insn.Write; ri = 3; rp = 20; ccls = Reg.Int }
      { Insn.cmap = Insn.Read; ri = 4; rp = 21; ccls = Reg.Int }
  in
  check "two updates" 2 (Array.length c2.Insn.connects)

let test_insn_pp () =
  let s = Fmt.str "%a" Insn.pp (Insn.alu Opcode.Add ~dst:8 ~s1:9 ~s2:10) in
  Alcotest.(check string) "alu pp" "add r8, r9, r10" s;
  let s = Fmt.str "%a" Insn.pp (Insn.connect_use ~cls:Reg.Int ~ri:5 ~rp:30 ()) in
  check_bool "connect pp mentions use" true
    (String.length s > 0 && String.sub s 0 7 = "connect")

(* --- Mcode / Image -------------------------------------------------------- *)

let simple_prog () =
  let m = Mcode.create ~entry:"main" in
  Mcode.add_global m (Mcode.global ~name:"data" ~bytes:64 ~init:(Mcode.Words [| 1L; 2L |]) ());
  Mcode.add_global m (Mcode.global ~name:"buf" ~bytes:10 ());
  Mcode.add_global m (Mcode.global ~name:"after" ~bytes:8 ());
  let blk1 = { Mcode.label = 0; insns = [ Insn.li ~dst:8 1L; Insn.jmp 1 ] } in
  let blk2 = { Mcode.label = 1; insns = [ Insn.halt () ] } in
  Mcode.add_func m { Mcode.name = "main"; entry_label = 0; blocks = [ blk1; blk2 ] };
  m

let test_assemble_layout () =
  let m = simple_prog () in
  let img = Image.assemble m in
  check "entry at zero" 0 img.Image.entry;
  check "data base" Image.data_base (Image.global_address img "data");
  check "buf after data" (Image.data_base + 64) (Image.global_address img "buf");
  (* 10 bytes aligned to 16 *)
  check "align8" (Image.data_base + 64 + 16) (Image.global_address img "after");
  check "code length" 3 (Array.length img.Image.code);
  (* the jmp's label 1 was patched to address 2 *)
  check "patched target" 2 img.Image.code.(1).Insn.target;
  check_bool "stack above data" true (img.Image.stack_top > img.Image.data_end)

let test_assemble_undefined_label () =
  let m = Mcode.create ~entry:"main" in
  let blk = { Mcode.label = 0; insns = [ Insn.jmp 99 ] } in
  Mcode.add_func m { Mcode.name = "main"; entry_label = 0; blocks = [ blk ] };
  Alcotest.check_raises "undefined label" (Image.Undefined_label 99) (fun () ->
      ignore (Image.assemble m))

let test_size_breakdown () =
  let m = Mcode.create ~entry:"main" in
  let insns =
    [
      Insn.li ~dst:8 1L;
      Insn.ld ~tag:Insn.Spill ~dst:8 ~base:Reg.sp ~off:0 ();
      Insn.st ~tag:Insn.Save ~src:8 ~base:Reg.sp ~off:8 ();
      Insn.st ~tag:Insn.Xsave ~src:8 ~base:Reg.sp ~off:16 ();
      Insn.connect_use ~cls:Reg.Int ~ri:5 ~rp:30 ();
      Insn.halt ();
    ]
  in
  Mcode.add_func m
    { Mcode.name = "main"; entry_label = 0; blocks = [ { Mcode.label = 0; insns } ] };
  let bk = Mcode.size_breakdown m in
  check "normal" 2 bk.Mcode.normal;
  check "spill" 1 bk.Mcode.spill;
  check "save" 1 bk.Mcode.save;
  check "xsave" 1 bk.Mcode.xsave;
  check "connects" 1 bk.Mcode.connects;
  check "total" 6 (Mcode.insn_count m)

let test_write_init () =
  let mem = Bytes.make 64 '\000' in
  Image.write_init mem 0 (Mcode.Words [| 0x1122334455667788L |]);
  Alcotest.(check int64) "words le" 0x1122334455667788L (Bytes.get_int64_le mem 0);
  Image.write_init mem 8 (Mcode.Doubles [| 1.5 |]);
  Alcotest.(check int64) "double bits" (Int64.bits_of_float 1.5)
    (Bytes.get_int64_le mem 8);
  Image.write_init mem 16 (Mcode.Bytes "abc");
  Alcotest.(check char) "bytes" 'b' (Bytes.get mem 17)

(* qcheck: assembling random block layouts preserves instruction counts
   and resolves every target to a valid address *)
let prop_assemble =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 6)
        (list_size (int_range 0 5)
           (map (fun d -> Insn.li ~dst:(8 + d) 1L) (int_range 0 7))))
  in
  QCheck.Test.make ~count:200 ~name:"assembler preserves layout"
    (QCheck.make gen)
    (fun blocks ->
      let m = Mcode.create ~entry:"main" in
      let nblocks = List.length blocks in
      let blocks =
        List.mapi
          (fun k insns ->
            (* end each block with a jump to the next (or halt) *)
            let insns =
              insns @ [ (if k = nblocks - 1 then Insn.halt () else Insn.jmp (k + 1)) ]
            in
            { Mcode.label = k; insns })
          blocks
      in
      Mcode.add_func m { Mcode.name = "main"; entry_label = 0; blocks };
      let img = Image.assemble m in
      Array.length img.Image.code = Mcode.insn_count m
      && Array.for_all
           (fun (i : Insn.t) ->
             i.Insn.target = Insn.no_target
             || (i.Insn.target >= 0 && i.Insn.target < Array.length img.Image.code))
           img.Image.code)

(* The three partitions of any file, including cores smaller than the
   reserved registers and files without an extended section, are
   disjoint, cover exactly [first_alloc, total), and agree with
   [is_callee_saved]. *)
let prop_partition =
  QCheck.Test.make ~count:500 ~name:"partition ranges tile the allocatable file"
    QCheck.(triple bool (int_range 4 40) (int_range 0 40))
    (fun (is_int, core, ext) ->
      let cls = if is_int then Reg.Int else Reg.Float in
      let f = Reg.file ~core ~total:(core + ext) in
      let pt = Reg.partition cls f in
      let ranges = [ pt.Reg.caller; pt.Reg.callee; pt.Reg.extended ] in
      List.for_all (fun (r : Reg.range) -> r.Reg.lo <= r.Reg.hi) ranges
      && List.for_all
           (fun p ->
             let n = List.length (List.filter (fun r -> Reg.mem r p) ranges) in
             n = (if p >= Reg.first_alloc cls && p < f.Reg.total then 1 else 0)
             && Reg.is_callee_saved cls f p = Reg.mem pt.Reg.callee p
             && (Reg.mem pt.Reg.extended p = (Reg.is_extended f p && n = 1)))
           (List.init (f.Reg.total + 2) (fun p -> p - 1)))

(* The register-file forms against the evaluators they wrap, for every
   operation and every (destination, source, source) triple over a
   six-register file.  Slot 0 holds garbage: r0 must still read 0 and
   drop writes.  r0 as a source makes every case divide by zero, r4
   holds a shift amount above 63, and f1 holds 0.0 for FP division by
   zero. *)
let prop_register_file_forms =
  let n = 6 in
  let int_val =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ 0L; 1L; -1L; 63L; 64L; Int64.min_int; Int64.max_int ]);
          (2, int64);
        ])
  in
  let float_val =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0.0; -0.0; 1.0; Float.nan; Float.infinity ]); (2, float) ])
  in
  let gen =
    QCheck.Gen.(
      quad (array_repeat n int_val) (int_range 64 1000)
        (array_repeat n float_val) int_val)
  in
  let all_alu = Opcode.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt; Seq ] in
  let all_cond = Opcode.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let all_fpu = Opcode.[ Fadd; Fsub; Fmul; Fdiv; Fneg; Fabs ] in
  let regs = List.init n Fun.id in
  QCheck.Test.make ~count:100 ~name:"register-file forms match the evaluators"
    (QCheck.make gen)
    (fun (ivals, shift, fvals, imm) ->
      ivals.(4) <- Int64.of_int shift;
      fvals.(1) <- 0.0;
      if Int64.equal ivals.(0) 0L then ivals.(0) <- 77L;
      let rf_of vals =
        let rf = Bytes.create (8 * n) in
        Array.iteri (fun p v -> Bytes.set_int64_le rf (8 * p) v) vals;
        rf
      in
      let get p = if p = 0 then 0L else ivals.(p) in
      (* the integer file after writing [v] to [d] *)
      let after d v =
        let e = Array.copy ivals in
        if d <> 0 then e.(d) <- v;
        rf_of e
      in
      let same_floats a b =
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a b
      in
      let ok = ref true in
      let expect c = if not c then ok := false in
      List.iter
        (fun d ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  List.iter
                    (fun op ->
                      let rf = rf_of ivals in
                      Opcode.eval_alu_rf op rf d a b;
                      expect (Bytes.equal rf (after d (Opcode.eval_alu op (get a) (get b))));
                      let rf = rf_of ivals in
                      Opcode.eval_alui_rf op rf d a imm;
                      expect (Bytes.equal rf (after d (Opcode.eval_alu op (get a) imm))))
                    all_alu;
                  List.iter
                    (fun c ->
                      expect
                        (Opcode.eval_cond_rf c (rf_of ivals) a b
                        = Opcode.eval_cond c (get a) (get b));
                      let rf = rf_of ivals in
                      Opcode.eval_fcond_rf c fvals rf d a b;
                      let v = Opcode.eval_fcond c fvals.(a) fvals.(b) in
                      expect (Bytes.equal rf (after d (if v then 1L else 0L))))
                    all_cond;
                  List.iter
                    (fun op ->
                      (* b = -1 stands for the absent second operand *)
                      List.iter
                        (fun b ->
                          let fr = Array.copy fvals in
                          Opcode.eval_fpu_rf op fr d a b;
                          let e = Array.copy fvals in
                          e.(d) <- Opcode.eval_fpu op fvals.(a) (if b < 0 then 0.0 else fvals.(b));
                          expect (same_floats fr e))
                        [ b; b - n ])
                    all_fpu)
                regs)
            regs)
        regs;
      !ok)

let suite =
  [
    ("file partition", `Quick, test_file_partition);
    ("file validation", `Quick, test_file_validation);
    ("register roles", `Quick, test_roles);
    ("allocatable set", `Quick, test_allocatable);
    ("callee-saved split", `Quick, test_callee_saved);
    ("pinned indices", `Quick, test_pinned_indices);
    ("alu semantics", `Quick, test_eval_alu);
    ("condition semantics", `Quick, test_eval_cond);
    ("fpu semantics", `Quick, test_eval_fpu);
    ("opcode classes", `Quick, test_classification);
    ("latency table 1", `Quick, test_latency_table1);
    ("latency validation", `Quick, test_latency_validation);
    ("insn constructors", `Quick, test_insn_constructors);
    ("connect payloads", `Quick, test_insn_connects);
    ("insn printing", `Quick, test_insn_pp);
    ("assembler layout", `Quick, test_assemble_layout);
    ("assembler undefined label", `Quick, test_assemble_undefined_label);
    ("size breakdown", `Quick, test_size_breakdown);
    ("data initialisers", `Quick, test_write_init);
    QCheck_alcotest.to_alcotest prop_assemble;
    QCheck_alcotest.to_alcotest prop_partition;
    QCheck_alcotest.to_alcotest prop_register_file_forms;
  ]
