(* Tests for rc_core: the register mapping table with its four
   automatic-reset models, connect semantics, the upward-compatibility
   machinery (PSW, jsr/rts reset, context formats) and the zero-cycle
   forwarding of Figures 5 and 6. *)

open Rc_isa
open Rc_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let file_4_12 = Reg.file ~core:4 ~total:12
let file_8_32 = Reg.file ~core:8 ~total:32

(* --- basic mapping ------------------------------------------------------- *)

let test_home_initial () =
  let t = Map_table.create file_8_32 in
  check_bool "home at power-up" true (Map_table.is_home t);
  for i = 0 to 7 do
    check "read home" i (Map_table.read t i);
    check "write home" i (Map_table.write t i)
  done

let test_connect_use_def () =
  let t = Map_table.create file_4_12 in
  Map_table.connect_use t ~ri:2 ~rp:10;
  check "read redirected" 10 (Map_table.read t 2);
  check "write unchanged" 2 (Map_table.write t 2);
  Map_table.connect_def t ~ri:3 ~rp:7;
  check "write redirected" 7 (Map_table.write t 3);
  check "read unchanged" 3 (Map_table.read t 3);
  check "stats" 2 t.Map_table.connects_applied

let test_paper_figure2 () =
  (* Figure 2: 4 core + 8 extended; connects steer an add to Rp10, Rp7
     and Rp6. *)
  let t = Map_table.create file_4_12 in
  Map_table.connect_use t ~ri:1 ~rp:10;
  Map_table.connect_use t ~ri:2 ~rp:7;
  Map_table.connect_def t ~ri:0 ~rp:6;
  check "src1" 10 (Map_table.read t 1);
  check "src2" 7 (Map_table.read t 2);
  check "dst" 6 (Map_table.write t 0)

let test_bounds () =
  let t = Map_table.create file_4_12 in
  Alcotest.check_raises "index range"
    (Invalid_argument "Map_table: index out of range") (fun () ->
      ignore (Map_table.read t 4));
  Alcotest.check_raises "phys range"
    (Invalid_argument "Map_table: physical register out of range") (fun () ->
      Map_table.connect_use t ~ri:0 ~rp:12)

let test_apply_combined () =
  let t = Map_table.create file_4_12 in
  let c1 = { Insn.cmap = Insn.Write; ri = 1; rp = 9; ccls = Reg.Int } in
  let c2 = { Insn.cmap = Insn.Read; ri = 2; rp = 8; ccls = Reg.Int } in
  Map_table.apply t c1;
  Map_table.apply t c2;
  check "def applied" 9 (Map_table.write t 1);
  check "use applied" 8 (Map_table.read t 2)

(* --- the four automatic-reset models (paper Figure 3) -------------------- *)

let setup_model model =
  let t = Map_table.create ~model file_4_12 in
  (* Rix connected: read -> 10, write -> 11 *)
  Map_table.connect_use t ~ri:2 ~rp:10;
  Map_table.connect_def t ~ri:2 ~rp:11;
  t

let test_model1_no_reset () =
  let t = setup_model Model.No_reset in
  Map_table.note_write t 2;
  check "read unchanged" 10 (Map_table.read t 2);
  check "write unchanged" 11 (Map_table.write t 2)

let test_model2_write_reset () =
  let t = setup_model Model.Write_reset in
  Map_table.note_write t 2;
  check "read unchanged" 10 (Map_table.read t 2);
  check "write reset to home" 2 (Map_table.write t 2)

let test_model3_write_reset_read_update () =
  let t = setup_model Model.Write_reset_read_update in
  Map_table.note_write t 2;
  (* the read map receives the previous write map: the written value is
     readable with no extra connect-use *)
  check "read gets old write map" 11 (Map_table.read t 2);
  check "write reset to home" 2 (Map_table.write t 2)

let test_model4_read_write_reset () =
  let t = setup_model Model.Read_write_reset in
  Map_table.note_write t 2;
  check "read reset" 2 (Map_table.read t 2);
  check "write reset" 2 (Map_table.write t 2)

let test_model3_paper_example () =
  (* Section 3's example: R9, R10 extended; 8 core registers.
       connect_use Ri6,Rp9 ; 1) Ri2 <- Ri2 + Ri6
       connect_def Ri7,Rp10; 2) Ri7 <- Ri3 + 1
                             3) Ri4 <- Ri7 + Ri5
     No connect-use is needed before 3: writing through Ri7 moved the
     write map into the read map. *)
  let t = Map_table.create ~model:Model.Write_reset_read_update (Reg.file ~core:8 ~total:16) in
  Map_table.connect_use t ~ri:6 ~rp:9;
  check "1: reads Rp9" 9 (Map_table.read t 6);
  Map_table.note_write t 2 (* instruction 1 writes Ri2 *);
  Map_table.connect_def t ~ri:7 ~rp:10;
  check "2: writes Rp10" 10 (Map_table.write t 7);
  Map_table.note_write t 7;
  check "3: reads Rp10 with no connect" 10 (Map_table.read t 7);
  check "write map back home" 7 (Map_table.write t 7)

(* auto_resets must count only writes that actually changed a map
   entry: with every entry at home (the steady state of core-section
   traffic) a write performs no automatic connection, and model 1 never
   touches the counter at all. *)

let test_auto_reset_accounting () =
  let expect model ~first ~settled =
    (* writes through a connected entry: [first] changes after the first
       write, [settled] is the fixpoint once repeated writes stop
       changing the entry (model 3 takes a second write to carry the
       home write map into the read map) *)
    let t = setup_model model in
    Map_table.note_write t 2;
    check
      (Fmt.str "%a: connected entry" Model.pp model)
      first t.Map_table.auto_resets;
    Map_table.note_write t 2;
    Map_table.note_write t 2;
    check
      (Fmt.str "%a: repeated writes settle" Model.pp model)
      settled t.Map_table.auto_resets;
    (* writes through an entry already at home never count *)
    let t = Map_table.create ~model file_4_12 in
    Map_table.note_write t 1;
    Map_table.note_write t 1;
    check (Fmt.str "%a: home entry" Model.pp model) 0 t.Map_table.auto_resets
  in
  expect Model.No_reset ~first:0 ~settled:0;
  expect Model.Write_reset ~first:1 ~settled:1;
  expect Model.Write_reset_read_update ~first:1 ~settled:2;
  expect Model.Read_write_reset ~first:1 ~settled:1

let test_auto_reset_read_only_connection () =
  (* model 3 with only the read map diverged (write map home): the write
     still changes the read map, so it counts; model 2 changes nothing
     and must not count *)
  let diverged model =
    let t = Map_table.create ~model file_4_12 in
    Map_table.connect_use t ~ri:2 ~rp:10;
    Map_table.note_write t 2;
    t.Map_table.auto_resets
  in
  check "model 3 counts read-map repair" 1
    (diverged Model.Write_reset_read_update);
  check "model 2 ignores read-only divergence" 0 (diverged Model.Write_reset);
  check "model 4 counts read-map repair" 1 (diverged Model.Read_write_reset)

let test_model_strings () =
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Model.to_string m))
        (Option.map Model.to_string (Model.of_string (Model.to_string m))))
    Model.all;
  check "model numbers" 10
    (List.fold_left (fun a m -> a + Model.number m) 0 Model.all);
  check_bool "default is model 3" true (Model.default = Model.Write_reset_read_update)

(* --- reset and jsr/rts (section 4.1) -------------------------------------- *)

let test_reset () =
  let t = setup_model Model.No_reset in
  check_bool "dirty" false (Map_table.is_home t);
  Map_table.reset t;
  check_bool "home after reset" true (Map_table.is_home t)

let test_callee_save_corruption_scenario () =
  (* Section 4.1: map entry 5 connected to extended register 30 before a
     call; without the jsr reset the callee's callee-save spill of
     "register 5" would save register 30's contents. *)
  let file = Reg.file ~core:8 ~total:32 in
  let t = Map_table.create file in
  Map_table.connect_use t ~ri:5 ~rp:30;
  (* Without reset the callee reads the wrong register: *)
  check "stale read map" 30 (Map_table.read t 5);
  (* jsr resets the map, so the callee saves the true core register: *)
  Map_table.reset t;
  check "after jsr reset" 5 (Map_table.read t 5)

let test_index_search () =
  let t = Map_table.create file_4_12 in
  Map_table.connect_use t ~ri:3 ~rp:9;
  Alcotest.(check (option int)) "reading 9" (Some 3) (Map_table.index_reading t 9);
  Alcotest.(check (option int)) "nobody reads 8" None (Map_table.index_reading t 8);
  Map_table.connect_def t ~ri:1 ~rp:9;
  Alcotest.(check (option int)) "writing 9" (Some 1) (Map_table.index_writing t 9)

let test_copy_equal () =
  let t = setup_model Model.No_reset in
  let c = Map_table.copy t in
  check_bool "copies equal" true (Map_table.equal t c);
  Map_table.connect_use t ~ri:0 ~rp:5;
  check_bool "diverged" false (Map_table.equal t c)

(* --- PSW (sections 4.2, 4.3) ---------------------------------------------- *)

let test_psw_trap_cycle () =
  let psw = Psw.create () in
  check_bool "map on" true psw.Psw.map_enable;
  let saved = Psw.enter_trap psw in
  check_bool "map off in handler" false psw.Psw.map_enable;
  check_bool "saved copy kept enable" true saved.Psw.map_enable;
  Psw.return_from_exception psw ~saved;
  check_bool "restored" true psw.Psw.map_enable

let test_psw_arch_flag () =
  let psw = Psw.create ~extended_arch:false () in
  check_bool "original program" false psw.Psw.extended_arch;
  check_bool "original format" true (Context.format_of_psw psw = Context.Original)

(* --- context switching (section 4.2) --------------------------------------- *)

(* An integer register file in the machine's layout (one 8-byte slot
   per register) holding [a]. *)
let iregs_of_array a =
  let rf = Bytes.make (8 * Array.length a) '\000' in
  Array.iteri (Opcode.set_reg rf) a;
  rf

let make_view ?(extended_arch = true) () =
  let ifile = Reg.file ~core:8 ~total:16 and ffile = Reg.file ~core:4 ~total:8 in
  {
    Context.iregs = iregs_of_array (Array.init 16 Int64.of_int);
    fregs = Array.init 8 float_of_int;
    imap = Map_table.create ifile;
    fmap = Map_table.create ffile;
    psw = Psw.create ~extended_arch ();
  }

let test_context_roundtrip_extended () =
  let view = make_view () in
  Map_table.connect_use view.Context.imap ~ri:3 ~rp:12;
  Map_table.connect_def view.Context.fmap ~ri:1 ~rp:6;
  let saved = Context.save view in
  check_bool "extended format" true (saved.Context.format = Context.Extended);
  (* clobber everything *)
  Bytes.fill view.Context.iregs 0 (8 * 16) '\000';
  Array.fill view.Context.fregs 0 8 0.0;
  Map_table.reset view.Context.imap;
  Map_table.reset view.Context.fmap;
  Context.restore view saved;
  Alcotest.(check int64) "core reg restored" 5L
    (Opcode.get_reg view.Context.iregs 5);
  Alcotest.(check int64) "extended reg restored" 12L
    (Opcode.get_reg view.Context.iregs 12);
  Alcotest.(check (float 0.0)) "fp restored" 6.0 view.Context.fregs.(6);
  check "connection restored" 12 (Map_table.read view.Context.imap 3);
  check "fp connection restored" 6 (Map_table.write view.Context.fmap 1)

let test_context_original_smaller () =
  let ext = Context.save (make_view ()) in
  let orig = Context.save (make_view ~extended_arch:false ()) in
  check_bool "original format" true (orig.Context.format = Context.Original);
  check_bool "original is smaller" true (Context.words orig < Context.words ext);
  (* original format: core regs + psw only *)
  check "original words" (8 + 4 + 1) (Context.words orig)

let test_context_original_resets_maps () =
  let view = make_view ~extended_arch:false () in
  let saved = Context.save view in
  (* a previous occupant left connections behind *)
  Map_table.connect_use view.Context.imap ~ri:2 ~rp:15;
  Context.restore view saved;
  check_bool "maps reset for original program" true
    (Map_table.is_home view.Context.imap)

(* --- forwarding (sections 2.4, Figures 5 and 6) ----------------------------- *)

let figure5_setup () =
  (* 2-entry table, 3-entry file.  Map location 0 initially reads Rp1;
     regfile: Rp0=7, Rp1=40, Rp2=55. *)
  let file = Reg.file ~core:4 ~total:8 in
  let t = Map_table.create file in
  Map_table.connect_use t ~ri:0 ~rp:1;
  let regs = Array.make 8 0L in
  regs.(0) <- 7L;
  regs.(1) <- 40L;
  regs.(2) <- 55L;
  (t, regs)

let group =
  [
    Forwarding.Connect [ { Insn.cmap = Insn.Read; ri = 0; rp = 2; ccls = Reg.Int } ];
    Forwarding.Op { srcs = [ 0 ]; dst = None };
  ]

let test_figure5_fetch_after_dispatch () =
  let t, regs = figure5_setup () in
  match Forwarding.issue_group Forwarding.Fetch_after_dispatch t regs group with
  | [ r ] ->
      check "stale number" 1 (List.hd r.Forwarding.stale_phys);
      check "forwarded number" 2 (List.hd r.Forwarding.phys);
      Alcotest.(check int64) "correct value" 55L (List.hd r.Forwarding.values);
      check_bool "was forwarded" true r.Forwarding.forwarded;
      check_bool "no stall" false r.Forwarding.needs_stall
  | _ -> Alcotest.fail "expected one op resolution"

let test_figure6_fetch_before_dispatch () =
  let t, regs = figure5_setup () in
  match Forwarding.issue_group Forwarding.Fetch_before_dispatch t regs group with
  | [ r ] ->
      Alcotest.(check int64) "value forwarded from connect's decode read"
        55L (List.hd r.Forwarding.values);
      check_bool "no stall: explicit connect forwards data" false
        r.Forwarding.needs_stall
  | _ -> Alcotest.fail "expected one op resolution"

let test_forwarding_auto_reset_stall () =
  (* A same-cycle read whose mapping was changed by an automatic reset
     (not a connect) cannot be value-forwarded before dispatch. *)
  let file = Reg.file ~core:4 ~total:8 in
  let t = Map_table.create ~model:Model.Write_reset_read_update file in
  Map_table.connect_def t ~ri:0 ~rp:5;
  let regs = Array.make 8 0L in
  let group =
    [
      Forwarding.Op { srcs = []; dst = Some 0 } (* write: read map <- 5 *);
      Forwarding.Op { srcs = [ 0 ]; dst = None };
    ]
  in
  match Forwarding.issue_group Forwarding.Fetch_before_dispatch t regs group with
  | [ _w; r ] ->
      check "sees new mapping" 5 (List.hd r.Forwarding.phys);
      check_bool "needs a stall" true r.Forwarding.needs_stall
  | _ -> Alcotest.fail "expected two resolutions"

let test_forwarding_variants_agree =
  (* Both pipeline variants must resolve the same physical registers as
     a sequential execution, for random groups. *)
  let file = Reg.file ~core:4 ~total:12 in
  let gen = QCheck.Gen.(
      list_size (int_range 1 6)
        (frequency
           [
             ( 1,
               map2
                 (fun ri rp ->
                   Forwarding.Connect
                     [ { Insn.cmap = Insn.Read; ri; rp; ccls = Reg.Int } ])
                 (int_range 0 3) (int_range 0 11) );
             ( 1,
               map2
                 (fun ri rp ->
                   Forwarding.Connect
                     [ { Insn.cmap = Insn.Write; ri; rp; ccls = Reg.Int } ])
                 (int_range 0 3) (int_range 0 11) );
             ( 2,
               map2
                 (fun srcs dst -> Forwarding.Op { srcs; dst })
                 (list_size (int_range 0 2) (int_range 0 3))
                 (opt (int_range 0 3)) );
           ]))
  in
  let prop grp =
    let regs = Array.init 12 Int64.of_int in
    let t1 = Map_table.create file in
    let t2 = Map_table.create file in
    let t3 = Map_table.create file in
    let r_after = Forwarding.issue_group Forwarding.Fetch_after_dispatch t1 regs grp in
    let r_before = Forwarding.issue_group Forwarding.Fetch_before_dispatch t2 regs grp in
    let r_seq = Forwarding.sequential t3 regs grp in
    List.for_all2
      (fun a b -> a.Forwarding.phys = b.Forwarding.phys && a.Forwarding.values = b.Forwarding.values)
      r_after r_seq
    && List.for_all2
         (fun a b -> a.Forwarding.phys = b.Forwarding.phys && a.Forwarding.values = b.Forwarding.values)
         r_before r_seq
    && Map_table.equal t1 t2 && Map_table.equal t1 t3
  in
  let cell = QCheck.Test.make ~count:300 ~name:"forwarding variants agree"
      (QCheck.make gen) prop
  in
  QCheck_alcotest.to_alcotest cell

(* --- qcheck model properties ----------------------------------------------- *)

type table_op =
  | T_use of int * int
  | T_def of int * int
  | T_write of int
  | T_reset

let table_op_gen entries total =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i p -> T_use (i, p)) (int_range 0 (entries - 1)) (int_range 0 (total - 1)));
        (3, map2 (fun i p -> T_def (i, p)) (int_range 0 (entries - 1)) (int_range 0 (total - 1)));
        (3, map (fun i -> T_write i) (int_range 0 (entries - 1)));
        (1, return T_reset);
      ])

let apply_table_op t = function
  | T_use (ri, rp) -> Map_table.connect_use t ~ri ~rp
  | T_def (ri, rp) -> Map_table.connect_def t ~ri ~rp
  | T_write i -> Map_table.note_write t i
  | T_reset -> Map_table.reset t

let prop_maps_in_range model =
  let file = Reg.file ~core:6 ~total:20 in
  QCheck.Test.make ~count:300
    ~name:(Fmt.str "maps stay in range (%a)" Model.pp model)
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) (table_op_gen 6 20)))
    (fun ops ->
      let t = Map_table.create ~model file in
      List.iter (apply_table_op t) ops;
      let ok = ref true in
      for i = 0 to 5 do
        let r = Map_table.read t i and w = Map_table.write t i in
        if r < 0 || r >= 20 || w < 0 || w >= 20 then ok := false
      done;
      !ok)

let prop_model4_home_after_write =
  let file = Reg.file ~core:6 ~total:20 in
  QCheck.Test.make ~count:300 ~name:"model 4: entry home after write"
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 30) (table_op_gen 6 20)) (int_range 0 5)))
    (fun (ops, i) ->
      let t = Map_table.create ~model:Model.Read_write_reset file in
      List.iter (apply_table_op t) ops;
      Map_table.note_write t i;
      Map_table.read t i = i && Map_table.write t i = i)

let prop_write_map_home_after_write model =
  let file = Reg.file ~core:6 ~total:20 in
  QCheck.Test.make ~count:300
    ~name:(Fmt.str "write map home after write (%a)" Model.pp model)
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 30) (table_op_gen 6 20)) (int_range 0 5)))
    (fun (ops, i) ->
      let t = Map_table.create ~model file in
      List.iter (apply_table_op t) ops;
      Map_table.note_write t i;
      Map_table.write t i = i)

let prop_no_reset_ignores_writes =
  let file = Reg.file ~core:6 ~total:20 in
  QCheck.Test.make ~count:300 ~name:"model 1: writes never change maps"
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 30) (table_op_gen 6 20)) (int_range 0 5)))
    (fun (ops, i) ->
      let t = Map_table.create ~model:Model.No_reset file in
      List.iter (apply_table_op t) ops;
      let before = Map_table.copy t in
      Map_table.note_write t i;
      Map_table.equal before t)

let prop_reset_is_home model =
  let file = Reg.file ~core:6 ~total:20 in
  QCheck.Test.make ~count:200
    ~name:(Fmt.str "reset restores home (%a)" Model.pp model)
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) (table_op_gen 6 20)))
    (fun ops ->
      let t = Map_table.create ~model file in
      List.iter (apply_table_op t) ops;
      Map_table.reset t;
      Map_table.is_home t)

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    ([ prop_model4_home_after_write; prop_no_reset_ignores_writes ]
    @ List.map prop_maps_in_range Model.all
    @ List.map prop_write_map_home_after_write
        [ Model.Write_reset; Model.Write_reset_read_update ]
    @ List.map prop_reset_is_home Model.all)

(* [Map_table.reset] rewrites the maps only when an entry may have
   moved since the last reset.  A reference table that rewrites every
   entry on every reset must agree with it after every step, under every
   model, through connects, automatic connections, loads and resets. *)
type reset_step = Op of table_op | Load of int array * int array

let reference_step model (r, w) = function
  | Op (T_use (i, p)) -> r.(i) <- p
  | Op (T_def (i, p)) -> w.(i) <- p
  | Op (T_write i) -> (
      match model with
      | Model.No_reset -> ()
      | Model.Write_reset -> w.(i) <- Reg.home i
      | Model.Write_reset_read_update ->
          r.(i) <- w.(i);
          w.(i) <- Reg.home i
      | Model.Read_write_reset ->
          r.(i) <- Reg.home i;
          w.(i) <- Reg.home i)
  | Op T_reset ->
      Array.iteri (fun i _ -> r.(i) <- Reg.home i) r;
      Array.iteri (fun i _ -> w.(i) <- Reg.home i) w
  | Load (lr, lw) ->
      Array.blit lr 0 r 0 (Array.length lr);
      Array.blit lw 0 w 0 (Array.length lw)

let prop_reset_matches_full_rewrite =
  let entries = 6 and total = 20 in
  let file = Reg.file ~core:entries ~total in
  let map_gen = QCheck.Gen.(array_repeat entries (int_range 0 (total - 1))) in
  let step_gen =
    QCheck.Gen.(
      frequency
        [
          (10, map (fun o -> Op o) (table_op_gen entries total));
          (2, return (Op T_reset));
          (1, map2 (fun r w -> Load (r, w)) map_gen map_gen);
        ])
  in
  QCheck.Test.make ~count:500 ~name:"O(1) reset agrees with a full rewrite"
    (QCheck.make
       QCheck.Gen.(pair (oneofl Model.all) (list_size (int_range 0 60) step_gen)))
    (fun (model, steps) ->
      let t = Map_table.create ~model file in
      let r = Array.init entries Reg.home and w = Array.init entries Reg.home in
      List.for_all
        (fun step ->
          (match step with
          | Op o -> apply_table_op t o
          | Load (lr, lw) -> Map_table.load t ~read:lr ~write:lw);
          reference_step model (r, w) step;
          (match step with Op T_reset -> Map_table.is_home t | _ -> true)
          && List.for_all
               (fun i -> Map_table.read t i = r.(i) && Map_table.write t i = w.(i))
               (List.init entries Fun.id))
        steps)

let suite =
  [
    ("home at power-up", `Quick, test_home_initial);
    ("connect use/def", `Quick, test_connect_use_def);
    ("paper figure 2", `Quick, test_paper_figure2);
    ("bounds checks", `Quick, test_bounds);
    ("combined connect apply", `Quick, test_apply_combined);
    ("model 1 no reset", `Quick, test_model1_no_reset);
    ("model 2 write reset", `Quick, test_model2_write_reset);
    ("model 3 write reset + read update", `Quick, test_model3_write_reset_read_update);
    ("model 4 read/write reset", `Quick, test_model4_read_write_reset);
    ("model 3 section-3 example", `Quick, test_model3_paper_example);
    ("auto-reset accounting per model", `Quick, test_auto_reset_accounting);
    ("auto-reset accounting, read-only divergence", `Quick,
      test_auto_reset_read_only_connection);
    ("model names", `Quick, test_model_strings);
    ("reset", `Quick, test_reset);
    ("sec 4.1 callee-save scenario", `Quick, test_callee_save_corruption_scenario);
    ("index search", `Quick, test_index_search);
    ("copy and equality", `Quick, test_copy_equal);
    ("psw trap cycle", `Quick, test_psw_trap_cycle);
    ("psw architecture flag", `Quick, test_psw_arch_flag);
    ("context roundtrip (extended)", `Quick, test_context_roundtrip_extended);
    ("context original format smaller", `Quick, test_context_original_smaller);
    ("context original resets maps", `Quick, test_context_original_resets_maps);
    ("figure 5: fetch after dispatch", `Quick, test_figure5_fetch_after_dispatch);
    ("figure 6: fetch before dispatch", `Quick, test_figure6_fetch_before_dispatch);
    ("forwarding auto-reset stall", `Quick, test_forwarding_auto_reset_stall);
    test_forwarding_variants_agree;
  ]
  @ qcheck_suite
  @ [ QCheck_alcotest.to_alcotest prop_reset_matches_full_rewrite ]
