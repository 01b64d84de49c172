(* Tests for rc_regalloc: assignment validity, spilling behaviour, the
   core/extended placement policy and calling-convention preferences. *)

open Rc_isa
open Rc_ir
open Rc_regalloc
module B = Builder

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let neutral = Rc_interp.Profile.neutral ()

(** A function with [n] simultaneously live integer values. *)
let pressure_prog n =
  let prog = B.program ~entry:"main" in
  let _ =
    B.define prog "main" ~params:[] (fun b _ ->
        let vs = List.init n (fun k -> B.cint b k) in
        let acc = B.cint b 0 in
        List.iter (fun v -> B.assign b acc (B.add b acc v)) vs;
        B.emit b acc;
        B.halt b)
  in
  prog

let profile_of prog = (Rc_interp.Interp.run (Prog.copy prog)).Rc_interp.Interp.profile

let test_no_spills_when_roomy () =
  let prog = pressure_prog 10 in
  let alloc = Alloc.run ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 16) prog neutral in
  check "no spills" 0 (Alloc.total_spills alloc);
  check_bool "valid" true (Alloc.validate alloc)

let test_spills_under_pressure () =
  let prog = pressure_prog 30 in
  let alloc = Alloc.run ~ifile:(Reg.core_only 16) ~ffile:(Reg.core_only 16) prog neutral in
  check_bool "some spills" true (Alloc.total_spills alloc > 0);
  check_bool "still valid" true (Alloc.validate alloc)

let test_rc_absorbs_pressure () =
  let prog = pressure_prog 30 in
  let alloc =
    Alloc.run
      ~ifile:(Reg.file ~core:16 ~total:256)
      ~ffile:(Reg.core_only 16) prog neutral
  in
  check "extended absorbs everything" 0 (Alloc.total_spills alloc);
  check_bool "valid" true (Alloc.validate alloc)

let test_assignments_stay_in_file () =
  let prog = pressure_prog 30 in
  let ifile = Reg.file ~core:16 ~total:64 in
  let alloc = Alloc.run ~ifile ~ffile:(Reg.core_only 16) prog neutral in
  let asn = Alloc.assignment alloc (Prog.find_func prog "main") in
  List.iter
    (fun p ->
      check_bool "in range" true (p >= Reg.first_alloc_int && p < 64))
    (Assignment.used_registers asn Reg.Int)

let test_reserved_never_allocated () =
  let prog = pressure_prog 40 in
  let alloc = Alloc.run ~ifile:(Reg.core_only 16) ~ffile:(Reg.core_only 16) prog neutral in
  let asn = Alloc.assignment alloc (Prog.find_func prog "main") in
  let used = Assignment.used_registers asn Reg.Int in
  List.iter
    (fun reserved ->
      check_bool
        (Fmt.str "r%d reserved" reserved)
        false (List.mem reserved used))
    [ Reg.zero; Reg.sp; Reg.ra; Reg.rv; Reg.spill_base; Reg.spill_base + 3 ]

let test_hot_values_spill_last () =
  (* under pressure, the coldest values spill first *)
  let prog = B.program ~entry:"main" in
  let hot = ref None in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let vs = List.init 20 (fun k -> B.cint b k) in
        let h = B.cint b 99 in
        hot := Some h;
        let acc = B.cint b 0 in
        (* h is used inside the loop: profile-hot *)
        B.for_n b ~start:0 ~stop:50 (fun _ ->
            B.assign b acc (B.add b acc h));
        List.iter (fun v -> B.assign b acc (B.add b acc v)) vs;
        B.emit b acc;
        B.halt b)
  in
  let profile = profile_of prog in
  let alloc = Alloc.run ~ifile:(Reg.core_only 16) ~ffile:(Reg.core_only 8) prog profile in
  let asn = Alloc.assignment alloc f in
  check_bool "some spills happened" true (Assignment.spilled_count asn > 0);
  check_bool "hot value kept in a register" false
    (Assignment.is_spilled asn (Option.get !hot))

let test_call_crossing_prefers_callee_saved () =
  let prog = B.program ~entry:"main" in
  let kept = ref None in
  let _leaf =
    B.define prog "leaf" ~params:[] ~ret:Reg.Int (fun b _ ->
        B.ret b (Some (B.cint b 1)))
  in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let x = B.cint b 7 in
        kept := Some x;
        let y = B.call_i b "leaf" [] in
        B.emit b (B.add b x y);
        B.halt b)
  in
  let ifile = Reg.core_only 16 in
  let alloc = Alloc.run ~ifile ~ffile:(Reg.core_only 8) prog neutral in
  let asn = Alloc.assignment alloc f in
  (match Assignment.location asn (Option.get !kept) with
  | Assignment.Reg p ->
      check_bool "callee-saved" true (Reg.is_callee_saved Reg.Int ifile p)
  | Assignment.Slot _ -> Alcotest.fail "unexpected spill")

let test_rc_core_affinity () =
  (* with a scarce core and an extended section, a read-only hot value
     lands in the core while write-heavy temporaries go extended *)
  let prog = B.program ~entry:"main" in
  let invariant = ref None in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let k = B.cint b 17 in
        invariant := Some k;
        let acc = B.cint b 0 in
        B.for_n b ~start:0 ~stop:100 (fun i ->
            (* many short-lived temporaries per iteration *)
            let t1 = B.mul b i k in
            let t2 = B.add b t1 k in
            let t2 = B.add b t2 k in
            let t2 = B.add b t2 i in
            let t3 = B.mul b t2 t1 in
            let t4 = B.xor_ b t3 t2 in
            let t5 = B.add b t4 t3 in
            let t6 = B.mul b t5 i in
            let t7 = B.add b t6 t5 in
            let t8 = B.xor_ b t7 i in
            B.assign b acc (B.add b acc t8));
        B.emit b acc;
        B.halt b)
  in
  let ifile = Reg.file ~core:12 ~total:256 in
  let profile = profile_of prog in
  let alloc = Alloc.run ~ifile ~ffile:(Reg.core_only 8) prog profile in
  let asn = Alloc.assignment alloc f in
  (match Assignment.location asn (Option.get !invariant) with
  | Assignment.Reg p -> check_bool "invariant in core" true (Reg.is_core ifile p)
  | Assignment.Slot _ -> Alcotest.fail "invariant spilled");
  let used_ext =
    List.exists
      (fun p -> Reg.is_extended ifile p)
      (Assignment.used_registers asn Reg.Int)
  in
  check_bool "temporaries use the extended section" true used_ext

let test_lru_spreads_registers () =
  (* independent short-lived values should not all share one register *)
  let prog = B.program ~entry:"main" in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let acc = B.cint b 0 in
        (* sequential temps, never overlapping *)
        for _ = 1 to 10 do
          let t = B.addi b acc 1L in
          B.assign b acc t
        done;
        B.emit b acc;
        B.halt b)
  in
  let alloc = Alloc.run ~ifile:(Reg.core_only 32) ~ffile:(Reg.core_only 8) prog neutral in
  let asn = Alloc.assignment alloc f in
  check_bool "more than two registers used" true
    (List.length (Assignment.used_registers asn Reg.Int) > 2)

let test_validate_catches_conflicts () =
  let prog = pressure_prog 6 in
  let f = Prog.find_func prog "main" in
  let live = Rc_dataflow.Liveness.compute f in
  let graph = Rc_dataflow.Interference.build f live in
  let asn =
    Assignment.create ~ifile:(Reg.core_only 16) ~ffile:(Reg.core_only 8)
  in
  (* deliberately assign everything to one register *)
  Vreg.Set.iter (fun v -> Assignment.set_reg asn v 8) graph.Rc_dataflow.Interference.nodes;
  check_bool "invalid detected" false (Assignment.validate asn graph)

let test_classes_allocated_independently () =
  let prog = B.program ~entry:"main" in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let x = B.cint b 3 in
        let fx = B.itof b x in
        let fy = B.fmul b fx fx in
        B.femit b fy;
        B.emit b x;
        B.halt b)
  in
  let alloc = Alloc.run ~ifile:(Reg.core_only 16) ~ffile:(Reg.core_only 8) prog neutral in
  let asn = Alloc.assignment alloc f in
  check_bool "float regs used" true (Assignment.used_registers asn Reg.Float <> []);
  check_bool "int regs used" true (Assignment.used_registers asn Reg.Int <> []);
  check_bool "valid" true (Alloc.validate alloc)

let test_workloads_allocations_valid () =
  List.iter
    (fun (bench : Rc_workloads.Wutil.bench) ->
      let prog = bench.Rc_workloads.Wutil.build 1 in
      Rc_opt.Pass.ilp prog;
      Rc_codegen.Legalize.run prog;
      let profile = (Rc_interp.Interp.run prog).Rc_interp.Interp.profile in
      List.iter
        (fun (ifile, ffile) ->
          let alloc = Alloc.run ~ifile ~ffile prog profile in
          check_bool
            (bench.Rc_workloads.Wutil.name ^ " allocation valid")
            true (Alloc.validate alloc))
        [
          (Reg.core_only 16, Reg.core_only 16);
          (Reg.file ~core:16 ~total:256, Reg.file ~core:16 ~total:128);
          (Reg.core_only 8, Reg.core_only 8);
        ])
    [ Rc_workloads.W_eqn.bench; Rc_workloads.W_lex.bench; Rc_workloads.W_tomcatv.bench ]

(* --- the colour pick against the fold it replaced ------------------------ *)

(* The reference: the pick as a fold over each segment's register list
   (never-used registers have age -1; ties go to the earliest in list
   order), with ages in one table keyed by (class, register). *)
let fold_pick last_used cls segments ~taken =
  let pick_in_segment seg =
    List.fold_left
      (fun best p ->
        if taken p then best
        else
          let age =
            try Hashtbl.find last_used (cls, p) with Not_found -> -1
          in
          match best with
          | Some (_, best_age) when best_age <= age -> best
          | _ -> Some (p, age))
      None seg
  in
  let rec pick = function
    | [] -> None
    | seg :: rest -> (
        match pick_in_segment seg with Some (p, _) -> Some p | None -> pick rest)
  in
  pick segments

let fold_segments (cfg : Coloring.config) cls order =
  let pt = cfg.Coloring.partition cls in
  let regs (r : Reg.range) = List.init (Reg.size r) (fun k -> r.Reg.lo + k) in
  let caller = regs pt.Reg.caller
  and callee = regs pt.Reg.callee
  and ext = regs pt.Reg.extended in
  match order with
  | Coloring.Call_crossing -> [ callee; caller; ext ]
  | Coloring.Core_first -> [ caller @ callee; ext ]
  | Coloring.Extended_first -> [ ext; caller @ callee ]

(* Drives [Coloring.Pick] and the fold with one random sequence of
   picks; each step's taken set is a random subset of the registers
   already assigned in the picked class, as interfering neighbours'
   registers always are.  Counts how often each case of the rule
   decided a step. *)
let pick_matches_fold ~rng ~steps ~ifile ~ffile (fresh, reused, full) =
  let cfg = Coloring.config ~ifile ~ffile () in
  let st = Coloring.Pick.create cfg in
  let last_used = Hashtbl.create 64 and stamp = ref 0 in
  let iassigned = ref [] and fassigned = ref [] in
  let assigned = function Reg.Int -> iassigned | Reg.Float -> fassigned in
  for step = 1 to steps do
    let cls = if Random.State.bool rng then Reg.Int else Reg.Float in
    let order =
      match Random.State.int rng 3 with
      | 0 -> Coloring.Call_crossing
      | 1 -> Coloring.Core_first
      | _ -> Coloring.Extended_first
    in
    let density = [| 0.; 0.3; 0.7; 0.95; 1. |].(Random.State.int rng 5) in
    let taken = Hashtbl.create 16 in
    List.iter
      (fun p ->
        if Random.State.float rng 1. < density then Hashtbl.replace taken p ())
      !(assigned cls);
    let taken = Hashtbl.mem taken in
    let expected = fold_pick last_used cls (fold_segments cfg cls order) ~taken in
    let got = Coloring.Pick.pick st cls order ~taken in
    Alcotest.(check (option int)) (Fmt.str "step %d" step) expected got;
    match expected with
    | None -> incr full
    | Some p ->
        if Hashtbl.mem last_used (cls, p) then incr reused
        else begin
          incr fresh;
          (assigned cls) := p :: !(assigned cls)
        end;
        incr stamp;
        Hashtbl.replace last_used (cls, p) !stamp
  done

let test_pick_matches_fold () =
  let counts = (ref 0, ref 0, ref 0) in
  (* identical index ranges in both classes, as in the served default:
     the pick state must be kept per class, not per range *)
  let served = Reg.file ~core:16 ~total:256 in
  pick_matches_fold ~rng:(Random.State.make [| 17 |]) ~steps:2000
    ~ifile:served ~ffile:served counts;
  let same = Reg.core_only 16 in
  pick_matches_fold ~rng:(Random.State.make [| 18 |]) ~steps:500 ~ifile:same
    ~ffile:same counts;
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed |] in
    let file () =
      let core = 4 + Random.State.int rng 21 in
      let ext = if Random.State.bool rng then 0 else Random.State.int rng 41 in
      Reg.file ~core ~total:(core + ext)
    in
    let ifile = file () in
    let ffile = file () in
    pick_matches_fold ~rng ~steps:300 ~ifile ~ffile counts
  done;
  let fresh, reused, full = counts in
  check_bool "never-used case exercised" true (!fresh > 0);
  check_bool "oldest-stamp case exercised" true (!reused > 0);
  check_bool "all-taken case exercised" true (!full > 0)

let suite =
  [
    ("no spills when roomy", `Quick, test_no_spills_when_roomy);
    ("spills under pressure", `Quick, test_spills_under_pressure);
    ("extended absorbs pressure", `Quick, test_rc_absorbs_pressure);
    ("assignments within file", `Quick, test_assignments_stay_in_file);
    ("reserved registers untouched", `Quick, test_reserved_never_allocated);
    ("hot values spill last", `Quick, test_hot_values_spill_last);
    ("call-crossing prefers callee-saved", `Quick, test_call_crossing_prefers_callee_saved);
    ("core affinity under RC", `Quick, test_rc_core_affinity);
    ("LRU spreads registers", `Quick, test_lru_spreads_registers);
    ("validation catches conflicts", `Quick, test_validate_catches_conflicts);
    ("class independence", `Quick, test_classes_allocated_independently);
    ("workload allocations valid", `Quick, test_workloads_allocations_valid);
    ("LRU pick matches the reference fold", `Quick, test_pick_matches_fold);
  ]
