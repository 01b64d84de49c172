(* The compact trace codec (DESIGN.md §14): byte-packed RUN/LITERAL
   token streams must round-trip every legal packed-entry sequence —
   run-length boundaries, backward pc jumps, map toggles and the
   max_pc/max_reg corners included — report their resident size
   exactly, and beat the uncompressed packed-array format by the 4x
   the replay engine's cache budget is built on. *)

open Rc_machine
open Rc_harness
open Rc_workloads

let check_bool = Alcotest.(check bool)

let build arch es ~output ~checksum =
  let b = Dtrace.builder arch in
  List.iter (Dtrace.add_packed b) es;
  match Dtrace.finish b ~output ~checksum with
  | Some t -> t
  | None -> Alcotest.fail "finish on a valid builder returned None"

(** Encode, decode, and require the identical entry sequence, output
    and checksum back. *)
let roundtrip name arch es ~output ~checksum =
  let t = build arch es ~output ~checksum in
  Alcotest.(check int) (name ^ ": n") (List.length es) t.Dtrace.n;
  let back = Dtrace.entries arch t in
  List.iteri
    (fun i e ->
      if back.(i) <> e then
        Alcotest.failf "%s: entry %d decoded %#x, recorded %#x" name i back.(i)
          e)
    es;
  Alcotest.(check (list int64)) (name ^ ": output") output (Dtrace.output t);
  Alcotest.(check int64) (name ^ ": checksum") checksum t.Dtrace.checksum;
  t

(* --- run-length boundaries ----------------------------------------------- *)

(* Straight-line code of every interesting length: a run token holds at
   most 127 entries, so 127/128/255 cross the token boundary.  Entries
   are "plain" (sequential pc from 0, architectural operands, map off),
   i.e. maximally compressible. *)
let test_runs () =
  let code_len = 300 in
  let s0 = Array.init code_len (fun i -> i mod 7) in
  let s1 = Array.init code_len (fun i -> if i mod 3 = 0 then -1 else i mod 11) in
  let d = Array.init code_len (fun i -> (i + 5) mod 13) in
  let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
  List.iter
    (fun n ->
      let es =
        List.init n (fun i ->
            Dtrace.pack ~pc:i ~sp0:s0.(i) ~sp1:s1.(i) ~dp:d.(i) ~map_on:false
              ~taken:false)
      in
      let t = roundtrip (Fmt.str "run/%d" n) arch es ~output:[] ~checksum:0L in
      (* n plain entries cost ceil(n/127) run tokens. *)
      Alcotest.(check int)
        (Fmt.str "run/%d: token bytes" n)
        ((n + 126) / 127)
        (Bytes.length t.Dtrace.data))
    [ 1; 2; 126; 127; 128; 254; 255; 300 ]

(* --- packed-layout corners ----------------------------------------------- *)

(* The extreme values the layout admits: pc 0 and max_pc (largest
   forward and backward deltas), registers -1/0/max_reg against
   arbitrary architectural predictions, both flag bits. *)
let test_extremes () =
  let n = Dtrace.max_pc + 1 in
  let s0 = Array.make n (-1) and s1 = Array.make n (-1) and d = Array.make n (-1) in
  s0.(0) <- 0;
  s1.(0) <- Dtrace.max_reg;
  d.(0) <- 5;
  s0.(Dtrace.max_pc) <- Dtrace.max_reg;
  d.(Dtrace.max_pc) <- 0;
  let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
  let es =
    [
      Dtrace.pack ~pc:0 ~sp0:Dtrace.max_reg ~sp1:0 ~dp:(-1) ~map_on:true
        ~taken:true;
      Dtrace.pack ~pc:Dtrace.max_pc ~sp0:0 ~sp1:(-1) ~dp:Dtrace.max_reg
        ~map_on:false ~taken:false;
      Dtrace.pack ~pc:1 ~sp0:(-1) ~sp1:(-1) ~dp:(-1) ~map_on:true ~taken:true;
      Dtrace.pack ~pc:2 ~sp0:(-1) ~sp1:(-1) ~dp:(-1) ~map_on:true ~taken:false;
    ]
  in
  ignore
    (roundtrip "extremes" arch es ~output:[ Int64.min_int; Int64.max_int; 0L ]
       ~checksum:(-1L))

(* --- fuzz ----------------------------------------------------------------- *)

(* Random mixtures of compressible straight-line stretches and
   arbitrary literal entries (backward jumps, map toggles, register
   overrides), against random architectural tables: per trial the
   table, the entries, an output stream and an entry index to
   sabotage. *)
let fuzz_trials () =
  let st = Random.State.make [| 0x5eed; 14 |] in
  let trials = ref [] in
  for trial = 0 to 24 do
    let code_len = 1 + Random.State.int st 64 in
    let mk () =
      Array.init code_len (fun _ ->
          if Random.State.bool st then -1 else Random.State.int st 64)
    in
    let s0 = mk () and s1 = mk () and d = mk () in
    let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
    let n = 1 + Random.State.int st 500 in
    let prev = ref (-1) and prev_map = ref false in
    let rev = ref [] in
    for _ = 1 to n do
      let plain = Random.State.int st 4 < 3 && !prev + 1 < code_len in
      let pc = if plain then !prev + 1 else Random.State.int st code_len in
      let reg (a : int array) =
        if plain then a.(pc)
        else
          match Random.State.int st 4 with
          | 0 -> -1
          | 1 -> a.(pc)
          | 2 -> Random.State.int st 64
          | _ -> Dtrace.max_reg - Random.State.int st 3
      in
      let map_on = if plain then !prev_map else Random.State.bool st in
      let taken = (not plain) && Random.State.bool st in
      prev := pc;
      prev_map := map_on;
      rev :=
        Dtrace.pack ~pc ~sp0:(reg s0) ~sp1:(reg s1) ~dp:(reg d) ~map_on ~taken
        :: !rev
    done;
    let es = List.rev !rev in
    let output =
      List.init
        (Random.State.int st 6)
        (fun i -> Int64.of_int ((i * 1234567) - 42))
    in
    let sabotage_at = Random.State.int st n in
    trials := (trial, arch, es, output, sabotage_at) :: !trials
  done;
  List.rev !trials

(* Every trial round-trips, and a random entry sabotaged in it must
   differ exactly there and nowhere else. *)
let test_fuzz () =
  List.iter
    (fun (trial, arch, es, output, i) ->
      let name = Fmt.str "fuzz/%d" trial in
      let t = roundtrip name arch es ~output ~checksum:0x9E3779B9L in
      let orig = (Dtrace.entries arch t).(i) in
      let swapped =
        Dtrace.pack ~pc:(Dtrace.pc orig) ~sp0:(Dtrace.sp0 orig)
          ~sp1:(Dtrace.sp1 orig) ~dp:(Dtrace.dp orig)
          ~map_on:(not (Dtrace.map_on orig))
          ~taken:(Dtrace.taken orig)
      in
      let bad = Dtrace.entries arch (Dtrace.sabotage arch t i swapped) in
      List.iteri
        (fun j e ->
          let want = if j = i then swapped else e in
          if bad.(j) <> want then
            Alcotest.failf "%s: sabotage at %d corrupted entry %d" name i j)
        es)
    (fuzz_trials ())

(* --- exact resident size -------------------------------------------------- *)

(* [bytes] claims the trace's exact heap footprint: check it against
   the runtime's own accounting of every block reachable from the
   record, headers included. *)
let test_bytes_exact () =
  let s0 = Array.make 8 (-1) and s1 = Array.make 8 (-1) and d = Array.make 8 0 in
  let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
  List.iter
    (fun (name, n, output) ->
      let es =
        List.init n (fun i ->
            Dtrace.pack ~pc:(i mod 8) ~sp0:(-1) ~sp1:(-1)
              ~dp:(if i mod 3 = 0 then 7 else 0)
              ~map_on:(i mod 5 = 0) ~taken:(i mod 8 = 7))
      in
      let t = build arch es ~output ~checksum:42L in
      Alcotest.(check int)
        (name ^ ": bytes = heap words reachable from the trace")
        (8 * Obj.reachable_words (Obj.repr t))
        (Dtrace.bytes t))
    [ ("empty", 0, []); ("small", 5, [ 7L ]); ("larger", 400, [ 1L; 2L; 3L ]) ]

(* --- compression on a real kernel ----------------------------------------- *)

(* The 4x budget the trace cache is sized around, measured on real
   recordings (every kernel, RC, small core) against what the
   uncompressed format held resident: one 8-byte word per entry plus a
   24-byte list cell + boxed int64 per output value.  The last-sighting
   prediction actually lands between 17x and 300x on these, so 4x per
   kernel leaves a wide margin for workload drift. *)
let test_compression () =
  List.iter
    (fun (b : Wutil.bench) ->
      let opts =
        Experiments.reg_opts b ~label:(Experiments.small_label b) ~rc:true ()
      in
      let c = Pipeline.compile opts (b.Wutil.build 1) in
      let r, tr = Pipeline.simulate_recorded c in
      let tr = Option.get tr in
      Alcotest.(check (list int64))
        (b.Wutil.name ^ ": recorded output matches the run")
        r.Rc_machine.Machine.output (Dtrace.output tr);
      let old_bytes =
        (8 * (tr.Dtrace.n + 8)) + (48 * List.length r.Rc_machine.Machine.output)
      in
      check_bool
        (Fmt.str "%s: compact %d bytes, packed format %d" b.Wutil.name
           (Dtrace.bytes tr) old_bytes)
        true
        (4 * Dtrace.bytes tr <= old_bytes))
    (Registry.all ())

(* --- wire serialization ---------------------------------------------------- *)

(* to_string/of_string carry a trace between processes (the on-disk
   store): the round-trip must preserve entries, output and checksum
   exactly, and of_string must reject every framing violation rather
   than hand back a trace that replays garbage. *)
let test_serialize_roundtrip () =
  let code_len = 40 in
  let s0 = Array.init code_len (fun i -> i mod 5) in
  let s1 = Array.init code_len (fun i -> if i mod 4 = 0 then -1 else i mod 9) in
  let d = Array.init code_len (fun i -> (i + 2) mod 11) in
  let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
  List.iter
    (fun (name, n, output) ->
      let es =
        List.init n (fun i ->
            Dtrace.pack ~pc:(i mod code_len) ~sp0:(-1) ~sp1:(-1)
              ~dp:(if i mod 3 = 0 then 4 else -1)
              ~map_on:(i mod 7 < 3) ~taken:(i mod code_len = code_len - 1))
      in
      let t = build arch es ~output ~checksum:0x5eedL in
      match Dtrace.of_string (Dtrace.to_string t) with
      | None -> Alcotest.failf "%s: of_string rejected its own encoding" name
      | Some t' ->
          Alcotest.(check int) (name ^ ": n") t.Dtrace.n t'.Dtrace.n;
          Alcotest.(check int64)
            (name ^ ": checksum") t.Dtrace.checksum t'.Dtrace.checksum;
          check_bool (name ^ ": token bytes") true
            (Bytes.equal t.Dtrace.data t'.Dtrace.data);
          Alcotest.(check (list int64))
            (name ^ ": output") (Dtrace.output t) (Dtrace.output t');
          Alcotest.(check (array int))
            (name ^ ": entries")
            (Dtrace.entries arch t) (Dtrace.entries arch t'))
    [ ("empty", 0, []); ("small", 7, [ 3L; -1L ]); ("larger", 350, [ 0L ]) ]

let test_serialize_rejects () =
  let s0 = [| 0; 1 |] and s1 = [| -1; -1 |] and d = [| 1; 0 |] in
  let arch = Dtrace.arch_of_arrays ~s0 ~s1 ~d in
  let es =
    [
      Dtrace.pack ~pc:0 ~sp0:0 ~sp1:(-1) ~dp:1 ~map_on:false ~taken:false;
      Dtrace.pack ~pc:1 ~sp0:1 ~sp1:(-1) ~dp:0 ~map_on:true ~taken:true;
    ]
  in
  let good = Dtrace.to_string (build arch es ~output:[ 9L ] ~checksum:1L) in
  let reject name s =
    match Dtrace.of_string s with
    | None -> ()
    | Some _ -> Alcotest.failf "of_string accepted %s" name
  in
  reject "the empty string" "";
  reject "a short header" (String.sub good 0 16);
  reject "a truncated body" (String.sub good 0 (String.length good - 1));
  reject "a padded body" (good ^ "\x00");
  (* Corrupt the data-length field so the declared frame disagrees with
     the actual length. *)
  let b = Bytes.of_string good in
  Bytes.set_int64_le b 16 (Int64.add (Bytes.get_int64_le b 16) 1L);
  reject "an inconsistent data length" (Bytes.unsafe_to_string b);
  (* A negative entry count. *)
  let b = Bytes.of_string good in
  Bytes.set_int64_le b 0 (-1L);
  reject "a negative n" (Bytes.unsafe_to_string b)

(* --- block decoding ----------------------------------------------------------- *)

(* The blocks [next_block] yields must tile the trace: their entries,
   concatenated, are exactly [entries]; and a block identity must
   determine its entries, since the replay memo keys on it.  Within a
   block, only the last entry may be taken and the map bit is
   constant (block_entry builds consecutive pcs). *)
let check_blocks name arch t =
  let all = Dtrace.entries arch t in
  let bc = Dtrace.bcursor arch t in
  let seen = Hashtbl.create 64 in
  let i = ref 0 in
  while Dtrace.bidx bc < t.Dtrace.n do
    let b = Dtrace.next_block bc in
    let es = Array.init b.Dtrace.len (Dtrace.block_entry b) in
    Array.iteri
      (fun j e ->
        if !i + j >= Array.length all || all.(!i + j) <> e then
          Alcotest.failf "%s: block %d (id %d) entry %d is %#x, trace has %#x"
            name !i b.Dtrace.id j e
            (if !i + j < Array.length all then all.(!i + j) else -1);
        if j < b.Dtrace.len - 1 && Dtrace.taken e then
          Alcotest.failf "%s: taken entry inside block at %d" name (!i + j))
      es;
    (match Hashtbl.find_opt seen b.Dtrace.id with
    | None -> Hashtbl.add seen b.Dtrace.id es
    | Some es' ->
        if es <> es' then
          Alcotest.failf "%s: two visits of block id %d differ (at entry %d)"
            name b.Dtrace.id !i);
    i := !i + b.Dtrace.len
  done;
  Alcotest.(check int) (name ^ ": blocks cover the trace") t.Dtrace.n !i;
  Alcotest.(check int)
    (name ^ ": ids are dense")
    (Hashtbl.length seen) (Dtrace.bsegs bc)

let test_blocks_fuzz () =
  List.iter
    (fun (trial, arch, es, output, _) ->
      let t = build arch es ~output ~checksum:0L in
      check_blocks (Fmt.str "blocks/fuzz/%d" trial) arch t)
    (fuzz_trials ())

let test_blocks_kernels () =
  List.iter
    (fun (b : Wutil.bench) ->
      List.iter
        (fun rc ->
          let opts =
            Experiments.reg_opts b ~label:(Experiments.small_label b) ~rc ()
          in
          let c = Pipeline.compile opts (b.Wutil.build 1) in
          let _, tr = Pipeline.simulate_recorded c in
          let tr = Option.get tr in
          let cfg = Pipeline.machine_config opts in
          let arch =
            Dtrace.arch_of_dins
              (Rc_isa.Dins.decode ~lat:cfg.Rc_machine.Config.lat
                 c.Pipeline.image.Rc_isa.Image.code)
          in
          check_blocks (Fmt.str "blocks/%s/rc=%b" b.Wutil.name rc) arch tr)
        [ false; true ])
    (Registry.all ())

let suite =
  [
    ("run-length boundaries round-trip", `Quick, test_runs);
    ("max pc/reg corners round-trip", `Slow, test_extremes);
    ("codec fuzz + sabotage locality", `Quick, test_fuzz);
    ("bytes is exact", `Quick, test_bytes_exact);
    ("wire serialization round-trips", `Quick, test_serialize_roundtrip);
    ("wire deserialization rejects bad framing", `Quick, test_serialize_rejects);
    ("≥4x smaller than packed ints on every kernel", `Slow, test_compression);
    ("blocks tile random streams", `Quick, test_blocks_fuzz);
    ("blocks tile every kernel's trace", `Slow, test_blocks_kernels);
  ]
