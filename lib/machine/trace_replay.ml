(** The trace-replay engine: re-time a recorded execution under new
    configurations without re-executing it.

    On this in-order machine the timing knobs of a {!Config.t} — issue
    rate, memory channels, load/connect latency, the extra pipeline
    stage — cannot change the dynamic instruction stream, only how it
    packs into cycles.  So the stream is recorded once ({!record}), and
    replay feeds each recorded entry —
    pc, resolved physical operands, map-enable bit, branch outcome — to
    the timing core {!Machine.Timing}: the same calls execution makes
    once it has resolved those facts from live state.  Replay therefore
    reproduces {!Machine.result} exactly by construction: cycles, all
    five [lost_*] counters, every stall counter, the checksum, and the
    slot invariant.  [test/t_replay.ml] and [test/t_memo.ml] keep
    checking it as regressions.

    Execution is cycle-driven ({!Machine.run_cycle} issues until the core
    closes the cycle); replay is {e entry-driven}: for each entry, close
    as many cycles as its blockers demand, then issue it — the same core
    calls in the same order.  Being entry-driven is what lets
    {!replay_batch} walk the trace {e once}, decoding each entry a single
    time, while K independent per-configuration cores consume it in
    lockstep.  This module is that batch driver plus the superblock
    timing memo (DESIGN.md §18), which works on the core's state.

    A trace is only meaningful for the image it was recorded from, under
    a configuration whose {e semantic} knobs match the recording (reset
    model, register file shapes — these change register resolution and
    hence values and branch outcomes).  Keying and matching is the
    cache's job ({!Rc_harness.Experiments}).  Recording itself is sound
    on any configuration: a [Trap]/[Rfe] or injected interrupt during
    recording invalidates the builder, so an unreplayable run never
    produces a trace.  See DESIGN.md §14. *)

open Rc_isa
module T = Machine.Timing

(** Execute [image] under [cfg] with a recorder attached: the ordinary
    execution-driven result, plus the trace when the run was replayable.
    A shape that cannot fit the packed layout skips the recorder
    entirely — {!Dtrace.fits} is the one range check, hoisted out of
    the per-instruction path. *)
let record (cfg : Config.t) (image : Image.t) =
  let code_len = Array.length image.Image.code in
  if
    not
      (Dtrace.fits ~code_len ~ireg_total:cfg.Config.ifile.Reg.total
         ~freg_total:cfg.Config.ffile.Reg.total)
  then (Machine.run_machine (Machine.create cfg image), None)
  else begin
    let m = Machine.create cfg image in
    let arch =
      Dtrace.arch_of_dins (Dins.decode ~lat:cfg.Config.lat image.Image.code)
    in
    let b = Dtrace.builder ~hint:(4 * code_len) arch in
    Machine.set_recorder m (Some b);
    let r = Machine.run_machine m in
    let tr =
      Dtrace.finish b ~output:r.Machine.output ~checksum:r.Machine.checksum
    in
    (r, tr)
  end

(* --- the superblock timing memo (DESIGN.md §18) ------------------------- *)

(** Cumulative counters for the superblock timing memo, aggregated over
    every state of every {!replay_batch} call the record is passed to.
    Each memoisable-segment visit lands in exactly one of [m_hits]
    (served by a memo probe), [m_misses] (replayed per-entry and
    recorded into the memo) or [m_fallbacks] (replayed per-entry
    because the visit was ineligible: a halting segment, a fuel
    boundary, or a signature/value that overflows the packed forms).
    [m_bytes] approximates the memo tables' peak heap footprint. *)
type memo_stats = {
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_fallbacks : int;
  mutable m_bytes : int;
}

let memo_stats () = { m_hits = 0; m_misses = 0; m_fallbacks = 0; m_bytes = 0 }

(* The memoised effect of one (segment, in-signature) pair on one
   configuration's timing core.  Every field is relative to the cycle
   the visit began on — timing dynamics are translation-invariant in
   the cycle except for the fuel check, which the hit path re-tests. *)
type memo_val = {
  v_dcycles : int;
  v_dstats : int array;  (** the 14 non-cycle {!Machine.Timing.stats} deltas *)
  v_slots : int;
  v_cslots : int;
  v_mem_free : int;
  v_pending : (Reg.cls * Insn.map_kind * int) list;
      (** map entries prepended after the last cycle close inside the
          segment: the whole out-pending when [v_dcycles > 0], a prefix
          to re-prepend onto the caller's pending otherwise *)
  v_writes : int array;
      (** scoreboard writes still in flight at segment exit, packed
          [(residue lsl 13) lor (preg lsl 1) lor class]; residues are
          relative to the exit cycle and positive (an expired write is
          indistinguishable from no write) *)
}

(* Packed-form bounds for signatures and memo values; anything outside
   falls back to the per-entry loop. *)
let max_residue = 255
let max_inflight = 64
let max_pending = 64

(** One configuration's replay state: its timing core, plus the memo
    that sits on it. *)
type state = {
  timing : T.t;  (** logs its scoreboard writes when the memo is on *)
  pre : Dins.t array;  (** predecoded under {e this} config's latencies *)
  memo_on : bool;
  memo : (int, (string, memo_val) Hashtbl.t) Hashtbl.t;
      (** [seg_id -> in-signature -> effect]; lives exactly as long as
          this state, i.e. one replay call *)
  istamp : int array;  (** per-register dedup stamps for signatures *)
  fstamp : int array;
  mutable stamp : int;
  sigbuf : Buffer.t;
}

let state_of ?(memo = true) (cfg : Config.t) (image : Image.t) =
  {
    timing = T.create ~log_writes:memo cfg;
    pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
    memo_on = memo;
    memo = Hashtbl.create (if memo then 64 else 1);
    istamp = Array.make (if memo then cfg.Config.ifile.Reg.total else 1) 0;
    fstamp = Array.make (if memo then cfg.Config.ffile.Reg.total else 1) 0;
    stamp = 0;
    sigbuf = Buffer.create 64;
  }

(** Consume one trace entry.  A no-op once halted (execution ignores
    anything past the halt). *)
let step s e =
  if not s.timing.T.halted then
    T.admit s.timing
      s.pre.(Dtrace.pc e)
      ~map_on:(Dtrace.map_on e) ~sp0:(Dtrace.sp0 e) ~sp1:(Dtrace.sp1 e)
      ~dp:(Dtrace.dp e) ~taken:(Dtrace.taken e)

(* --- the memo fast path (DESIGN.md §18) ---------------------------------- *)

exception Sig_overflow

let[@inline] sig_byte buf v =
  if v < 0 || v > 255 then raise Sig_overflow;
  Buffer.add_char buf (Char.unsafe_chr v)

let[@inline] sig_le16 buf v =
  if v < 0 || v > 0xffff then raise Sig_overflow;
  Buffer.add_char buf (Char.unsafe_chr (v land 0xff));
  Buffer.add_char buf (Char.unsafe_chr (v lsr 8))

(** The in-signature: everything the core's blocker checks and issue
    effects can read from its state, relative to the open cycle —
    issue-slot and connect-budget phase, channel occupancy, this cycle's
    map-table touches, and the positive scoreboard residues.  Two states
    with equal signatures behave identically on any segment
    (translation-invariance in the cycle; the fuel check is re-tested on
    every hit).  [None] when a component overflows the packed form. *)
let signature s =
  let c = s.timing in
  let buf = s.sigbuf in
  Buffer.clear buf;
  try
    sig_byte buf c.T.slots;
    sig_byte buf c.T.cslots;
    sig_byte buf c.T.mem_free;
    (match c.T.pending with
    | [] -> sig_byte buf 0
    | p ->
        (* membership is all the blocker's pending scan reads, so a
           sorted encoding is canonical *)
        let sorted = List.sort compare p in
        let n = List.length sorted in
        if n > max_pending then raise Sig_overflow;
        sig_byte buf n;
        List.iter
          (fun ((cls : Reg.cls), (kind : Insn.map_kind), i) ->
            sig_byte buf
              ((match cls with Reg.Int -> 0 | Reg.Float -> 1)
              lor match kind with Insn.Read -> 0 | Insn.Write -> 2);
            sig_le16 buf i)
          sorted);
    (* Prune the write log to live, distinct writes (in place), then
       emit the residues in canonical order. *)
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let live = ref 0 in
    for i = 0 to c.T.n_written - 1 do
      let w = c.T.written.(i) in
      let p = w lsr 1 in
      if w land 1 = 0 then begin
        if c.T.iready.(p) > c.T.cycle && s.istamp.(p) <> stamp then begin
          s.istamp.(p) <- stamp;
          c.T.written.(!live) <- w;
          incr live
        end
      end
      else if c.T.fready.(p) > c.T.cycle && s.fstamp.(p) <> stamp then begin
        s.fstamp.(p) <- stamp;
        c.T.written.(!live) <- w;
        incr live
      end
    done;
    c.T.n_written <- !live;
    if !live > max_inflight then raise Sig_overflow;
    let sub = Array.sub c.T.written 0 !live in
    Array.sort compare sub;
    sig_byte buf !live;
    Array.iter
      (fun w ->
        let p = w lsr 1 in
        let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
        let residue = ready - c.T.cycle in
        if residue > max_residue then raise Sig_overflow;
        sig_le16 buf w;
        sig_byte buf residue)
      sub;
    Some (Buffer.contents buf)
  with Sig_overflow -> None

(* The 14 non-cycle stats fields, in one fixed order. *)
let snapshot_stats (st : T.stats) =
  [|
    st.T.issued;
    st.T.connects;
    st.T.extra_connects;
    st.T.mem_ops;
    st.T.branches;
    st.T.mispredicts;
    st.T.data_stalls;
    st.T.map_stalls;
    st.T.channel_stalls;
    st.T.lost_data;
    st.T.lost_map;
    st.T.lost_channel;
    st.T.lost_branch;
    st.T.lost_fetch;
  |]

let apply_dstats (st : T.stats) (d : int array) =
  st.T.issued <- st.T.issued + d.(0);
  st.T.connects <- st.T.connects + d.(1);
  st.T.extra_connects <- st.T.extra_connects + d.(2);
  st.T.mem_ops <- st.T.mem_ops + d.(3);
  st.T.branches <- st.T.branches + d.(4);
  st.T.mispredicts <- st.T.mispredicts + d.(5);
  st.T.data_stalls <- st.T.data_stalls + d.(6);
  st.T.map_stalls <- st.T.map_stalls + d.(7);
  st.T.channel_stalls <- st.T.channel_stalls + d.(8);
  st.T.lost_data <- st.T.lost_data + d.(9);
  st.T.lost_map <- st.T.lost_map + d.(10);
  st.T.lost_channel <- st.T.lost_channel + d.(11);
  st.T.lost_branch <- st.T.lost_branch + d.(12);
  st.T.lost_fetch <- st.T.lost_fetch + d.(13)

let run_seg_slow s (seg : Dtrace.seg) =
  let es = seg.Dtrace.seg_entries in
  for i = 0 to Array.length es - 1 do
    step s es.(i)
  done

let apply_memo s v =
  let c = s.timing in
  let st = c.T.stats in
  st.T.cycles <- st.T.cycles + v.v_dcycles;
  apply_dstats st v.v_dstats;
  c.T.slots <- v.v_slots;
  c.T.cslots <- v.v_cslots;
  c.T.mem_free <- v.v_mem_free;
  c.T.pending <-
    (if v.v_dcycles > 0 then v.v_pending else v.v_pending @ c.T.pending);
  c.T.cycle <- st.T.cycles;
  for i = 0 to Array.length v.v_writes - 1 do
    let w = v.v_writes.(i) in
    let residue = w lsr 13 in
    let p = (w lsr 1) land 0xfff in
    if w land 1 = 0 then c.T.iready.(p) <- c.T.cycle + residue
    else c.T.fready.(p) <- c.T.cycle + residue;
    T.log_write c (w land 0x1fff)
  done

let rec firstn n = function
  | [] -> []
  | x :: r -> if n <= 0 then [] else x :: firstn (n - 1) r

let[@inline] bump_hit = function
  | None -> ()
  | Some m -> m.m_hits <- m.m_hits + 1

let[@inline] bump_fallback = function
  | None -> ()
  | Some m -> m.m_fallbacks <- m.m_fallbacks + 1

(* Replay the visit per-entry while measuring its effect, then store
   the effect under [key].  An effect that does not fit the packed
   forms is simply not stored (the visit already ran exactly). *)
let record_seg s tbl key stats (seg : Dtrace.seg) =
  let c = s.timing in
  let st = c.T.stats in
  let c0 = st.T.cycles in
  let snap = snapshot_stats st in
  let pend0 = List.length c.T.pending in
  let mark = c.T.n_written in
  run_seg_slow s seg;
  let dcycles = st.T.cycles - c0 in
  try
    (* scoreboard writes still in flight at exit, deduped to the final
       (= current) readiness per register *)
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let nw = ref 0 in
    for i = mark to c.T.n_written - 1 do
      let w = c.T.written.(i) in
      let p = w lsr 1 in
      if p > 0xfff then raise Sig_overflow;
      let stamps = if w land 1 = 0 then s.istamp else s.fstamp in
      if stamps.(p) <> stamp then begin
        stamps.(p) <- stamp;
        let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
        if ready > c.T.cycle then begin
          if ready - c.T.cycle > max_residue then raise Sig_overflow;
          c.T.written.(mark + !nw) <- w;
          (* compact the marked span; dead entries drop *)
          incr nw
        end
      end
    done;
    let writes =
      Array.init !nw (fun i ->
          let w = c.T.written.(mark + i) in
          let p = w lsr 1 in
          let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
          ((ready - c.T.cycle) lsl 13) lor w)
    in
    c.T.n_written <- mark + !nw;
    let v =
      {
        v_dcycles = dcycles;
        v_dstats =
          (let now = snapshot_stats st in
           Array.init 14 (fun i -> now.(i) - snap.(i)));
        v_slots = c.T.slots;
        v_cslots = c.T.cslots;
        v_mem_free = c.T.mem_free;
        v_pending =
          (if dcycles > 0 then c.T.pending
           else firstn (List.length c.T.pending - pend0) c.T.pending);
        v_writes = writes;
      }
    in
    Hashtbl.replace tbl key v;
    match stats with
    | None -> ()
    | Some m ->
        m.m_misses <- m.m_misses + 1;
        m.m_bytes <-
          m.m_bytes + String.length key + 120
          + (8 * Array.length writes)
          + (24 * List.length v.v_pending)
  with Sig_overflow -> bump_fallback stats

(** Advance one state over one whole superblock visit: probe the memo
    when the segment is memoisable and the signature fits, fall back to
    the exact per-entry loop otherwise.  [can_memo] is false for
    segments containing [halt], which flips [halted] — state the
    signature deliberately omits. *)
let seg_step s ~can_memo stats (seg : Dtrace.seg) =
  if s.timing.T.halted then () (* step is a no-op once halted *)
  else if not (s.memo_on && can_memo) then begin
    if s.memo_on then bump_fallback stats;
    run_seg_slow s seg
  end
  else
    match signature s with
    | None ->
        bump_fallback stats;
        run_seg_slow s seg
    | Some key -> (
        let tbl =
          match Hashtbl.find_opt s.memo seg.Dtrace.seg_id with
          | Some t -> t
          | None ->
              let t = Hashtbl.create 8 in
              Hashtbl.add s.memo seg.Dtrace.seg_id t;
              t
        in
        match Hashtbl.find_opt tbl key with
        | Some v when s.timing.T.stats.T.cycles + v.v_dcycles < s.timing.T.fuel
          ->
            bump_hit stats;
            apply_memo s v
        | Some _ ->
            (* the memoised effect would cross the fuel limit: re-run
               per-entry so the failure fires at the exact cycle *)
            bump_fallback stats;
            run_seg_slow s seg
        | None -> record_seg s tbl key stats seg)

(** Re-time one trace under K configurations in a single pass: the
    token stream is decoded block by block exactly once (each distinct
    superblock's entries exactly once, via the block cursor's identity
    cache), and every state advances on each block before the next is
    decoded.  With [memo] on (the default), each state keeps a
    per-segment timing memo so repeated visits to a hot loop body in
    an already-seen timing state cost one hash probe instead of a
    per-instruction blocker sequence — bit-identical to the memo-off
    path by construction, enforced field-by-field in [test/t_replay.ml].
    [stats] accumulates the memo counters.  The caller guarantees [tr]
    was recorded from [image] under semantic knobs matching {e all} of
    [cfgs]; their timing knobs are free.
    @raise Machine.Simulation_error on fuel exhaustion or a trace that
    ends before [halt]. *)
let replay_batch ?(memo = true) ?stats (cfgs : Config.t array)
    (image : Image.t) (tr : Dtrace.t) =
  if Array.length cfgs = 0 then
    invalid_arg "Trace_replay.replay_batch: no configurations";
  let states = Array.map (fun cfg -> state_of ~memo cfg image) cfgs in
  (* Architectural operands do not depend on latency, so any state's
     predecode serves the cursor. *)
  let pre0 = states.(0).pre in
  let bc = Dtrace.bcursor (Dtrace.arch_of_dins pre0) tr in
  (* seg_id -> whether the segment is free of [halt], computed once per
     distinct segment (opcodes are config-independent) *)
  let memoable = Hashtbl.create 32 in
  let k = Array.length states in
  while Dtrace.bidx bc < tr.Dtrace.n do
    match Dtrace.next_block bc with
    | Dtrace.Lit e ->
        for j = 0 to k - 1 do
          step states.(j) e
        done
    | Dtrace.Run seg ->
        let can_memo =
          match Hashtbl.find_opt memoable seg.Dtrace.seg_id with
          | Some b -> b
          | None ->
              let ok =
                Array.for_all
                  (fun e ->
                    match pre0.(Dtrace.pc e).Dins.op with
                    | Opcode.Halt -> false
                    | _ -> true)
                  seg.Dtrace.seg_entries
              in
              Hashtbl.replace memoable seg.Dtrace.seg_id ok;
              ok
        in
        for j = 0 to k - 1 do
          seg_step states.(j) ~can_memo stats seg
        done
  done;
  let output = Dtrace.output tr in
  Array.map
    (fun s ->
      if not s.timing.T.halted then
        raise (Machine.Simulation_error "replay: trace exhausted before halt");
      T.result s.timing ~output ~checksum:tr.Dtrace.checksum)
    states

let replay ?memo ?stats (cfg : Config.t) (image : Image.t) (tr : Dtrace.t) =
  (replay_batch ?memo ?stats [| cfg |] image tr).(0)
