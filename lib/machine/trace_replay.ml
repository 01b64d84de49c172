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
    {!replay_batch} walk the trace {e once}, block by block, while K
    independent per-configuration cores consume each block in turn.
    This module is that batch driver plus the block timing memo
    (DESIGN.md §18), which works on the core's state.

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

(* --- the block timing memo (DESIGN.md §18) -------------------------------- *)

(** Cumulative counters for the block timing memo, aggregated over
    every state of every {!replay_batch} call the record is passed to.
    Each memoisable-block visit lands in exactly one of [m_hits]
    (served by a memo probe), [m_misses] (replayed per-entry and
    recorded into the memo) or [m_fallbacks] (replayed per-entry
    because the visit was ineligible: a halting block, a fuel boundary,
    or a signature/effect that overflows the packed forms).  [m_bytes]
    is the exact heap size of the memo tables at the end of each call,
    summed over the calls. *)
type memo_stats = {
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_fallbacks : int;
  mutable m_bytes : int;
}

let memo_stats () = { m_hits = 0; m_misses = 0; m_fallbacks = 0; m_bytes = 0 }

(* Caps on the in-signature's components; a state beyond any of them
   has no signature and its visit falls back to the per-entry loop. *)
let max_field = 255 (* slots, connect slots, free channels *)
let max_residue = 255
let max_inflight = 64
let max_pending = 64

(* One state's memo: an open-addressing table of entries, each one int
   array
     [0]          the key's hash
     [1]          the key's length k
     [2 ..]       the key: block id, header word, sorted pending
                  entries, sorted scoreboard residues
     [2 + k ..]   the block's effect, at offsets [v_*] below,
   so a probe hashes and compares ints in place, and only an insert
   allocates: its entry, and the slot array when it grows. *)
module Memo = struct
  type t = {
    mutable slots : int array array;  (** an entry, or [free] *)
    free : int array;  (** this table's empty-slot marker *)
    mutable count : int;
    mutable words : int;  (** the entries' heap words, headers included *)
  }

  let create () =
    let free = Array.make 1 0 in
    { slots = Array.make 64 free; free; count = 0; words = 0 }

  (* The exact heap footprint: the record (a header and four fields),
     the marker, the slot array and the entries, headers included. *)
  let bytes m = 8 * (5 + 2 + 1 + Array.length m.slots + m.words)

  let hash (key : int array) k =
    let h = ref k in
    for i = 0 to k - 1 do
      h := (!h lxor key.(i)) * 0x100000001B3
    done;
    !h lxor (!h lsr 29)

  let rec same (e : int array) (key : int array) k i =
    i >= k || (e.(2 + i) = key.(i) && same e key k (i + 1))

  (* The slot of the entry keyed [key.(0 .. k - 1)], or [-1 - j] for the
     free slot [j] an insert of it would take. *)
  let rec probe m key k h j =
    let e = m.slots.(j) in
    if e == m.free then -1 - j
    else if e.(0) = h && e.(1) = k && same e key k 0 then j
    else probe m key k h ((j + 1) land (Array.length m.slots - 1))

  let find m key k h = probe m key k h (h land (Array.length m.slots - 1))

  let rehash m =
    let old = m.slots in
    let slots = Array.make (2 * Array.length old) m.free in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun e ->
        if e != m.free then begin
          let j = ref (e.(0) land mask) in
          while slots.(!j) != m.free do
            j := (!j + 1) land mask
          done;
          slots.(!j) <- e
        end)
      old;
    m.slots <- slots

  (* File entry [e] under free slot [j]. *)
  let add m j e =
    m.slots.(j) <- e;
    m.count <- m.count + 1;
    m.words <- m.words + 1 + Array.length e;
    if 2 * m.count > Array.length m.slots then rehash m
end

(* The effect of one visit, relative to the cycle it began on: every
   timing dynamic is translation-invariant in the cycle except the fuel
   check, which a hit re-tests. *)
let v_dcycles = 0 (* then the 14 non-cycle stats deltas, [stat_order] *)
let v_slots = 15
let v_cslots = 16
let v_mem_free = 17
let v_npending = 18
(* map entries added after the visit's last cycle close: the whole
   out-pending when [dcycles > 0], else a suffix to append *)
let v_nwrites = 19
(* scoreboard writes still in flight at exit, packed
   [(residue lsl 13) lor (preg lsl 1) lor class], residues relative to
   the exit cycle and positive (an expired write is indistinguishable
   from no write) *)
let v_lists = 20

(* The 15 stats fields, cycles first, into [a.(0 .. 14)]. *)
let stats_into (st : T.stats) a =
  a.(0) <- st.T.cycles;
  a.(1) <- st.T.issued;
  a.(2) <- st.T.connects;
  a.(3) <- st.T.extra_connects;
  a.(4) <- st.T.mem_ops;
  a.(5) <- st.T.branches;
  a.(6) <- st.T.mispredicts;
  a.(7) <- st.T.data_stalls;
  a.(8) <- st.T.map_stalls;
  a.(9) <- st.T.channel_stalls;
  a.(10) <- st.T.lost_data;
  a.(11) <- st.T.lost_map;
  a.(12) <- st.T.lost_channel;
  a.(13) <- st.T.lost_branch;
  a.(14) <- st.T.lost_fetch

let add_stats (st : T.stats) a v =
  st.T.cycles <- st.T.cycles + a.(v);
  st.T.issued <- st.T.issued + a.(v + 1);
  st.T.connects <- st.T.connects + a.(v + 2);
  st.T.extra_connects <- st.T.extra_connects + a.(v + 3);
  st.T.mem_ops <- st.T.mem_ops + a.(v + 4);
  st.T.branches <- st.T.branches + a.(v + 5);
  st.T.mispredicts <- st.T.mispredicts + a.(v + 6);
  st.T.data_stalls <- st.T.data_stalls + a.(v + 7);
  st.T.map_stalls <- st.T.map_stalls + a.(v + 8);
  st.T.channel_stalls <- st.T.channel_stalls + a.(v + 9);
  st.T.lost_data <- st.T.lost_data + a.(v + 10);
  st.T.lost_map <- st.T.lost_map + a.(v + 11);
  st.T.lost_channel <- st.T.lost_channel + a.(v + 12);
  st.T.lost_branch <- st.T.lost_branch + a.(v + 13);
  st.T.lost_fetch <- st.T.lost_fetch + a.(v + 14)

(** One configuration's replay state: its timing core, plus the memo
    that sits on it. *)
type state = {
  timing : T.t;  (** logs its scoreboard writes when the memo is on *)
  pre : Dins.t array;  (** predecoded under {e this} config's latencies *)
  memo : Memo.t option;
      (** lives exactly as long as this state, i.e. one replay call *)
  key : int array;  (** the in-signature under construction *)
  snap : int array;  (** the stats at a visit's start *)
  now : int array;
  istamp : int array;  (** per-register dedup stamps *)
  fstamp : int array;
  mutable stamp : int;
}

let state_of ?(memo = true) (cfg : Config.t) (image : Image.t) =
  {
    timing = T.create ~log_writes:memo cfg;
    pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
    memo = (if memo then Some (Memo.create ()) else None);
    key = Array.make (2 + max_pending + max_inflight) 0;
    snap = Array.make 15 0;
    now = Array.make 15 0;
    istamp = Array.make (if memo then cfg.Config.ifile.Reg.total else 1) 0;
    fstamp = Array.make (if memo then cfg.Config.ffile.Reg.total else 1) 0;
    stamp = 0;
  }

let run_block s (b : Dtrace.block) =
  T.admit_run s.timing s.pre ~first:b.Dtrace.start
    ~last:(b.Dtrace.start + b.Dtrace.len - 1)
    ~map_on:b.Dtrace.map ~sp0:b.Dtrace.sp0s ~sp1:b.Dtrace.sp1s
    ~dp:b.Dtrace.dps ~taken:b.Dtrace.last_taken

(* --- the memo fast path (DESIGN.md §18) ---------------------------------- *)

(* Insert [x] into the sorted [key.(base .. base + n - 1)]. *)
let insert_sorted (key : int array) base n x =
  let j = ref (base + n) in
  while !j > base && key.(!j - 1) > x do
    key.(!j) <- key.(!j - 1);
    decr j
  done;
  key.(!j) <- x

(** Write the in-signature of [s] before block [id] into [s.key] and
    return its length, or [-1] when a component overflows its cap.  It
    holds everything the core's blocker checks and issue effects can
    read from its state, relative to the open cycle: issue-slot and
    connect-budget phase, channel occupancy, this cycle's map-table
    touches, and the positive scoreboard residues.  Two states with
    equal signatures behave identically on any block
    (translation-invariance in the cycle; the fuel check is re-tested
    on every hit). *)
let signature s id =
  let c = s.timing in
  let key = s.key in
  let np = c.T.n_pending in
  if
    c.T.slots > max_field || c.T.cslots > max_field
    || c.T.mem_free > max_field || np > max_pending
  then -1
  else begin
    key.(0) <- id;
    (* membership is all the blocker's pending scan reads, so the
       sorted entries are canonical *)
    for i = 0 to np - 1 do
      insert_sorted key 2 i c.T.pending.(i)
    done;
    (* Prune the write log to live, distinct writes (in place). *)
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
    if !live > max_inflight then -1
    else begin
      let base = 2 + np in
      let fits = ref true in
      for i = 0 to !live - 1 do
        let w = c.T.written.(i) in
        let p = w lsr 1 in
        let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
        let residue = ready - c.T.cycle in
        if residue > max_residue then fits := false
        else insert_sorted key base i ((w lsl 8) lor residue)
      done;
      if not !fits then -1
      else begin
        key.(1) <-
          c.T.slots lor (c.T.cslots lsl 8) lor (c.T.mem_free lsl 16)
          lor (np lsl 24) lor (!live lsl 32);
        base + !live
      end
    end
  end

let apply_memo s (a : int array) v =
  let c = s.timing in
  let st = c.T.stats in
  add_stats st a (v + v_dcycles);
  c.T.slots <- a.(v + v_slots);
  c.T.cslots <- a.(v + v_cslots);
  c.T.mem_free <- a.(v + v_mem_free);
  let np = a.(v + v_npending) in
  if a.(v + v_dcycles) > 0 then c.T.n_pending <- 0;
  for i = 0 to np - 1 do
    T.add_pending c a.(v + v_lists + i)
  done;
  c.T.cycle <- st.T.cycles;
  let w0 = v + v_lists + np in
  for i = 0 to a.(v + v_nwrites) - 1 do
    let w = a.(w0 + i) in
    let residue = w lsr 13 in
    let p = (w lsr 1) land 0xfff in
    if w land 1 = 0 then c.T.iready.(p) <- c.T.cycle + residue
    else c.T.fready.(p) <- c.T.cycle + residue;
    T.log_write c (w land 0x1fff)
  done

let[@inline] bump_hit = function
  | None -> ()
  | Some m -> m.m_hits <- m.m_hits + 1

let[@inline] bump_fallback = function
  | None -> ()
  | Some m -> m.m_fallbacks <- m.m_fallbacks + 1

(* Replay the visit per-entry while measuring its effect, then file the
   effect under the [k]-int key in [s.key] (hash [h]) at free slot [j].
   An effect that does not fit the packed forms is simply not filed
   (the visit already ran exactly). *)
let record_block s (m : Memo.t) ~j ~k ~h stats b =
  let c = s.timing in
  let st = c.T.stats in
  stats_into st s.snap;
  let pend0 = c.T.n_pending in
  let mark = c.T.n_written in
  run_block s b;
  (* scoreboard writes still in flight at exit, deduped to the final
     (= current) readiness per register; the marked span of the log is
     compacted to them *)
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  let nw = ref 0 and fits = ref true in
  for i = mark to c.T.n_written - 1 do
    let w = c.T.written.(i) in
    let p = w lsr 1 in
    let stamps = if w land 1 = 0 then s.istamp else s.fstamp in
    if stamps.(p) <> stamp then begin
      stamps.(p) <- stamp;
      let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
      if ready > c.T.cycle then begin
        if ready - c.T.cycle > max_residue || p > 0xfff then fits := false;
        c.T.written.(mark + !nw) <- w;
        incr nw
      end
    end
  done;
  c.T.n_written <- mark + !nw;
  if not !fits then bump_fallback stats
  else begin
    stats_into st s.now;
    let dcycles = s.now.(0) - s.snap.(0) in
    let np = if dcycles > 0 then c.T.n_pending else c.T.n_pending - pend0 in
    let v = 2 + k in
    let a = Array.make (v + v_lists + np + !nw) 0 in
    a.(0) <- h;
    a.(1) <- k;
    Array.blit s.key 0 a 2 k;
    for i = 0 to 14 do
      a.(v + v_dcycles + i) <- s.now.(i) - s.snap.(i)
    done;
    a.(v + v_slots) <- c.T.slots;
    a.(v + v_cslots) <- c.T.cslots;
    a.(v + v_mem_free) <- c.T.mem_free;
    a.(v + v_npending) <- np;
    a.(v + v_nwrites) <- !nw;
    Array.blit c.T.pending (c.T.n_pending - np) a (v + v_lists) np;
    for i = 0 to !nw - 1 do
      let w = c.T.written.(mark + i) in
      let p = w lsr 1 in
      let ready = if w land 1 = 0 then c.T.iready.(p) else c.T.fready.(p) in
      a.(v + v_lists + np + i) <- ((ready - c.T.cycle) lsl 13) lor w
    done;
    Memo.add m j a;
    match stats with None -> () | Some ms -> ms.m_misses <- ms.m_misses + 1
  end

(** Advance one state over one block visit: probe the memo when the
    block is memoisable and the signature fits, fall back to the exact
    per-entry loop otherwise.  [can_memo] is false for blocks containing
    [halt], which flips [halted] — state the signature deliberately
    omits. *)
let block_step s ~can_memo stats (b : Dtrace.block) =
  let c = s.timing in
  if c.T.halted then () (* a no-op once halted, as execution ignores it *)
  else
    match s.memo with
    | None -> run_block s b
    | Some m ->
        let k = if can_memo then signature s b.Dtrace.id else -1 in
        if k < 0 then begin
          bump_fallback stats;
          run_block s b
        end
        else begin
          let h = Memo.hash s.key k in
          let j = Memo.find m s.key k h in
          if j < 0 then record_block s m ~j:(-1 - j) ~k ~h stats b
          else begin
            let e = m.Memo.slots.(j) and v = 2 + k in
            if c.T.stats.T.cycles + e.(v + v_dcycles) < c.T.fuel then begin
              bump_hit stats;
              apply_memo s e v
            end
            else begin
              (* the memoised effect would cross the fuel limit: re-run
                 per-entry so the failure fires at the exact cycle *)
              bump_fallback stats;
              run_block s b
            end
          end
        end

(** Re-time one trace under K configurations in a single pass: the
    token stream is decoded block by block exactly once, and every
    state advances over each block before the next is decoded.  With
    [memo] on (the default), each state keeps a block timing memo, so
    repeated visits to a hot block in an already-seen timing state cost
    one probe instead of a per-instruction blocker sequence —
    bit-identical to the memo-off path by construction, enforced
    field-by-field in [test/t_memo.ml].  [stats] accumulates the memo
    counters.  The caller guarantees [tr] was recorded from [image]
    under semantic knobs matching {e all} of [cfgs]; their timing knobs
    are free.
    @raise Machine.Simulation_error on fuel exhaustion or a trace that
    ends before [halt]. *)
let replay_states ?stats states (tr : Dtrace.t) =
  (* Architectural operands do not depend on latency, so any state's
     predecode serves the cursor. *)
  let pre0 = states.(0).pre in
  let bc = Dtrace.bcursor (Dtrace.arch_of_dins pre0) tr in
  let k = Array.length states in
  while Dtrace.bidx bc < tr.Dtrace.n do
    let b = Dtrace.next_block bc in
    (* execution stops at [halt], so only a block's last entry can be
       one (opcodes are config-independent) *)
    let can_memo =
      match pre0.(b.Dtrace.start + b.Dtrace.len - 1).Dins.op with
      | Opcode.Halt -> false
      | _ -> true
    in
    for j = 0 to k - 1 do
      block_step states.(j) ~can_memo stats b
    done
  done;
  (match stats with
  | None -> ()
  | Some ms ->
      Array.iter
        (fun s ->
          match s.memo with
          | None -> ()
          | Some m -> ms.m_bytes <- ms.m_bytes + Memo.bytes m)
        states);
  let output = Dtrace.output tr in
  Array.map
    (fun s ->
      if not s.timing.T.halted then
        raise (Machine.Simulation_error "replay: trace exhausted before halt");
      T.result s.timing ~output ~checksum:tr.Dtrace.checksum)
    states

let replay_batch ?(memo = true) ?stats (cfgs : Config.t array)
    (image : Image.t) (tr : Dtrace.t) =
  if Array.length cfgs = 0 then
    invalid_arg "Trace_replay.replay_batch: no configurations";
  replay_states ?stats (Array.map (fun cfg -> state_of ~memo cfg image) cfgs) tr

let replay ?memo ?stats (cfg : Config.t) (image : Image.t) (tr : Dtrace.t) =
  (replay_batch ?memo ?stats [| cfg |] image tr).(0)

type memo = Memo.t

let replay_memo ?stats (cfg : Config.t) (image : Image.t) (tr : Dtrace.t) =
  let s = state_of cfg image in
  let r = (replay_states ?stats [| s |] tr).(0) in
  (r, Option.get s.memo)
