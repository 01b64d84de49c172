(** The trace-replay engine: record the dynamic instruction stream
    once, then re-time it under any configuration whose semantic knobs
    match.  Each recorded entry is fed to the same timing core
    ({!Machine.Timing}) execution uses, so the {!Machine.result} is
    exact by construction.  Replay is entry-driven, so {!replay_batch}
    decodes the compact trace once while K independent cores consume it
    block by block, each with a block timing memo on its state.  See
    DESIGN.md §14 for the trace format and safety conditions, §18 for
    the memo. *)

open Rc_isa

(** Execute the image with a recorder attached: the ordinary
    execution-driven result plus the finished trace, or [None] when the
    run hit an unreplayable event — a trap, [rfe] or injected interrupt,
    which redirect control in ways the pure timing replayer does not
    model — or the shape cannot fit the packed layout ({!Dtrace.fits},
    checked once up front). *)
val record : Config.t -> Image.t -> Machine.result * Dtrace.t option

(** Cumulative block-timing-memo counters (DESIGN.md §18): each
    memoisable-block visit lands in exactly one of [m_hits] (served by
    a memo probe), [m_misses] (replayed per-entry and recorded into the
    memo) or [m_fallbacks] (replayed per-entry because the visit was
    ineligible — halting block, fuel boundary, or signature/effect
    overflow); [m_bytes] adds the exact heap size of each memo table
    at the end of its replay call.  Pass one record to several replay
    calls to aggregate. *)
type memo_stats = {
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_fallbacks : int;
  mutable m_bytes : int;
}

(** A fresh all-zero counter record. *)
val memo_stats : unit -> memo_stats

(** Re-time [trace] under a configuration.  The caller guarantees the
    trace was recorded from this image under matching semantic knobs
    (reset model, register-file shapes, no traps); timing knobs — issue
    rate, channels, latencies, extra stage, connect dispatch — are free.
    [memo] (default true) enables the block timing memo: repeated
    visits to a basic block in an already-seen timing state are served
    by one probe instead of the per-instruction blocker loop, with an
    exact per-entry fallback whenever a visit does not fit the memo —
    results are bit-identical either way.  [stats]
    accumulates the memo counters.
    @raise Machine.Simulation_error on fuel exhaustion or a trace that
    ends before [halt]. *)
val replay :
  ?memo:bool ->
  ?stats:memo_stats ->
  Config.t ->
  Image.t ->
  Dtrace.t ->
  Machine.result

(** [replay_batch cfgs image trace] re-times [trace] under every
    configuration of [cfgs] in one pass over the trace: the token
    stream is decoded once, and every block advances all K timing
    states before the next is decoded.  Equivalent to
    [Array.map (fun c -> replay c image trace) cfgs] — bit-identical
    results, enforced by [test/t_replay.ml] — at roughly the decode
    cost of a single replay.  [memo]/[stats] as {!replay}; each state
    keeps its own memo (timing effects are per-configuration).
    @raise Invalid_argument on an empty configuration array.
    @raise Machine.Simulation_error as {!replay}. *)
val replay_batch :
  ?memo:bool ->
  ?stats:memo_stats ->
  Config.t array ->
  Image.t ->
  Dtrace.t ->
  Machine.result array

(** The memo table of one replay state. *)
type memo

(** Test hook: {!replay} with the memo on, returning the state's memo
    table as it stands at the end, for checking [m_bytes] against the
    runtime's own count of its heap words. *)
val replay_memo :
  ?stats:memo_stats -> Config.t -> Image.t -> Dtrace.t -> Machine.result * memo
