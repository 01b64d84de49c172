(** The execution-driven simulator: functional execution of
    architectural-form machine code, timed by the in-order superscalar
    timing core {!Timing}.

    Each cycle, instructions issue in program order until the issue rate
    is reached or an instruction cannot issue because:

    - a source or destination physical register is still being produced
      (CRAY-1-style interlock; results become ready [latency] cycles
      after issue);
    - no memory channel is free this cycle;
    - with 1-cycle connect latency, the instruction's mapping-table
      entries were updated by a connect issued this same cycle (the
      zero-cycle implementation forwards through dispatch instead,
      section 2.4, and never stalls for this reason);
    - a mispredicted branch redirects fetch and pays the front-end
      penalty.

    Register accesses go through the register mapping table whenever the
    PSW map-enable flag is set; [jsr]/[rts] reset the table to home
    (section 4.1); traps clear map-enable so handlers address core
    registers directly (section 4.3).

    The machine itself holds only functional state.  Everything that
    decides {e when} an instruction issues lives in {!Timing}, which the
    trace-replay engine ({!Trace_replay}) drives with the same per-
    instruction facts, so replay times exactly as execution does. *)

open Rc_isa

exception Simulation_error of string

(** Per-cycle observation delivered to an attached observer: the slots
    issued and lost during one {!run_cycle} (a mispredicted branch's
    redirect bubbles are folded into the sample of the cycle that
    issued it, so [s_cycles > 1] there). *)
type cycle_sample = {
  s_cycle : int;  (** index of the first cycle covered by the sample *)
  s_cycles : int;  (** cycles covered: 1 + any redirect bubbles *)
  s_pc : int;  (** pc at the start of the cycle *)
  s_issued : int;  (** instructions issued, connects included *)
  s_connects : int;
  s_lost_data : int;
  s_lost_map : int;
  s_lost_channel : int;
  s_lost_branch : int;
  s_lost_fetch : int;
}

type result = {
  cycles : int;
  issued : int;
  connects : int;
  extra_connects : int;
  mem_ops : int;
  branches : int;
  mispredicts : int;
  data_stalls : int;
  map_stalls : int;
  channel_stalls : int;
  lost_data : int;
  lost_map : int;
  lost_channel : int;
  lost_branch : int;
  lost_fetch : int;
  output : int64 list;
  checksum : int64;
}

(** Sum of the five slot-attribution counters. *)
val lost_slots : result -> int

(** The accounting identity the attribution maintains on every
    configuration: [cycles * issue = (issued - extra_connects) +
    lost_slots].  Connects dispatched through the extra budget do not
    consume issue slots and are excluded. *)
val slot_invariant_holds : issue:int -> result -> bool

(** Same fold as {!Rc_interp.Interp.checksum_of_output}. *)
val checksum_of_output : int64 list -> int64

(** The timing core: the scoreboard, the per-cycle issue resources, the
    stall and slot counters, and the rules that move them — the blocker
    order, each opcode's timing effects, and the end-of-cycle slot
    charging with the fuel check (DESIGN.md §14).  It is fed one dynamic
    instruction at a time: the predecoded instruction plus the facts
    execution resolved for it (physical operands, map-enable bit,
    branch outcome), which are exactly what a {!Dtrace} entry records.
    {!run_cycle} drives it from live execution; trace replay drives it
    through {!admit_run}. *)
module Timing : sig
  type stats = {
    mutable cycles : int;
    mutable issued : int;  (** dynamic instructions, connects included *)
    mutable connects : int;
    mutable extra_connects : int;
        (** connects dispatched through the extra connect budget — they
            do not consume regular issue slots (section 2.4) *)
    mutable mem_ops : int;
    mutable branches : int;
    mutable mispredicts : int;
    mutable data_stalls : int;  (** group-ending operand-not-ready events *)
    mutable map_stalls : int;  (** 1-cycle-connect same-group conflicts *)
    mutable channel_stalls : int;
    mutable lost_data : int;  (** slots lost to operand interlock *)
    mutable lost_map : int;
        (** slots lost to mapping-table conflicts / connect budget *)
    mutable lost_channel : int;  (** slots lost to busy memory channels *)
    mutable lost_branch : int;
        (** slots lost to control redirects (mispredict, trap, rfe),
            redirect bubbles included *)
    mutable lost_fetch : int;  (** slots lost to fetch exhaustion (halt) *)
  }

  type t = {
    stats : stats;
    iready : int array;  (** cycle each integer physical register is ready *)
    fready : int array;
    mutable slots : int;  (** issue slots left in the open cycle *)
    mutable cslots : int;  (** extra connect-dispatch slots left *)
    mutable mem_free : int;  (** memory channels left *)
    mutable pending : int array;
        (** map entries touched by connects issued this cycle (1-cycle
            connects only), in issue order, each packed as one int
            [(index lsl 2) lor (map lsl 1) lor class] (map 0 read, 1
            write; class 0 integer, 1 FP); only
            [pending.(0 .. n_pending - 1)] is meaningful *)
    mutable n_pending : int;
    mutable cycle : int;  (** [stats.cycles] when the open cycle began *)
    mutable halted : bool;
    issue : int;  (** issue slots, and connect-dispatch slots, per cycle *)
    channels : int;
    connect_lat : int;
    penalty : int;
    fuel : int;
    log_writes : bool;
    mutable written : int array;
        (** when [log_writes]: every scoreboard write since the log was
            last trimmed, packed [(preg lsl 1) lor class] (0 integer, 1
            float), duplicates included — what the replay memo
            (DESIGN.md §18) scans instead of the register files *)
    mutable n_written : int;
  }

  (** A fresh core at cycle 0 for a configuration's timing knobs.
      [log_writes] (default false) keeps {!field-written}. *)
  val create : ?log_writes:bool -> Config.t -> t

  (** Append one packed entry to the write log. *)
  val log_write : t -> int -> unit

  (** Append one packed map entry to {!field-pending}. *)
  val add_pending : t -> int -> unit

  (** Issue the instructions at pcs [first .. last] in turn, each in
      the first cycle that can take it, closing the cycles before it,
      and apply their opcodes' timing effects; a no-op once halted.
      These are the straight-line entries of one trace block: all with
      map-enable bit [map_on], resolved physical operands
      [sp0.(pc)]/[sp1.(pc)]/[dp.(pc)] ([-1] when absent), and [taken]
      the outcome of the last one (the others fall through).
      @raise Simulation_error when the clock reaches the configured fuel
      before [halt]. *)
  val admit_run :
    t ->
    Dins.t array ->
    first:int ->
    last:int ->
    map_on:bool ->
    sp0:int array ->
    sp1:int array ->
    dp:int array ->
    taken:bool ->
    unit

  (** The counters as a {!result}. *)
  val result : t -> output:int64 list -> checksum:int64 -> result
end

type t = {
  cfg : Config.t;
  image : Image.t;
  pre : Dins.t array;
      (** [image.code] predecoded once under [cfg.lat] (see
          {!Rc_isa.Dins}): the issue loop reads flat scalar fields
          instead of re-matching [Insn.t] and allocating per operand *)
  iregs : Bytes.t;
      (** one 8-byte little-endian slot per physical register (the
          layout of {!Rc_isa.Opcode.get_reg}), so the issue loop moves
          integer values without boxing them *)
  fregs : float array;
  imap : Rc_core.Map_table.t;
  fmap : Rc_core.Map_table.t;
  psw : Rc_core.Psw.t;
  mem : Bytes.t;
  mutable pc : int;
  mutable out : int64 array;
      (** the output stream, a growable buffer in emission order; only
          [out.(0 .. out_len - 1)] is meaningful *)
  mutable out_len : int;
  timing : Timing.t;  (** when each instruction issues; [halted] *)
  mutable epc : int;
  mutable saved_psw : Rc_core.Psw.t option;
  mutable pending_interrupt : bool;
  mutable observer : (cycle_sample -> unit) option;
      (** when set, called once per {!run_cycle} with that cycle's slot
          accounting; [None] (the default) costs one untaken branch per
          cycle *)
  mutable recorder : Dtrace.builder option;
      (** when set, every issued instruction appends its resolved
          operands and branch outcome to the builder (see
          {!Rc_machine.Dtrace}); [None] (the default) costs one untaken
          branch per issued instruction *)
}

(** A fresh machine with data initialised, SP at the stack top and PC at
    the image entry. *)
val create : Config.t -> Image.t -> t

(** The register-state view used by {!Rc_core.Context} for context
    switching. *)
val context_view : t -> Rc_core.Context.machine_view

(** Request an external interrupt; taken at the next cycle boundary. *)
val inject_interrupt : t -> unit

(** Attach (or clear) the per-cycle observer. *)
val set_observer : t -> (cycle_sample -> unit) option -> unit

(** Attach (or clear) the dynamic-trace recorder (see {!Dtrace}).  The
    caller must have established {!Dtrace.fits} for this machine's code
    length and register files: the recording path performs no range
    checks. *)
val set_recorder : t -> Dtrace.builder option -> unit

(** The emitted stream so far, in emission order. *)
val output_list : t -> int64 list

(** Simulate one cycle (issue one in-order group).
    @raise Simulation_error on bad addresses, PC escapes, or when the
    cycle exhausts the configured fuel. *)
val run_cycle : t -> unit

(** Run until [Halt].
    @raise Simulation_error on bad addresses, PC escapes or fuel
    exhaustion. *)
val run_machine : t -> result

(** [create] followed by [run_machine]. *)
val run : Config.t -> Image.t -> result
