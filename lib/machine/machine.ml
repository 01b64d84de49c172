(** The execution-driven simulator: functional execution of architectural
    form machine code, timed by the in-order superscalar timing core
    {!Timing} — the one the trace-replay engine also drives.

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
    - a mispredicted conditional branch, a trap or an [rfe] ends the
      issue group; the mispredict also pays the front-end redirect
      penalty (one more cycle with the extra RC pipeline stage).

    Register accesses go through the register mapping table whenever the
    PSW map-enable flag is set; [jsr]/[rts] reset the table to home
    (section 4.1); traps clear map-enable so handlers address core
    registers directly (section 4.3). *)

open Rc_isa
open Rc_core

exception Simulation_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Simulation_error s)) fmt

(** Per-cycle observation delivered to an attached observer: the slots
    issued and lost during one {!run_cycle} (a mispredicted branch's
    redirect bubbles are folded into the sample of the cycle that issued
    it). *)
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

let lost_slots r =
  r.lost_data + r.lost_map + r.lost_channel + r.lost_branch + r.lost_fetch

(** The accounting identity the attribution maintains:
    [cycles * issue = slot-consuming issues + every lost slot].
    Connects dispatched through the extra budget do not consume issue
    slots and are excluded from the left-hand total. *)
let slot_invariant_holds ~issue r =
  (r.cycles * issue) = r.issued - r.extra_connects + lost_slots r

let checksum_of_output output =
  List.fold_left
    (fun acc v -> Int64.add (Int64.mul acc 1000003L) v)
    0x9E3779B9L output

(* --- the timing core ------------------------------------------------------ *)

(* Everything that decides when an instruction issues, and nothing that
   decides what it computes.  Execution ([run_cycle] below) and trace
   replay ([Trace_replay]) both feed it the same facts per dynamic
   instruction — the predecoded instruction, its resolved physical
   operands, the map-enable bit and the branch outcome — so they time
   identically by construction.  The per-instruction functions are
   [@inline] and closure-free so the execute loop, in this compilation
   unit, compiles them in place even under [-opaque]. *)
module Timing = struct
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
    (* Slot-level stall attribution: every issue slot a cycle leaves
       unused is charged to exactly one reason, maintaining
       [cycles * issue = (issued - extra_connects) + sum of lost_*]. *)
    mutable lost_data : int;  (** operand interlock *)
    mutable lost_map : int;  (** mapping-table conflict / connect budget *)
    mutable lost_channel : int;  (** memory channel busy *)
    mutable lost_branch : int;  (** control redirect (mispredict, trap, rfe) *)
    mutable lost_fetch : int;  (** fetch exhausted (halt) *)
  }

  (* Why an issue group ends — [Ready] when it does not.  [Full] (issue
     slots used up) counts no stall; [Redirect] (mispredict, trap, rfe)
     and [Fetch] (halt) end a group after an instruction issued. *)
  type cause = Ready | Full | Map | Channel | Data | Redirect | Fetch

  type t = {
    stats : stats;
    iready : int array;  (** cycle each integer physical register is ready *)
    fready : int array;
    mutable slots : int;  (** issue slots left in the open cycle *)
    mutable cslots : int;  (** extra connect-dispatch slots left *)
    mutable mem_free : int;  (** memory channels left *)
    mutable pending : int array;
        (** map entries touched by connects issued this cycle, packed by
            [pending_key], in issue order; only [pending.(0 ..
            n_pending - 1)] is meaningful *)
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
    mutable n_written : int;
  }

  let create ?(log_writes = false) (cfg : Config.t) =
    {
      stats =
        {
          cycles = 0;
          issued = 0;
          connects = 0;
          extra_connects = 0;
          mem_ops = 0;
          branches = 0;
          mispredicts = 0;
          data_stalls = 0;
          map_stalls = 0;
          channel_stalls = 0;
          lost_data = 0;
          lost_map = 0;
          lost_channel = 0;
          lost_branch = 0;
          lost_fetch = 0;
        };
      iready = Array.make cfg.Config.ifile.Reg.total 0;
      fready = Array.make cfg.Config.ffile.Reg.total 0;
      slots = cfg.Config.issue;
      cslots = cfg.Config.issue;
      mem_free = cfg.Config.mem_channels;
      pending = Array.make 8 0;
      n_pending = 0;
      cycle = 0;
      halted = false;
      issue = cfg.Config.issue;
      channels = cfg.Config.mem_channels;
      connect_lat = cfg.Config.lat.Latency.connect;
      penalty = Config.mispredict_penalty cfg;
      fuel = cfg.Config.fuel;
      log_writes;
      written = [||];
      n_written = 0;
    }

  let[@inline never] grow_log c =
    let a = Array.make (max 64 (2 * c.n_written)) 0 in
    Array.blit c.written 0 a 0 c.n_written;
    c.written <- a

  let[@inline] log_write c w =
    if c.n_written = Array.length c.written then grow_log c;
    c.written.(c.n_written) <- w;
    c.n_written <- c.n_written + 1

  (* A scoreboard write: physical register [p] of [cls] is ready at
     [at]. *)
  let[@inline] ready_at c (cls : Reg.cls) p at =
    match cls with
    | Reg.Int ->
        c.iready.(p) <- at;
        if c.log_writes then log_write c (p lsl 1)
    | Reg.Float ->
        c.fready.(p) <- at;
        if c.log_writes then log_write c ((p lsl 1) lor 1)

  let[@inline] reg_ready c (cls : Reg.cls) p =
    match cls with
    | Reg.Int -> c.iready.(p) <= c.cycle
    | Reg.Float -> c.fready.(p) <= c.cycle

  (* An architectural map entry as one int: its index, then the map
     (read 0, write 1), then the class (integer 0, FP 1). *)
  let[@inline] pending_key (cls : Reg.cls) (kind : Insn.map_kind) r =
    (r lsl 2)
    lor (match kind with Insn.Read -> 0 | Insn.Write -> 2)
    lor match cls with Reg.Int -> 0 | Reg.Float -> 1

  let[@inline never] grow_pending c =
    let a = Array.make (2 * Array.length c.pending) 0 in
    Array.blit c.pending 0 a 0 c.n_pending;
    c.pending <- a

  let[@inline] add_pending c key =
    if c.n_pending = Array.length c.pending then grow_pending c;
    c.pending.(c.n_pending) <- key;
    c.n_pending <- c.n_pending + 1

  (* The 1-cycle-connect conflict scan over this cycle's map entries. *)
  let rec pending_from c key i =
    i < c.n_pending && (c.pending.(i) = key || pending_from c key (i + 1))

  let src_blocked c (d : Dins.t) =
    (d.Dins.nsrcs > 0
    && pending_from c (pending_key d.Dins.s0c Insn.Read d.Dins.s0) 0)
    || (d.Dins.nsrcs > 1
       && pending_from c (pending_key d.Dins.s1c Insn.Read d.Dins.s1) 0)
    || (d.Dins.d >= 0
       && pending_from c (pending_key d.Dins.dc Insn.Write d.Dins.d) 0)

  (* The blocker order.  A group that fills up closes at once
     ([issue]), so an open cycle always has a slot or a connect slot
     left and "group full" needs no check here. *)
  let[@inline] blocker c (d : Dins.t) ~map_on ~sp0 ~sp1 ~dp =
    if
      c.connect_lat > 0 && map_on && c.n_pending > 0 && src_blocked c d
    then Map
    else if d.Dins.is_mem && c.mem_free <= 0 then Channel
    else if d.Dins.is_connect && c.cslots <= 0 then Map
    else if (not d.Dins.is_connect) && c.slots <= 0 then Full
    else if
      (d.Dins.nsrcs < 1 || reg_ready c d.Dins.s0c sp0)
      && (d.Dins.nsrcs < 2 || reg_ready c d.Dins.s1c sp1)
      && (d.Dins.d < 0 || reg_ready c d.Dins.dc dp)
    then Ready
    else Data

  (* End the open cycle: count its stall, charge its unused issue slots
     to exactly one [lost_*] counter, advance the clock, check the fuel
     (the only fuel check) and reset the per-cycle resources. *)
  let close c cause =
    let st = c.stats in
    (match cause with
    | Data -> st.data_stalls <- st.data_stalls + 1
    | Map -> st.map_stalls <- st.map_stalls + 1
    | Channel -> st.channel_stalls <- st.channel_stalls + 1
    | Ready | Full | Redirect | Fetch -> ());
    (* A cycle that ends with its issue slots used up charges nothing;
       an already-halted machine charges its whole cycle to fetch. *)
    let lost = c.slots in
    if lost > 0 then begin
      match cause with
      | Data -> st.lost_data <- st.lost_data + lost
      | Map -> st.lost_map <- st.lost_map + lost
      | Channel -> st.lost_channel <- st.lost_channel + lost
      | Redirect -> st.lost_branch <- st.lost_branch + lost
      | Ready | Full | Fetch -> st.lost_fetch <- st.lost_fetch + lost
    end;
    st.cycles <- st.cycles + 1;
    if (not c.halted) && st.cycles >= c.fuel then
      fail "out of fuel after %d cycles" st.cycles;
    c.slots <- c.issue;
    c.cslots <- c.issue;
    c.mem_free <- c.channels;
    c.n_pending <- 0;
    c.cycle <- st.cycles

  (* Issue [d], which [blocker] admitted, and apply its opcode's timing
     effects; true when that closed the cycle (the group ended or
     filled up). *)
  let[@inline] issue c (d : Dins.t) ~map_on ~dp ~taken =
    let st = c.stats in
    if d.Dins.is_connect then begin
      c.cslots <- c.cslots - 1;
      st.extra_connects <- st.extra_connects + 1
    end
    else c.slots <- c.slots - 1;
    st.issued <- st.issued + 1;
    if d.Dins.is_mem then begin
      c.mem_free <- c.mem_free - 1;
      st.mem_ops <- st.mem_ops + 1
    end;
    let done_at = c.cycle + d.Dins.lat in
    let ends =
      match d.Dins.op with
      | Opcode.Alu _ | Opcode.Alui _ | Opcode.Li | Opcode.Move | Opcode.Ftoi
      | Opcode.Fcmp _ | Opcode.Ld _ | Opcode.Mfmap _ ->
          (* the hardwired zero is never written *)
          if dp <> Reg.zero then ready_at c Reg.Int dp done_at;
          Ready
      | Opcode.Fli | Opcode.Fmove | Opcode.Fpu _ | Opcode.Itof | Opcode.Fld ->
          ready_at c Reg.Float dp done_at;
          Ready
      | Opcode.St _ | Opcode.Fst | Opcode.Emit | Opcode.Femit | Opcode.Mapen
      | Opcode.Mtmap _ | Opcode.Nop ->
          Ready
      (* The front end follows correctly predicted control transfers
         within an issue group ("all combinations of instruction
         patterns are allowed to be executed in parallel", section 5.2);
         a misprediction redirects fetch and pays the front-end
         penalty, whose bubbles issue nothing. *)
      | Opcode.Br _ ->
          st.branches <- st.branches + 1;
          if taken <> d.Dins.hint then begin
            st.mispredicts <- st.mispredicts + 1;
            st.cycles <- st.cycles + c.penalty;
            st.lost_branch <- st.lost_branch + (c.penalty * c.issue);
            Redirect
          end
          else Ready
      | Opcode.Jmp | Opcode.Rts ->
          st.branches <- st.branches + 1;
          Ready
      | Opcode.Jsr ->
          st.branches <- st.branches + 1;
          (* RA is written at its home location: the map was just
             reset *)
          ready_at c Reg.Int Reg.ra done_at;
          Ready
      | Opcode.Connect ->
          st.connects <- st.connects + 1;
          if map_on && c.connect_lat > 0 then
            for i = 0 to Array.length d.Dins.connects - 1 do
              let x = d.Dins.connects.(i) in
              add_pending c (pending_key x.Insn.ccls x.Insn.cmap x.Insn.ri)
            done;
          Ready
      | Opcode.Trap | Opcode.Rfe -> Redirect
      | Opcode.Halt ->
          c.halted <- true;
          Fetch
    in
    match ends with
    | Ready ->
        if c.slots <= 0 && c.cslots <= 0 then begin
          close c Full;
          true
        end
        else false
    | cause ->
        close c cause;
        true

  (* The entry-driven form trace replay uses, over the straight-line
     entries at pcs [first .. last]: for each, close cycles until it
     can issue, then issue it.  The loop lives in this unit so that
     [blocker] and [issue] compile in place for each entry. *)
  let admit_run c (pre : Dins.t array) ~first ~last ~map_on ~sp0 ~sp1 ~dp
      ~taken =
    for pc = first to last do
      if not c.halted then begin
        let d = pre.(pc) in
        let s0 = sp0.(pc) and s1 = sp1.(pc) and p = dp.(pc) in
        let blocked = ref true in
        while !blocked do
          match blocker c d ~map_on ~sp0:s0 ~sp1:s1 ~dp:p with
          | Ready -> blocked := false
          | cause -> close c cause
        done;
        ignore (issue c d ~map_on ~dp:p ~taken:(taken && pc = last) : bool)
      end
    done

  let result c ~output ~checksum : result =
    let st = c.stats in
    {
      cycles = st.cycles;
      issued = st.issued;
      connects = st.connects;
      extra_connects = st.extra_connects;
      mem_ops = st.mem_ops;
      branches = st.branches;
      mispredicts = st.mispredicts;
      data_stalls = st.data_stalls;
      map_stalls = st.map_stalls;
      channel_stalls = st.channel_stalls;
      lost_data = st.lost_data;
      lost_map = st.lost_map;
      lost_channel = st.lost_channel;
      lost_branch = st.lost_branch;
      lost_fetch = st.lost_fetch;
      output;
      checksum;
    }
end

(* --- the functional machine ---------------------------------------------- *)

type t = {
  cfg : Config.t;
  image : Image.t;
  pre : Dins.t array;
      (** [image.code] predecoded once under [cfg.lat] (see {!Rc_isa.Dins}) *)
  iregs : Bytes.t;
      (** one 8-byte little-endian slot per physical register
          ({!Rc_isa.Opcode.get_reg}'s layout), so values stay unboxed *)
  fregs : float array;
  imap : Map_table.t;
  fmap : Map_table.t;
  psw : Psw.t;
  mem : Bytes.t;
  mutable pc : int;
  (* The output stream, a growable buffer in emission order (an [Emit]
     appends at [out_len]; no final reversal). *)
  mutable out : int64 array;
  mutable out_len : int;
  timing : Timing.t;
  (* trap state *)
  mutable epc : int;
  mutable saved_psw : Psw.t option;
  mutable pending_interrupt : bool;
  mutable observer : (cycle_sample -> unit) option;
      (** when set, called once per {!run_cycle} with that cycle's slot
          accounting; [None] costs one untaken branch per cycle *)
  mutable recorder : Dtrace.builder option;
      (** when set, every issued instruction appends its resolved
          operands and branch outcome; [None] costs one untaken branch
          per issued instruction *)
}

let create (cfg : Config.t) (image : Image.t) =
  let mem = Bytes.make image.Image.mem_size '\000' in
  List.iter (fun (addr, init) -> Image.write_init mem addr init) image.Image.data_image;
  let t =
    {
      cfg;
      image;
      pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
      iregs = Bytes.make (8 * cfg.ifile.Reg.total) '\000';
      fregs = Array.make cfg.ffile.Reg.total 0.0;
      imap = Map_table.create ~model:cfg.model cfg.ifile;
      fmap = Map_table.create ~model:cfg.model cfg.ffile;
      psw = Psw.create ();
      mem;
      pc = image.Image.entry;
      out = [||];
      out_len = 0;
      timing = Timing.create cfg;
      epc = 0;
      saved_psw = None;
      pending_interrupt = false;
      observer = None;
      recorder = None;
    }
  in
  Opcode.set_reg t.iregs Reg.sp (Int64.of_int image.Image.stack_top);
  t

let context_view t =
  {
    Context.iregs = t.iregs;
    fregs = t.fregs;
    imap = t.imap;
    fmap = t.fmap;
    psw = t.psw;
  }

(* --- register access through the mapping table ------------------------ *)

(* [map_on] is the PSW map-enable flag read once per instruction: when
   it is clear the architectural index IS the physical register and the
   [Map_table] indirection is skipped entirely (the hoisted fast path).
   When it is set, the maps are read in place: a call into another
   module is not inlined under [-opaque]. *)

let[@inline] resolve_read t ~map_on (cls : Reg.cls) r =
  if not map_on then r
  else
    match cls with
    | Reg.Int -> t.imap.Map_table.read_map.(r)
    | Reg.Float -> t.fmap.Map_table.read_map.(r)

let[@inline] resolve_write t ~map_on (cls : Reg.cls) r =
  if not map_on then r
  else
    match cls with
    | Reg.Int -> t.imap.Map_table.write_map.(r)
    | Reg.Float -> t.fmap.Map_table.write_map.(r)

(* Only called when the map is enabled.  A table whose [moved] flag is
   clear has every entry home, where an automatic connection changes
   nothing under any model, so the call is skipped: code without
   connects never makes it. *)
let[@inline] note_write t (cls : Reg.cls) r =
  match cls with
  | Reg.Int -> if t.imap.Map_table.moved then Map_table.note_write t.imap r
  | Reg.Float -> if t.fmap.Map_table.moved then Map_table.note_write t.fmap r

(* [Opcode.get_reg]/[set_reg], repeated here so that they are inlined
   and the values they move stay unboxed. *)
let[@inline] get_i t p =
  if p = Reg.zero then 0L else Bytes.get_int64_le t.iregs (p lsl 3)

let[@inline] set_i t p v =
  if p <> Reg.zero then Bytes.set_int64_le t.iregs (p lsl 3) v

let[@inline] get_f t p = t.fregs.(p)

(* --- output stream ----------------------------------------------------- *)

let[@inline never] grow_out t =
  let cap = max 64 (2 * Array.length t.out) in
  let out = Array.make cap 0L in
  Array.blit t.out 0 out 0 t.out_len;
  t.out <- out

let[@inline] emit t v =
  if t.out_len = Array.length t.out then grow_out t;
  t.out.(t.out_len) <- v;
  t.out_len <- t.out_len + 1

(** The emitted stream so far, in emission order. *)
let output_list t = Array.to_list (Array.sub t.out 0 t.out_len)

(* --- memory ------------------------------------------------------------ *)

let[@inline] check_addr t a width =
  if a < 0 || a + width > Bytes.length t.mem then
    fail "bad address %d at pc %d" a t.pc

let[@inline] load_mem t width a =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.get_int64_le t.mem a
  | Opcode.W1 ->
      check_addr t a 1;
      Int64.of_int (Char.code (Bytes.get t.mem a))

let[@inline] store_mem t width a v =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.set_int64_le t.mem a v
  | Opcode.W1 ->
      check_addr t a 1;
      Bytes.set t.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

(* --- trap entry --------------------------------------------------------- *)

let handler_addr t =
  match t.cfg.Config.trap_handler with
  | Some name -> Image.function_address t.image name
  | None -> fail "trap with no handler configured"

let enter_trap t ~return_to =
  (* Trap entry changes control flow in a way the pure timing replayer
     does not model; a recording that sees one is not replayable. *)
  (match t.recorder with Some b -> Dtrace.invalidate b | None -> ());
  t.saved_psw <- Some (Psw.enter_trap t.psw);
  t.epc <- return_to;
  t.pc <- handler_addr t

(** Request an external interrupt; taken at the next cycle boundary. *)
let inject_interrupt t =
  (match t.recorder with Some b -> Dtrace.invalidate b | None -> ());
  t.pending_interrupt <- true

(** Attach (or clear) the per-cycle observer. *)
let set_observer t obs = t.observer <- obs

(** Attach (or clear) the dynamic-trace recorder. *)
let set_recorder t r = t.recorder <- r

(* --- one instruction ----------------------------------------------------- *)

(* Destination writes of the execute arms.  [dp] is the resolved
   physical destination, [-1] when the instruction has none; it is
   checked before the write, and the model's automatic connection
   (paper Figure 3) follows the write. *)

let[@inline] check_dst t dp =
  if dp < 0 then fail "missing destination at pc %d" t.pc

let[@inline] wrote t ~map_on (d : Dins.t) =
  if map_on then note_write t d.Dins.dc d.Dins.d

let[@inline] set_int t ~map_on (d : Dins.t) dp v =
  check_dst t dp;
  set_i t dp v;
  wrote t ~map_on d

let[@inline] set_float t ~map_on (d : Dins.t) dp v =
  check_dst t dp;
  t.fregs.(dp) <- v;
  wrote t ~map_on d

(* The functional half of one issued instruction: its register, memory,
   map, PSW and output effects.  Returns the next pc. *)
let[@inline] execute t (d : Dins.t) ~map_on ~sp0 ~sp1 ~dp ~taken =
  let pc = t.pc in
  let next_pc = ref (pc + 1) in
  (match d.Dins.op with
  | Opcode.Alu a ->
      check_dst t dp;
      Opcode.eval_alu_rf a t.iregs dp sp0 sp1;
      wrote t ~map_on d
  | Opcode.Alui a ->
      check_dst t dp;
      Opcode.eval_alui_rf a t.iregs dp sp0 d.Dins.imm;
      wrote t ~map_on d
  | Opcode.Li -> set_int t ~map_on d dp d.Dins.imm
  | Opcode.Move -> set_int t ~map_on d dp (get_i t sp0)
  | Opcode.Fli -> set_float t ~map_on d dp d.Dins.fimm
  | Opcode.Fmove -> set_float t ~map_on d dp (get_f t sp0)
  | Opcode.Fpu f ->
      (* [sp1] is -1 for the unary operations *)
      check_dst t dp;
      Opcode.eval_fpu_rf f t.fregs dp sp0 sp1;
      wrote t ~map_on d
  | Opcode.Itof -> set_float t ~map_on d dp (Int64.to_float (get_i t sp0))
  | Opcode.Ftoi -> set_int t ~map_on d dp (Int64.of_float (get_f t sp0))
  | Opcode.Fcmp c ->
      check_dst t dp;
      Opcode.eval_fcond_rf c t.fregs t.iregs dp sp0 sp1;
      wrote t ~map_on d
  | Opcode.Ld w ->
      let a = Int64.to_int (get_i t sp0) + Int64.to_int d.Dins.imm in
      set_int t ~map_on d dp (load_mem t w a)
  | Opcode.St w ->
      let a = Int64.to_int (get_i t sp1) + Int64.to_int d.Dins.imm in
      store_mem t w a (get_i t sp0)
  | Opcode.Fld ->
      let a = Int64.to_int (get_i t sp0) + Int64.to_int d.Dins.imm in
      set_float t ~map_on d dp (Int64.float_of_bits (load_mem t Opcode.W8 a))
  | Opcode.Fst ->
      let a = Int64.to_int (get_i t sp1) + Int64.to_int d.Dins.imm in
      store_mem t Opcode.W8 a (Int64.bits_of_float (get_f t sp0))
  | Opcode.Br _ -> if taken then next_pc := d.Dins.target
  | Opcode.Jmp -> next_pc := d.Dins.target
  | Opcode.Jsr ->
      (* Reset the map, then write RA to its home location (section
         4.1). *)
      Map_table.reset t.imap;
      Map_table.reset t.fmap;
      set_i t Reg.ra (Int64.of_int (pc + 1));
      next_pc := d.Dins.target
  | Opcode.Rts ->
      let ra = Int64.to_int (get_i t sp0) in
      Map_table.reset t.imap;
      Map_table.reset t.fmap;
      next_pc := ra
  | Opcode.Connect ->
      if map_on then
        for i = 0 to Array.length d.Dins.connects - 1 do
          let c = d.Dins.connects.(i) in
          match c.Insn.ccls with
          | Reg.Int -> Map_table.apply t.imap c
          | Reg.Float -> Map_table.apply t.fmap c
        done
  | Opcode.Emit -> emit t (get_i t sp0)
  | Opcode.Femit -> emit t (Int64.bits_of_float (get_f t sp0))
  | Opcode.Trap ->
      enter_trap t ~return_to:(pc + 1);
      next_pc := t.pc
  | Opcode.Rfe ->
      (match t.recorder with Some b -> Dtrace.invalidate b | None -> ());
      (match t.saved_psw with
      | Some saved ->
          Psw.return_from_exception t.psw ~saved;
          t.saved_psw <- None
      | None -> fail "rfe without saved PSW");
      next_pc := t.epc
  | Opcode.Mapen -> t.psw.Psw.map_enable <- not (Int64.equal d.Dins.imm 0L)
  (* Privileged map access (section 4.3): reads and writes the integer
     mapping table directly, regardless of the PSW map-enable flag, so
     handlers can save and restore connection state. *)
  | Opcode.Mfmap kind ->
      let idx = Int64.to_int d.Dins.imm in
      let v =
        match kind with
        | Opcode.Read -> Map_table.read t.imap idx
        | Opcode.Write -> Map_table.write t.imap idx
      in
      if dp < 0 then fail "mfmap needs a destination at pc %d" pc;
      set_i t dp (Int64.of_int v)
  | Opcode.Mtmap kind -> (
      let idx = Int64.to_int d.Dins.imm in
      let v = Int64.to_int (get_i t sp0) in
      match kind with
      | Opcode.Read -> Map_table.connect_use t.imap ~ri:idx ~rp:v
      | Opcode.Write -> Map_table.connect_def t.imap ~ri:idx ~rp:v)
  | Opcode.Halt | Opcode.Nop -> ());
  !next_pc

(* --- one cycle ----------------------------------------------------------- *)

(* Issue in program order until the timing core closes the cycle: each
   instruction's operands are resolved through the live maps, the core
   is asked whether it can issue, and only then is it executed and
   charged to the core. *)
let run_cycle_raw t =
  let c = t.timing in
  if t.pending_interrupt then begin
    t.pending_interrupt <- false;
    enter_trap t ~return_to:t.pc
  end;
  if c.Timing.halted then Timing.close c Timing.Fetch
  else begin
    let code_len = Array.length t.pre in
    let closed = ref false in
    while not !closed do
      let pc = t.pc in
      if pc < 0 || pc >= code_len then fail "pc %d out of code" pc;
      let d = t.pre.(pc) in
      let map_on = t.psw.Psw.map_enable in
      let sp0 =
        if d.Dins.nsrcs > 0 then resolve_read t ~map_on d.Dins.s0c d.Dins.s0
        else -1
      in
      let sp1 =
        if d.Dins.nsrcs > 1 then resolve_read t ~map_on d.Dins.s1c d.Dins.s1
        else -1
      in
      let dp =
        if d.Dins.d >= 0 then resolve_write t ~map_on d.Dins.dc d.Dins.d
        else -1
      in
      match Timing.blocker c d ~map_on ~sp0 ~sp1 ~dp with
      | Timing.Ready ->
          let taken =
            match d.Dins.op with
            | Opcode.Br cond -> Opcode.eval_cond_rf cond t.iregs sp0 sp1
            | _ -> false
          in
          t.pc <- execute t d ~map_on ~sp0 ~sp1 ~dp ~taken;
          (match t.recorder with
          | None -> ()
          | Some b ->
              (* No range checks: whoever attached the recorder
                 established [Dtrace.fits] for this code length and these
                 register files. *)
              Dtrace.add b ~pc ~sp0 ~sp1 ~dp ~map_on ~taken);
          closed := Timing.issue c d ~map_on ~dp ~taken
      | cause ->
          Timing.close c cause;
          closed := true
    done
  end

let run_cycle t =
  match t.observer with
  | None -> run_cycle_raw t
  | Some f ->
      let s = t.timing.Timing.stats in
      let cycle0 = s.Timing.cycles
      and pc0 = t.pc
      and issued0 = s.Timing.issued
      and connects0 = s.Timing.connects
      and ld0 = s.Timing.lost_data
      and lm0 = s.Timing.lost_map
      and lc0 = s.Timing.lost_channel
      and lb0 = s.Timing.lost_branch
      and lf0 = s.Timing.lost_fetch in
      run_cycle_raw t;
      f
        {
          s_cycle = cycle0;
          s_cycles = s.Timing.cycles - cycle0;
          s_pc = pc0;
          s_issued = s.Timing.issued - issued0;
          s_connects = s.Timing.connects - connects0;
          s_lost_data = s.Timing.lost_data - ld0;
          s_lost_map = s.Timing.lost_map - lm0;
          s_lost_channel = s.Timing.lost_channel - lc0;
          s_lost_branch = s.Timing.lost_branch - lb0;
          s_lost_fetch = s.Timing.lost_fetch - lf0;
        }

let run_machine t =
  while not t.timing.Timing.halted do
    run_cycle t
  done;
  let output = output_list t in
  Timing.result t.timing ~output ~checksum:(checksum_of_output output)

(** Assemble-free entry point: simulate an image under a configuration. *)
let run cfg image = run_machine (create cfg image)
