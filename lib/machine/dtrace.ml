(** Compact dynamic-trace records for the trace-replay timing engine.

    On an in-order machine with deterministic latencies, the timing
    knobs of a {!Config.t} (issue rate, memory channels, load and
    connect latency, extra pipeline stage) cannot change the dynamic
    instruction stream — only its timing.  One
    execution-driven run therefore records, per dynamic instruction, the
    few facts timing depends on that are not static in the code image:

    - the program counter (static fields — opcode class, latency class,
      is_mem, connect targets, branch hints — are re-read from the
      replayer's own {!Rc_isa.Dins} predecode, so a trace recorded under
      2-cycle loads replays correctly under 4-cycle loads);
    - the three resolved physical registers (two sources and the
      destination) the issue logic interlocks on;
    - the PSW map-enable bit seen at issue (drives the 1-cycle-connect
      mapping-table conflict check);
    - the branch outcome (drives mispredict accounting).

    In flight the five facts pack into one OCaml [int] per dynamic
    instruction ({!pack}); the recording {!builder} compresses them
    {e as they arrive} into a no-scan [Bytes.t] token stream the major
    GC never walks — no entry array ever exists, so recording
    allocates only the compressed bytes.
    The compression exploits what the stream almost always is:
    straight-line code ([pc = prev_pc + 1]) whose resolved registers
    equal the {e last sighting} of the same pc (seeded by the
    instruction's architectural fields) — the mapping table is either
    off, identity, or stable across loop iterations, so steady-state
    loop bodies are fully predicted and cost {e under one byte} via
    run-length tokens.  Everything else is a literal token: one flag
    byte plus zigzag varints for the pc jump and the non-zero
    (resolved − predicted) register deltas, which are small because
    connected registers sit in one extended window.

    {!Trace_replay} streams entries back through a {!cursor} (no array
    is ever materialised) and re-runs the issue/scoreboard/channel/
    redirect accounting under any configuration with the same semantic
    knobs, reproducing {!Machine.result} exactly.

    A trace is only valid for the image it was recorded from (same code,
    data and entry) under the same functional semantics (reset model,
    register file shapes, no traps or interrupts) — see
    {!Trace_replay.record} and DESIGN.md §14. *)

(* Decoded (in-flight) entry layout, low to high:
   bit  0        branch taken
   bit  1        PSW map-enable at issue
   bits 2..13    sp0 + 1  (12 bits; 0 = no source 0)
   bits 14..25   sp1 + 1
   bits 26..37   dp  + 1
   bits 38..59   pc       (22 bits)
   Physical registers above 4094 or images above 2^22 instructions do
   not fit; {!fits} rejects such configurations up front and the engine
   falls back to direct execution. *)

let reg_bits = 12
let reg_mask = (1 lsl reg_bits) - 1
let pc_bits = 22
let max_pc = (1 lsl pc_bits) - 1
let max_reg = reg_mask - 1

let[@inline] pack ~pc ~sp0 ~sp1 ~dp ~map_on ~taken =
  Bool.to_int taken
  lor (Bool.to_int map_on lsl 1)
  lor ((sp0 + 1) lsl 2)
  lor ((sp1 + 1) lsl (2 + reg_bits))
  lor ((dp + 1) lsl (2 + (2 * reg_bits)))
  lor (pc lsl (2 + (3 * reg_bits)))

let[@inline] taken e = e land 1 <> 0
let[@inline] map_on e = e land 2 <> 0
let[@inline] sp0 e = ((e lsr 2) land reg_mask) - 1
let[@inline] sp1 e = ((e lsr (2 + reg_bits)) land reg_mask) - 1
let[@inline] dp e = ((e lsr (2 + (2 * reg_bits))) land reg_mask) - 1
let[@inline] pc e = e lsr (2 + (3 * reg_bits))

(** Every value recorded in an entry fits the packed layout — checked
    once per recording (the pc is bounded by the code length, resolved
    registers by the physical file sizes), so the per-instruction
    recording path carries no range checks at all. *)
let fits ~code_len ~ireg_total ~freg_total =
  code_len - 1 <= max_pc && ireg_total - 1 <= max_reg
  && freg_total - 1 <= max_reg

(* --- architectural-register tables --------------------------------------- *)

(** Per-pc architectural operands, the compression model's prediction
    for the resolved registers: [-1] where the instruction has no such
    operand, mirroring the recorder's convention.  Derived from the
    same {!Rc_isa.Dins} predecode the replayer runs on. *)
type arch = { a0 : int array; a1 : int array; ad : int array }

let arch_of_dins (pre : Rc_isa.Dins.t array) =
  let n = Array.length pre in
  let a0 = Array.make n (-1)
  and a1 = Array.make n (-1)
  and ad = Array.make n (-1) in
  for i = 0 to n - 1 do
    let d = pre.(i) in
    if d.Rc_isa.Dins.nsrcs > 0 then a0.(i) <- d.Rc_isa.Dins.s0;
    if d.Rc_isa.Dins.nsrcs > 1 then a1.(i) <- d.Rc_isa.Dins.s1;
    ad.(i) <- d.Rc_isa.Dins.d
  done;
  { a0; a1; ad }

let arch_of_arrays ~s0 ~s1 ~d =
  if Array.length s0 <> Array.length s1 || Array.length s0 <> Array.length d
  then invalid_arg "Dtrace.arch_of_arrays: length mismatch";
  { a0 = s0; a1 = s1; ad = d }

(* --- the compact stream -------------------------------------------------- *)

(* Token grammar (DESIGN.md §14):

     RUN      ::= 0x80 lor len                      len in 1..127
     LITERAL  ::= flags varint*                     flags bit 7 = 0

   A RUN token stands for [len] consecutive {e plain} entries:
   pc = prev_pc + 1, taken = false, map_on = previous entry's map_on,
   and each resolved register equals its prediction — the register
   recorded at the {e previous sighting} of the same pc, or the
   architectural field on first sighting.  A LITERAL token carries the
   exceptions in its flag byte — bit 0 taken, bit 1 map_on, bit 2 pc
   is {e not} prev_pc + 1 (a zigzag-varint delta against prev_pc + 1
   follows), bits 3/4/5 a non-zero sp0/sp1/dp delta against the
   prediction follows (zigzag varints, in that order) — and updates
   the per-pc prediction with its resolved registers.  Encoder and
   decoder evolve the prediction tables in lockstep; the decoder
   starts from prev_pc = -1, prev_map = false and a fresh copy of the
   architectural tables. *)

type t = {
  n : int;  (** dynamic instructions recorded *)
  data : Bytes.t;  (** the RUN/LITERAL token stream *)
  out : Bytes.t;  (** emitted output stream, 8 LE bytes per value *)
  checksum : int64;  (** {!Machine.checksum_of_output} of the output *)
}

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)
let[@inline] unzigzag v = (v lsr 1) lxor (-(v land 1))

let add_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

(* --- recording ----------------------------------------------------------- *)

(** Streaming encoder: entries compress {e as they are recorded}, so
    the builder holds the compressed stream plus the predictor state —
    never an entry array.  The common case (a plain entry extending the
    open run) is a handful of compares and a counter increment, with no
    allocation at all: attaching a recorder costs the executing machine
    a few percent, not a GC-visible buffer.  {!fits} hoisted every
    range check out of {!add}. *)
type builder = {
  b_l0 : int array;  (** per-pc predictions, seeded from the arch tables *)
  b_l1 : int array;
  b_ld : int array;
  b_buf : Buffer.t;  (** the compressed token stream *)
  mutable b_n : int;
  mutable b_prev_pc : int;
  mutable b_prev_map : bool;
  mutable b_run : int;  (** plain entries not yet flushed as RUN tokens *)
  mutable b_ok : bool;
      (** cleared when an unreplayable event (trap, rfe, interrupt)
          occurs; {!finish} then returns [None] *)
}

let builder ?(hint = 4096) arch =
  {
    b_l0 = Array.copy arch.a0;
    b_l1 = Array.copy arch.a1;
    b_ld = Array.copy arch.ad;
    b_buf = Buffer.create (max 64 (hint / 16));
    b_n = 0;
    b_prev_pc = -1;
    b_prev_map = false;
    b_run = 0;
    b_ok = true;
  }

let invalidate b = b.b_ok <- false

let[@inline never] flush_run b =
  while b.b_run > 0 do
    let k = min 127 b.b_run in
    Buffer.add_char b.b_buf (Char.unsafe_chr (0x80 lor k));
    b.b_run <- b.b_run - k
  done

(* The literal path, out of line so the run path stays small enough to
   inline into the execute loop. *)
let[@inline never] add_literal b ~pc:epc ~sp0:e0 ~sp1:e1 ~dp:ed ~map_on:emap
    ~taken:etaken =
  flush_run b;
  let seq = epc = b.b_prev_pc + 1 in
  let d0 = e0 - Array.unsafe_get b.b_l0 epc
  and d1 = e1 - Array.unsafe_get b.b_l1 epc
  and dd = ed - Array.unsafe_get b.b_ld epc in
  let flags =
    Bool.to_int etaken
    lor (Bool.to_int emap lsl 1)
    lor (Bool.to_int (not seq) lsl 2)
    lor (Bool.to_int (d0 <> 0) lsl 3)
    lor (Bool.to_int (d1 <> 0) lsl 4)
    lor (Bool.to_int (dd <> 0) lsl 5)
  in
  Buffer.add_char b.b_buf (Char.unsafe_chr flags);
  if not seq then add_varint b.b_buf (zigzag (epc - (b.b_prev_pc + 1)));
  if d0 <> 0 then begin
    add_varint b.b_buf (zigzag d0);
    Array.unsafe_set b.b_l0 epc e0
  end;
  if d1 <> 0 then begin
    add_varint b.b_buf (zigzag d1);
    Array.unsafe_set b.b_l1 epc e1
  end;
  if dd <> 0 then begin
    add_varint b.b_buf (zigzag dd);
    Array.unsafe_set b.b_ld epc ed
  end;
  b.b_prev_pc <- epc;
  b.b_prev_map <- emap

(* No range checks: whoever attached the recorder established [fits],
   and the machine's pc is bounded by the code length the arch tables
   were built from. *)
let[@inline] add b ~pc:epc ~sp0:e0 ~sp1:e1 ~dp:ed ~map_on:emap ~taken:etaken =
  if b.b_ok then begin
    b.b_n <- b.b_n + 1;
    if
      epc = b.b_prev_pc + 1 && (not etaken) && emap = b.b_prev_map
      && e0 = Array.unsafe_get b.b_l0 epc
      && e1 = Array.unsafe_get b.b_l1 epc
      && ed = Array.unsafe_get b.b_ld epc
    then begin
      b.b_run <- b.b_run + 1;
      b.b_prev_pc <- epc
    end
    else add_literal b ~pc:epc ~sp0:e0 ~sp1:e1 ~dp:ed ~map_on:emap ~taken:etaken
  end

let add_packed b e =
  add b ~pc:(pc e) ~sp0:(sp0 e) ~sp1:(sp1 e) ~dp:(dp e) ~map_on:(map_on e)
    ~taken:(taken e)

(** The finished trace, or [None] when recording hit an unreplayable
    event.  [output]/[checksum] come from the recording run's
    result. *)
let finish b ~output ~checksum =
  if not b.b_ok then None
  else begin
    flush_run b;
    let data = Buffer.to_bytes b.b_buf in
    let out = Bytes.create (8 * List.length output) in
    List.iteri (fun i v -> Bytes.set_int64_le out (8 * i) v) output;
    Some { n = b.b_n; data; out; checksum }
  end

(** Re-encode [len] packed entries from [raw] against [arch] —
    {!sabotage}'s path; recording streams through {!add} instead. *)
let encode_entries arch raw len =
  let b = builder ~hint:len arch in
  for i = 0 to len - 1 do
    add_packed b raw.(i)
  done;
  flush_run b;
  Buffer.to_bytes b.b_buf

let output t =
  let k = Bytes.length t.out / 8 in
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (Bytes.get_int64_le t.out (8 * i) :: acc)
  in
  build (k - 1) []

(* Exact heap footprint on a 64-bit runtime: one header word plus
   ceil((len+1)/8) data words per bytes block (the +1 is the padding
   byte encoding the length), the four-field record block, and the
   boxed int64 checksum (header + custom-ops pointer + payload). *)
let bytes_block len = 8 * (1 + ((len + 8) / 8))
let bytes t = bytes_block (Bytes.length t.data) + bytes_block (Bytes.length t.out) + 40 + 24

(* --- serialization ------------------------------------------------------- *)

(* On-disk record layout (the store wraps this in its own header):
     [n : LE64] [checksum : LE64] [data_len : LE64] [out_len : LE64]
     [data bytes] [out bytes]
   Self-contained: the arch table is not part of a trace — it is a
   property of the image, reconstructed from the replayer's own
   predecode at decode time. *)

let to_string t =
  let dlen = Bytes.length t.data and olen = Bytes.length t.out in
  let b = Bytes.create (32 + dlen + olen) in
  Bytes.set_int64_le b 0 (Int64.of_int t.n);
  Bytes.set_int64_le b 8 t.checksum;
  Bytes.set_int64_le b 16 (Int64.of_int dlen);
  Bytes.set_int64_le b 24 (Int64.of_int olen);
  Bytes.blit t.data 0 b 32 dlen;
  Bytes.blit t.out 0 b (32 + dlen) olen;
  Bytes.unsafe_to_string b

let of_string s =
  let len = String.length s in
  if len < 32 then None
  else
    let field i = Int64.to_int (String.get_int64_le s (8 * i)) in
    let n = field 0 and dlen = field 2 and olen = field 3 in
    if
      n < 0 || dlen < 0 || olen < 0 || olen mod 8 <> 0
      || len <> 32 + dlen + olen
    then None
    else
      Some
        {
          n;
          checksum = String.get_int64_le s 8;
          data = Bytes.of_string (String.sub s 32 dlen);
          out = Bytes.of_string (String.sub s (32 + dlen) olen);
        }

(* --- decoding ------------------------------------------------------------ *)

type cursor = {
  c_l0 : int array;  (** per-pc predictions, seeded from the arch tables *)
  c_l1 : int array;
  c_ld : int array;
  c_data : Bytes.t;
  c_n : int;
  mutable c_pos : int;  (** next byte of [c_data] *)
  mutable c_idx : int;  (** entries already produced *)
  mutable c_prev_pc : int;
  mutable c_prev_map : bool;
  mutable c_run : int;  (** plain entries left in the open RUN token *)
}

let cursor arch t =
  {
    c_l0 = Array.copy arch.a0;
    c_l1 = Array.copy arch.a1;
    c_ld = Array.copy arch.ad;
    c_data = t.data;
    c_n = t.n;
    c_pos = 0;
    c_idx = 0;
    c_prev_pc = -1;
    c_prev_map = false;
    c_run = 0;
  }

let corrupt () = invalid_arg "Dtrace: corrupt trace stream"

let[@inline] read_byte cur =
  if cur.c_pos >= Bytes.length cur.c_data then corrupt ();
  let b = Char.code (Bytes.unsafe_get cur.c_data cur.c_pos) in
  cur.c_pos <- cur.c_pos + 1;
  b

let read_varint cur =
  let v = ref 0 and shift = ref 0 in
  let b = ref (read_byte cur) in
  while !b land 0x80 <> 0 do
    v := !v lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if !shift > 62 then corrupt ();
    b := read_byte cur
  done;
  !v lor (!b lsl !shift)

let[@inline] plain cur =
  let epc = cur.c_prev_pc + 1 in
  if epc < 0 || epc >= Array.length cur.c_l0 then corrupt ();
  cur.c_prev_pc <- epc;
  pack ~pc:epc ~sp0:cur.c_l0.(epc) ~sp1:cur.c_l1.(epc) ~dp:cur.c_ld.(epc)
    ~map_on:cur.c_prev_map ~taken:false

(* Decode the body of a LITERAL token whose flag byte [tok] was already
   consumed: read the optional pc delta and register deltas, update the
   prediction tables and return the packed entry. *)
let decode_literal cur tok =
  let epc =
    if tok land 4 <> 0 then cur.c_prev_pc + 1 + unzigzag (read_varint cur)
    else cur.c_prev_pc + 1
  in
  if epc < 0 || epc >= Array.length cur.c_l0 then corrupt ();
  let esp0 =
    cur.c_l0.(epc) + (if tok land 8 <> 0 then unzigzag (read_varint cur) else 0)
  and esp1 =
    cur.c_l1.(epc)
    + (if tok land 16 <> 0 then unzigzag (read_varint cur) else 0)
  and edp =
    cur.c_ld.(epc)
    + (if tok land 32 <> 0 then unzigzag (read_varint cur) else 0)
  in
  if
    esp0 < -1 || esp0 > max_reg || esp1 < -1 || esp1 > max_reg || edp < -1
    || edp > max_reg
  then corrupt ();
  cur.c_l0.(epc) <- esp0;
  cur.c_l1.(epc) <- esp1;
  cur.c_ld.(epc) <- edp;
  cur.c_prev_pc <- epc;
  cur.c_prev_map <- tok land 2 <> 0;
  pack ~pc:epc ~sp0:esp0 ~sp1:esp1 ~dp:edp
    ~map_on:(tok land 2 <> 0)
    ~taken:(tok land 1 <> 0)

(** The next entry, in the packed-[int] form of the accessors above.
    @raise Invalid_argument past entry [n - 1] or on a corrupt
    stream. *)
let next cur =
  if cur.c_idx >= cur.c_n then invalid_arg "Dtrace.next: trace exhausted";
  cur.c_idx <- cur.c_idx + 1;
  if cur.c_run > 0 then begin
    cur.c_run <- cur.c_run - 1;
    plain cur
  end
  else begin
    let tok = read_byte cur in
    if tok land 0x80 <> 0 then begin
      cur.c_run <- (tok land 0x7f) - 1;
      plain cur
    end
    else decode_literal cur tok
  end

(* --- block-level decoding -------------------------------------------------- *)

(* A block is one dynamic visit to a stretch of straight-line code: a
   maximal run of entries with consecutive pcs and one map-enable bit,
   which ends after a taken branch, before a jump target, and before a
   literal that rewrites the prediction tables or toggles the map bit.
   A rewriting literal opens the next block instead, so every entry of
   a block resolves to what the tables hold once its first entry is
   decoded: the tables change only at the rewriting literals, each of
   which bumps the table version.  A visit is therefore fully
   determined by (start pc, length, map bit, last-entry-taken bit,
   version).  The block cursor interns that identity to a dense
   [id], so the replay engine can key timing memos by it, and the
   entries themselves are read straight from the tables: no entry
   array exists.  Tokens are scanned, not decoded, inside a block: a
   RUN token adds its length, and a literal that neither jumps nor
   rewrites nor toggles is its one flag byte.  See DESIGN.md §18. *)

type block = {
  mutable id : int;
  mutable start : int;
  mutable len : int;
  mutable map : bool;
  mutable last_taken : bool;
  sp0s : int array;
  sp1s : int array;
  dps : int array;
}

type bcursor = {
  b_cur : cursor;
  b_blk : block;
  mutable b_version : int;
      (** bumped whenever a literal token rewrites a prediction entry
          (flag bits 3/4/5) — part of every block identity *)
  (* The intern table: open addressing over (packed shape, version),
     [t_shape = -1] marking a free slot. *)
  mutable t_shape : int array;
  mutable t_version : int array;
  mutable t_id : int array;
  mutable b_nsegs : int;
}

let bcursor arch t =
  if Array.length arch.a0 > max_pc + 1 then
    invalid_arg "Dtrace.bcursor: code longer than the packed pc range";
  let cur = cursor arch t in
  {
    b_cur = cur;
    b_blk =
      {
        id = -1;
        start = 0;
        len = 0;
        map = false;
        last_taken = false;
        sp0s = cur.c_l0;
        sp1s = cur.c_l1;
        dps = cur.c_ld;
      };
    b_version = 0;
    t_shape = Array.make 64 (-1);
    t_version = Array.make 64 0;
    t_id = Array.make 64 0;
    b_nsegs = 0;
  }

let bsegs bc = bc.b_nsegs
let bidx bc = bc.b_cur.c_idx

let[@inline] intern_slot shape version mask =
  let h = (shape * 0x2545F4914F6CDD1D) lxor (version * 0x1E3779B97F4A7C15) in
  (h lxor (h lsr 29)) land mask

let grow_interned bc =
  let shapes = bc.t_shape and versions = bc.t_version and ids = bc.t_id in
  let cap = 2 * Array.length shapes in
  let mask = cap - 1 in
  bc.t_shape <- Array.make cap (-1);
  bc.t_version <- Array.make cap 0;
  bc.t_id <- Array.make cap 0;
  Array.iteri
    (fun i shape ->
      if shape >= 0 then begin
        let j = ref (intern_slot shape versions.(i) mask) in
        while bc.t_shape.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        bc.t_shape.(!j) <- shape;
        bc.t_version.(!j) <- versions.(i);
        bc.t_id.(!j) <- ids.(i)
      end)
    shapes

(* The dense id of (shape, version), interned on first sighting. *)
let intern bc shape version =
  let mask = Array.length bc.t_shape - 1 in
  let j = ref (intern_slot shape version mask) in
  while
    bc.t_shape.(!j) >= 0
    && not (bc.t_shape.(!j) = shape && bc.t_version.(!j) = version)
  do
    j := (!j + 1) land mask
  done;
  if bc.t_shape.(!j) >= 0 then bc.t_id.(!j)
  else begin
    let id = bc.b_nsegs in
    bc.t_shape.(!j) <- shape;
    bc.t_version.(!j) <- version;
    bc.t_id.(!j) <- id;
    bc.b_nsegs <- id + 1;
    if 2 * bc.b_nsegs > mask then grow_interned bc;
    id
  end

(** The next block, in the cursor's one block record (updated in
    place).  Interleaving with {!next} on the same underlying trace is
    not supported.
    @raise Invalid_argument past entry [n - 1] or on a corrupt
    stream. *)
let next_block bc =
  let cur = bc.b_cur in
  let room = cur.c_n - cur.c_idx in
  if room <= 0 then invalid_arg "Dtrace.next_block: trace exhausted";
  (* The first entry opens the block: a plain entry, or a literal that
     may jump, rewrite the tables or toggle the map bit. *)
  let len = ref 1 and taken = ref false in
  let tok = read_byte cur in
  let start =
    if tok land 0x80 <> 0 then begin
      if tok land 0x7f = 0 then corrupt ();
      len := tok land 0x7f;
      cur.c_prev_pc + 1
    end
    else begin
      if tok land 0x38 <> 0 then bc.b_version <- bc.b_version + 1;
      taken := tok land 1 <> 0;
      pc (decode_literal cur tok)
    end
  in
  let map = cur.c_prev_map in
  let data = cur.c_data in
  let data_len = Bytes.length data in
  let open_ = ref true in
  while !open_ && (not !taken) && !len < room && cur.c_pos < data_len do
    let b = Char.code (Bytes.unsafe_get data cur.c_pos) in
    if b land 0x80 <> 0 then begin
      let k = b land 0x7f in
      if k = 0 then corrupt ();
      (* never consume entries past [n]: a trailing over-long RUN token
         is ignored by {!next} too *)
      if !len + k > room then open_ := false
      else begin
        cur.c_pos <- cur.c_pos + 1;
        len := !len + k
      end
    end
    else if b land 0x3c = 0 && (b land 2 <> 0) = map then begin
      (* a literal that only records a taken branch *)
      cur.c_pos <- cur.c_pos + 1;
      incr len;
      taken := b land 1 <> 0
    end
    else open_ := false
  done;
  let len = min !len room in
  if start < 0 || start + len > Array.length cur.c_l0 then corrupt ();
  cur.c_prev_pc <- start + len - 1;
  cur.c_idx <- cur.c_idx + len;
  let shape =
    start lor (len lsl 22)
    lor (Bool.to_int map lsl 45)
    lor (Bool.to_int !taken lsl 46)
  in
  let blk = bc.b_blk in
  blk.id <- intern bc shape bc.b_version;
  blk.start <- start;
  blk.len <- len;
  blk.map <- map;
  blk.last_taken <- !taken;
  blk

(** Entry [i] of a block, packed. *)
let block_entry blk i =
  let pc = blk.start + i in
  pack ~pc ~sp0:blk.sp0s.(pc) ~sp1:blk.sp1s.(pc) ~dp:blk.dps.(pc)
    ~map_on:blk.map
    ~taken:(blk.last_taken && i = blk.len - 1)

let entries arch t =
  let cur = cursor arch t in
  let es = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    es.(i) <- next cur
  done;
  es

(** A copy with entry [i] replaced — test hook for planting a
    divergence the equivalence check must catch.  [entry] must decode
    against the same [arch] (its pc in range).
    @raise Invalid_argument when [i] is out of range. *)
let sabotage arch t i entry =
  if i < 0 || i >= t.n then invalid_arg "Dtrace.sabotage: index out of range";
  let raw = entries arch t in
  raw.(i) <- entry;
  { t with data = encode_entries arch raw t.n }
