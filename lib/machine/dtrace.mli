(** Compact dynamic-trace records for the trace-replay timing engine:
    per dynamic instruction the pc, resolved physical registers,
    map-enable bit and branch outcome, compressed into a no-scan
    byte-packed token stream (run-length tokens for straight-line code,
    flag byte + zigzag varints otherwise) plus the output stream stored
    once.  Entries decode back to the packed-[int] form through a
    {!cursor}.  See DESIGN.md §14 for the encoding. *)

type t = {
  n : int;  (** dynamic instructions recorded *)
  data : Bytes.t;  (** the RUN/LITERAL token stream *)
  out : Bytes.t;  (** emitted output stream, 8 LE bytes per value *)
  checksum : int64;  (** {!Machine.checksum_of_output} of the output *)
}

(** {2 Packed-entry form}

    The in-flight representation: one OCaml [int] holding pc, resolved
    sp0/sp1/dp, map-enable and branch outcome.  The recorder appends
    these; the cursor yields them back. *)

val pack :
  pc:int -> sp0:int -> sp1:int -> dp:int -> map_on:bool -> taken:bool -> int

val taken : int -> bool
val map_on : int -> bool

(** Resolved physical source/destination registers; [-1] when absent. *)
val sp0 : int -> int

val sp1 : int -> int
val dp : int -> int
val pc : int -> int

(** Largest pc / physical register number an entry can hold. *)
val max_pc : int

val max_reg : int

(** Every value a recording of this shape can produce fits the packed
    layout — checked once up front so the per-instruction recording
    path carries no range checks. *)
val fits : code_len:int -> ireg_total:int -> freg_total:int -> bool

(** {2 Architectural-register tables}

    The seed of the compression model's per-pc register prediction:
    the architectural operand fields of the instruction at each pc
    ([-1] where absent), from the same {!Rc_isa.Dins} predecode the
    replayer runs on.  Resolved registers are stored as deltas against
    the last sighting of the same pc (architectural on first
    sighting), so both {!finish} and the {!cursor} need the table of
    the trace's image. *)

type arch

val arch_of_dins : Rc_isa.Dins.t array -> arch

(** Test hook: an arch table from raw per-pc operand arrays ([-1] =
    absent).
    @raise Invalid_argument on length mismatch. *)
val arch_of_arrays : s0:int array -> s1:int array -> d:int array -> arch

(** {2 Recording}

    The builder is a streaming encoder: entries compress as they are
    recorded (the plain common case is a few compares and a counter
    bump, allocation-free), so no entry array ever exists and the heap
    cost of an attached recorder is the compressed stream itself.
    [arch] must be the recorded image's table; [hint] is the expected
    entry count. *)

type builder

val builder : ?hint:int -> arch -> builder

(** Mark the recording unreplayable (trap, rfe, interrupt injection);
    {!finish} will return [None]. *)
val invalidate : builder -> unit

(** Append one issued instruction.  No range checks: the caller
    established {!fits} before attaching the recorder. *)
val add :
  builder ->
  pc:int ->
  sp0:int ->
  sp1:int ->
  dp:int ->
  map_on:bool ->
  taken:bool ->
  unit

(** {!add} of a packed entry. *)
val add_packed : builder -> int -> unit

(** Seal the recording, or [None] when it hit an unreplayable event.
    [output]/[checksum] come from the recording run's result. *)
val finish : builder -> output:int64 list -> checksum:int64 -> t option

(** The recorded output stream, decoded (fresh list per call). *)
val output : t -> int64 list

(** Exact resident heap size of the trace in bytes, O(1). *)
val bytes : t -> int

(** {2 Serialization}

    A fixed little-endian framing of the four record fields —
    self-contained, because the arch table belongs to the {e image},
    not the trace: the on-disk store saves only these bytes, and the
    replayer reconstructs the table from its own predecode. *)

val to_string : t -> string

(** Decode a {!to_string} image; [None] on any framing violation
    (short buffer, negative or inconsistent lengths, ragged output
    stream).  Token-stream corruption {e within} a well-framed blob
    surfaces later, as the cursor's [Invalid_argument]. *)
val of_string : string -> t option

(** {2 Decoding} *)

(** A streaming decoder over the token stream: {!next} yields entries
    in packed-[int] form without materialising an array.  The [arch]
    must be the trace image's table (any latency — architectural
    operands do not depend on it). *)
type cursor

val cursor : arch -> t -> cursor

(** The next entry.
    @raise Invalid_argument past entry [n - 1] or on a corrupt
    stream. *)
val next : cursor -> int

(** {2 Block decoding}

    A block is one dynamic visit to straight-line code: consecutive
    pcs under one map-enable bit, ending after a taken branch, before a
    jump target, and before a literal that rewrites the prediction
    tables or toggles the map bit (such a literal opens the next
    block).  Every entry belongs to exactly one block, and a block is
    fully determined by (start pc, length, map bit, last-entry-taken
    bit, prediction-table version), so the block cursor interns that
    identity to a dense [id]: every repeated visit to a loop body
    yields the same [id].  The entries are not copied out: each one's
    resolved registers are the cursor's prediction tables at its pc.
    The replay engine keys its timing memo by [id] (DESIGN.md §18). *)

type block = private {
  mutable id : int;  (** dense intern index, first-sighting order *)
  mutable start : int;  (** pc of the first entry *)
  mutable len : int;  (** entries in the visit (>= 1), at pcs [start ..] *)
  mutable map : bool;  (** the map-enable bit of every entry *)
  mutable last_taken : bool;
      (** the branch outcome of the last entry; the others fall
          through *)
  sp0s : int array;
      (** resolved source 0 by pc: valid at the block's pcs until the
          next {!next_block} *)
  sp1s : int array;
  dps : int array;
}

type bcursor

(** @raise Invalid_argument when the table's code is longer than the
    packed pc range. *)
val bcursor : arch -> t -> bcursor

(** Interned block identities so far; [id] values are dense below
    this. *)
val bsegs : bcursor -> int

(** Entries consumed so far — the index of the next entry. *)
val bidx : bcursor -> int

(** The next block.  The cursor owns one block record and updates it in
    place, so a block is valid until the next call.  Interleaving with
    {!next} on the same underlying trace is not supported.
    @raise Invalid_argument past entry [n - 1] or on a corrupt
    stream. *)
val next_block : bcursor -> block

(** Entry [i] of a block ([0 <= i < len]), packed. *)
val block_entry : block -> int -> int

(** Every entry decoded to packed form — test and tooling hook; the
    replay engine streams through {!cursor} instead. *)
val entries : arch -> t -> int array

(** A copy with entry [i] replaced — test hook for planting a
    divergence the equivalence check must catch.  [entry] must decode
    against the same [arch] (its pc in range).
    @raise Invalid_argument when [i] is out of range. *)
val sabotage : arch -> t -> int -> int -> t
