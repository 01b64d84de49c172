(** Profile-guided priority colouring (Chow-style, as the paper's "graph
    coloring algorithm that utilizes profile information in its priority
    calculations", section 5.1).

    Live ranges are coloured by priority.  Each range has an ordered
    colour preference realising the paper's allocation policy ("place
    the most important variables into the core registers, while storing
    the less important variables in the extended registers or memory",
    section 3) plus two policies this reproduction needed on an in-order
    machine (DESIGN.md section 10): least-recently-used colour choice
    within a preference segment, and core-affinity ranking with an
    extended-first rule for write-heavy ranges under core scarcity. *)

open Rc_isa
open Rc_ir

type config = {
  ifile : Reg.file;
  ffile : Reg.file;
  aggressive_extended : bool;
      (** send write-heavy ranges to the extended section when the core
          is scarce — profitable with zero-cycle connects; a compiler
          targeting 1-cycle connects keeps values in the core instead *)
  partition : Reg.cls -> Reg.partition;
      (** registers available for allocation, per class, partitioned *)
}

val config :
  ?aggressive_extended:bool -> ifile:Reg.file -> ffile:Reg.file -> unit -> config

(** A live range's colour preference: an ordered list of segments, each
    a union of partitions of the range's class. *)
type order =
  | Call_crossing
      (** live across a call: callee-saved core, then caller-saved core,
          then extended *)
  | Core_first  (** the allocatable core as one segment, then extended *)
  | Extended_first
      (** write-heavy under core scarcity: extended, then the core *)

(** Least-recently-used colour choice over one function's allocation.
    In the first segment of the order that has a free register, the
    pick is the lowest-index never-used register, else the free
    register with the oldest stamp; the picked register then gets the
    newest stamp.  A pick costs O(log n) plus one step per taken
    register, independent of the file size. *)
module Pick : sig
  type t

  (** No register used yet. *)
  val create : config -> t

  (** [pick t cls order ~taken] picks and stamps a register of class
      [cls], or returns [None] when every register of the order is
      [taken].  [taken] must hold only registers this state already
      picked in class [cls] — the registers of interfering ranges,
      which are always assigned earlier and in the same class. *)
  val pick : t -> Reg.cls -> order -> taken:(int -> bool) -> int option
end

(** Profile-weighted use and definition counts of each virtual register.
    Their sum is the classic spill cost; their difference ranks core
    affinity under RC. *)
val use_def_weights :
  Func.t -> Rc_interp.Profile.t -> (Vreg.t -> int) * (Vreg.t -> int)

val spill_costs : Func.t -> Rc_interp.Profile.t -> Vreg.t -> int

(** Colour one function; spilled registers receive slots.  Returns the
    interference graph (for validation) and the assignment. *)
val run :
  config ->
  Func.t ->
  Rc_interp.Profile.t ->
  Rc_dataflow.Interference.t * Assignment.t
