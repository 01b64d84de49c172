(** The register mapping table (paper section 2.1).

    An [m]-entry table for one register class.  Each entry holds a
    {e read map} and a {e write map}: the physical register accessed when
    the architectural index appears as a source or as a destination.
    Separate read and write maps allow more efficient use of a limited
    number of entries, which matters most for small [m].

    One table instance serves one register class; a machine holds one
    per class. *)

open Rc_isa

(** The maps are exposed for reading.  Write them only through the
    functions below: each one that can move an entry away from home sets
    [moved], and {!reset} rewrites the maps only when it is set. *)
type t = {
  model : Model.t;
  file : Reg.file;
  read_map : int array;  (** length [file.core] *)
  write_map : int array;
  mutable moved : bool;
      (** some entry may point away from home; when clear, every entry
          is home *)
  mutable connects_applied : int;  (** statistics *)
  mutable auto_resets : int;
}

(** Number of architectural indices, [m]. *)
val entries : t -> int

(** A fresh table with every entry at its home location.
    [model] defaults to {!Model.default}. *)
val create : ?model:Model.t -> Reg.file -> t

val copy : t -> t

(** Physical register read when index [i] is a source.
    @raise Invalid_argument when [i] is out of range. *)
val read : t -> int -> int

(** Physical register written when index [i] is a destination. *)
val write : t -> int -> int

(** [connect_use t ~ri ~rp]: redirect all subsequent reads of index
    [ri] to physical register [rp] (paper section 2.2).
    @raise Invalid_argument when either operand is out of range. *)
val connect_use : t -> ri:int -> rp:int -> unit

(** [connect_def t ~ri ~rp]: redirect all subsequent writes of index
    [ri] to physical register [rp]. *)
val connect_def : t -> ri:int -> rp:int -> unit

(** Apply one update of a (possibly multiple-)connect instruction. *)
val apply : t -> Insn.connect -> unit

(** Automatic register connection performed as a side effect of a write
    through index [i] (paper Figure 3), according to the table's model.
    Must be called {e after} the write's physical destination has been
    taken from the old write map.  [auto_resets] counts only calls that
    actually changed a map entry; under {!Model.No_reset} the counters
    are never touched. *)
val note_write : t -> int -> unit

(** [load t ~read ~write]: entries [0 .. length - 1] of the read and
    write maps take the saved values (a context restore, paper section
    4.2). *)
val load : t -> read:int array -> write:int array -> unit

(** Reset every entry to its home location: performed by hardware at
    power-up and by [jsr]/[rts] (paper section 4.1).  Constant time when
    no entry has moved since the last reset. *)
val reset : t -> unit

(** True when every entry points home. *)
val is_home : t -> bool

(** Structural equality of model, file and both maps. *)
val equal : t -> t -> bool

(** First architectural index whose read map currently points at
    physical register [p], if any. *)
val index_reading : t -> int -> int option

val index_writing : t -> int -> int option
val pp : Format.formatter -> t -> unit
