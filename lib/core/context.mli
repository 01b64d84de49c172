(** Process-context save and restore (paper section 4.2).

    Programs compiled for the extended architecture need core registers,
    extended registers {e and} the connection information preserved
    across a context switch; programs compiled for the original
    architecture only need the core registers.  The PSW
    [extended_arch] flag selects between the two formats. *)

(** A view of one machine's register state.  The files are the
    machine's own, full physical files and the tables are live:
    restoring writes through them.  [iregs] has the register-file
    layout of {!Rc_isa.Opcode.get_reg}, one 8-byte slot per physical
    register. *)
type machine_view = {
  iregs : Bytes.t;
  fregs : float array;
  imap : Map_table.t;
  fmap : Map_table.t;
  psw : Psw.t;
}

type format = Original | Extended

type t = {
  format : format;
  saved_psw : Psw.t;
  core_iregs : int64 array;
  core_fregs : float array;
  ext_iregs : int64 array;  (** empty in [Original] format *)
  ext_fregs : float array;
  iread : int array;  (** connection information; empty in [Original] *)
  iwrite : int array;
  fread : int array;
  fwrite : int array;
}

(** The format the context-switch routine picks for this process. *)
val format_of_psw : Psw.t -> format

(** Size of the saved context in 64-bit words — the payoff of the
    dual-format optimisation. *)
val words : t -> int

(** Capture the process context in the format selected by the PSW. *)
val save : machine_view -> t

(** Restore a saved context.  Restoring an [Original]-format context
    also resets the mapping tables, so a legacy program never observes a
    previous occupant's connections. *)
val restore : machine_view -> t -> unit
