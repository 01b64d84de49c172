(** The assembler: flattens a machine program into an executable image.

    Instruction addresses are indices into the flat code array; data
    lives in a separate byte-addressed space (globals from [data_base]
    upward, the stack growing down from [stack_top]). *)

type t = {
  code : Insn.t array;
  entry : int;  (** address of the entry function's first instruction *)
  label_addr : (int, int) Hashtbl.t;
  func_addr : (string * int) list;
  global_addr : (string * int) list;
  data_base : int;
  data_end : int;
  stack_top : int;
  mem_size : int;
  data_image : (int * Mcode.init) list;  (** address, initialiser *)
  fingerprint : string;  (** see {!val-fingerprint} *)
}

val data_base : int
val stack_reserve : int
val align8 : int -> int

exception Undefined_label of int
exception Undefined_function of string

(** Write one global's initialiser at [addr] into a memory image.
    Words are little-endian 64-bit; doubles are stored as their IEEE
    bit patterns. *)
val write_init : Bytes.t -> int -> Mcode.init -> unit

(** @raise Invalid_argument when the name is unknown. *)
val global_address : t -> string -> int

(** @raise Undefined_function when the name is unknown. *)
val function_address : t -> string -> int

(** Lay out globals from {!data_base}, 8-byte aligned, in declaration
    order.  Shared by the assembler and the IR interpreter so both see
    identical addresses.  Returns the address map and the end of the
    data segment. *)
val layout_globals : Mcode.global list -> (string * int) list * int

(** Flatten functions (entry function first, at address 0), patch branch
    targets and lay out data.
    @raise Undefined_label when a target label is not defined. *)
val assemble : Mcode.t -> t

(** Content hash of everything that determines an image's execution:
    code, entry point, initialised data, stack top and memory size.
    Two images with equal fingerprints produce identical dynamic
    instruction streams under identical machine semantics — the
    trace-replay engine's cache key.  Computed once, by {!assemble}. *)
val fingerprint : t -> string
