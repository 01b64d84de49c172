(** Opcodes of the MIPS-flavoured target instruction set, extended with
    general compare-and-branch opcodes (paper section 5.2), the
    register-connection instructions (paper section 2.2) and the
    privileged map-access instructions used by trap handlers (paper
    section 4.3). *)

type alu =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt  (** set if less-than, signed *)
  | Seq  (** set if equal *)

type fpu = Fadd | Fsub | Fmul | Fdiv | Fneg | Fabs

(** Branch / comparison conditions over two integer operands. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge

(** Memory access width: full 8-byte words or single bytes. *)
type width = W8 | W1

(** Which half of a mapping-table entry an instruction touches. *)
type map_kind = Read | Write

type t =
  | Alu of alu  (** int dst, two int sources *)
  | Alui of alu  (** int dst, int source and immediate *)
  | Li  (** int dst, immediate *)
  | Move  (** int dst, int source *)
  | Fli  (** float dst, float immediate *)
  | Fmove  (** float dst, float source *)
  | Fpu of fpu  (** float dst, float sources *)
  | Itof  (** float dst, int source *)
  | Ftoi  (** int dst, float source *)
  | Fcmp of cond  (** int dst (0/1), two float sources *)
  | Ld of width  (** int dst, int base, immediate offset *)
  | St of width  (** int value source, int base, immediate offset *)
  | Fld  (** float dst, int base, immediate offset *)
  | Fst  (** float value source, int base, immediate offset *)
  | Br of cond  (** two int sources, target, static hint *)
  | Jmp  (** unconditional jump to target *)
  | Jsr  (** call: writes RA, jumps, resets the register map *)
  | Rts  (** return: jumps to RA, resets the register map *)
  | Connect  (** updates the register mapping table (payload on the insn) *)
  | Emit  (** append int source to the observable output stream *)
  | Femit  (** append float source to the observable output stream *)
  | Trap  (** enter the trap handler, clearing the PSW map-enable flag *)
  | Rfe  (** return from exception, restoring the saved PSW *)
  | Mapen  (** privileged: set the PSW map-enable flag from the immediate *)
  | Mfmap of map_kind
      (** privileged: dst <- integer mapping-table entry [imm]; works
          with the map disabled, so handlers can save connection state *)
  | Mtmap of map_kind
      (** privileged: integer mapping-table entry [imm] <- register
          source; the dynamic counterpart of a connect *)
  | Halt
  | Nop

val is_branch : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool
val is_connect : t -> bool
val is_call : t -> bool

val eval_cond : cond -> int64 -> int64 -> bool
val eval_fcond : cond -> float -> float -> bool
val negate_cond : cond -> cond

(** Division or remainder by zero yields zero, so every program is
    total. *)
val eval_alu : alu -> int64 -> int64 -> int64

val eval_fpu : fpu -> float -> float -> float

(** {2 Register-file forms}

    The same evaluators applied in place to the simulator's register
    files: an integer file is a [Bytes.t] with one 8-byte little-endian
    slot per physical register, in which register {!Reg.zero} reads 0
    and ignores writes; an FP file is a [float array].  Operands are
    physical register indices, so no value is boxed across the call. *)

(** [get_reg rf p]: integer register [p] of [rf]. *)
val get_reg : Bytes.t -> int -> int64

(** [set_reg rf p v]: write [v] to integer register [p] of [rf]. *)
val set_reg : Bytes.t -> int -> int64 -> unit

(** [eval_alu_rf op rf d a b]: [rf.(d) <- eval_alu op rf.(a) rf.(b)]. *)
val eval_alu_rf : alu -> Bytes.t -> int -> int -> int -> unit

(** [eval_alui_rf op rf d a imm]: [rf.(d) <- eval_alu op rf.(a) imm]. *)
val eval_alui_rf : alu -> Bytes.t -> int -> int -> int64 -> unit

(** [eval_cond_rf c rf a b]: [eval_cond c rf.(a) rf.(b)]. *)
val eval_cond_rf : cond -> Bytes.t -> int -> int -> bool

(** [eval_fpu_rf op fr d a b]: [fr.(d) <- eval_fpu op fr.(a) fr.(b)],
    with [0.0] for the second operand when [b < 0] (the unary
    operations). *)
val eval_fpu_rf : fpu -> float array -> int -> int -> int -> unit

(** [eval_fcond_rf c fr rf d a b]: integer register [d] of [rf] gets 1
    when [eval_fcond c fr.(a) fr.(b)] holds, else 0. *)
val eval_fcond_rf : cond -> float array -> Bytes.t -> int -> int -> int -> unit

val string_of_alu : alu -> string
val string_of_fpu : fpu -> string
val string_of_cond : cond -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
