(** Opcodes of the MIPS-flavoured target instruction set, extended with
    general compare-and-branch opcodes (paper section 5.2) and the
    register-connection instructions (paper section 2.2). *)

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

(** Memory access width: full 8-byte words or single bytes (for the
    string-processing workloads). *)
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
  | Jsr  (** call: writes RA, jumps to target, resets the register map *)
  | Rts  (** return: jumps to RA, resets the register map *)
  | Connect  (** updates the register mapping table (payload on the insn) *)
  | Emit  (** append int source to the observable output stream *)
  | Femit  (** append float source to the observable output stream *)
  | Trap  (** enter the trap handler, clearing the PSW map-enable flag *)
  | Rfe  (** return from exception, restoring the saved PSW *)
  | Mapen  (** privileged: set the PSW map-enable flag from the immediate *)
  | Mfmap of map_kind
      (** privileged: dst <- integer mapping-table entry [imm]; reads the
          table even when the PSW map-enable flag is clear, so trap
          handlers can save connection state (paper section 4.3) *)
  | Mtmap of map_kind
      (** privileged: integer mapping-table entry [imm] <- register
          source; the dynamic counterpart of a connect, used to restore
          saved connection state *)
  | Halt
  | Nop

let is_branch = function Br _ | Jmp | Jsr | Rts | Trap | Rfe -> true | _ -> false
let is_load = function Ld _ | Fld -> true | _ -> false
let is_store = function St _ | Fst -> true | _ -> false
let is_mem op = is_load op || is_store op
let is_connect = function Connect -> true | _ -> false
let is_call = function Jsr -> true | _ -> false

let[@inline] eval_cond c (a : int64) (b : int64) =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0

let[@inline] eval_fcond c (a : float) (b : float) =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** Division semantics: division or remainder by zero yields zero rather
    than trapping, so every workload is total. *)
let[@inline] eval_alu op (a : int64) (b : int64) =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then 0L else div a b
  | Rem -> if equal b 0L then 0L else rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Sll -> shift_left a (to_int (logand b 63L))
  | Srl -> shift_right_logical a (to_int (logand b 63L))
  | Sra -> shift_right a (to_int (logand b 63L))
  | Slt -> if compare a b < 0 then 1L else 0L
  | Seq -> if equal a b then 1L else 0L

let[@inline] eval_fpu op (a : float) (b : float) =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> if b = 0.0 then 0.0 else a /. b
  | Fneg -> -.a
  | Fabs -> Float.abs a

(* --- register-file forms ------------------------------------------------- *)

(* The simulator keeps its integer registers in a [Bytes.t], one 8-byte
   little-endian slot per physical register, and its FP registers in a
   flat [float array].  The forms below read their source registers,
   evaluate with the evaluators above (inlined here) and write the
   destination in place, so a value is never boxed between register
   read and register write.  Their arguments are register indices:
   plain integers, which cross a module boundary unboxed even when the
   call is not inlined (the dev build passes [-opaque]). *)

let[@inline] get_reg rf p =
  if p = Reg.zero then 0L else Bytes.get_int64_le rf (p lsl 3)

let[@inline] set_reg rf p v =
  if p <> Reg.zero then Bytes.set_int64_le rf (p lsl 3) v

let eval_alu_rf op rf d a b =
  set_reg rf d (eval_alu op (get_reg rf a) (get_reg rf b))

let eval_alui_rf op rf d a imm = set_reg rf d (eval_alu op (get_reg rf a) imm)
let eval_cond_rf c rf a b = eval_cond c (get_reg rf a) (get_reg rf b)

let eval_fpu_rf op (fr : float array) d a b =
  fr.(d) <- eval_fpu op fr.(a) (if b < 0 then 0.0 else fr.(b))

let eval_fcond_rf c (fr : float array) rf d a b =
  set_reg rf d (if eval_fcond c fr.(a) fr.(b) then 1L else 0L)

let string_of_alu = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Seq -> "seq"

let string_of_fpu = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fneg -> "fneg"
  | Fabs -> "fabs"

let string_of_cond = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let to_string = function
  | Alu a -> string_of_alu a
  | Alui a -> string_of_alu a ^ "i"
  | Li -> "li"
  | Move -> "move"
  | Fli -> "fli"
  | Fmove -> "fmove"
  | Fpu f -> string_of_fpu f
  | Itof -> "itof"
  | Ftoi -> "ftoi"
  | Fcmp c -> "fcmp." ^ string_of_cond c
  | Ld W8 -> "ld"
  | Ld W1 -> "lb"
  | St W8 -> "st"
  | St W1 -> "sb"
  | Fld -> "fld"
  | Fst -> "fst"
  | Br c -> "b" ^ string_of_cond c
  | Jmp -> "jmp"
  | Jsr -> "jsr"
  | Rts -> "rts"
  | Connect -> "connect"
  | Emit -> "emit"
  | Femit -> "femit"
  | Trap -> "trap"
  | Rfe -> "rfe"
  | Mapen -> "mapen"
  | Mfmap Read -> "mfmapr"
  | Mfmap Write -> "mfmapw"
  | Mtmap Read -> "mtmapr"
  | Mtmap Write -> "mtmapw"
  | Halt -> "halt"
  | Nop -> "nop"

let pp ppf op = Fmt.string ppf (to_string op)
