(** Deterministic instruction latencies — Table 1 of the paper.

    {v
    INT ALU       1        FP ALU         3
    INT multiply  3        FP conversion  3
    INT divide    10       FP multiply    3
    branch        1/1-slot FP divide      10
    memory load   2 or 4   memory store   1
    v}

    The load latency (2 or 4 cycles) and the connect latency (0 or 1
    cycle, paper section 2.4 / Figure 12) are configuration points. *)

type t = {
  load : int;  (** memory load latency, 2 or 4 in the paper *)
  connect : int;  (** connect instruction latency, 0 or 1 *)
}

let default = { load = 2; connect = 0 }

(* 16x the paper's 4-cycle load: every registry kernel still simulates
   in well under a second there, where an unbounded latency lets one
   request run until the machine's fuel is spent. *)
let max_load = 64

let v ?(load = 2) ?(connect = 0) () =
  if load < 1 then invalid_arg "Latency.v: load < 1";
  if load > max_load then invalid_arg "Latency.v: load > max_load";
  if connect < 0 || connect > 1 then invalid_arg "Latency.v: connect not 0/1";
  { load; connect }

let int_alu = 1
let int_multiply = 3
let int_divide = 10
let branch = 1
let store = 1
let fp_alu = 3
let fp_conversion = 3
let fp_multiply = 3
let fp_divide = 10

let of_opcode t (op : Opcode.t) =
  match op with
  | Alu (Mul | Div | Rem) | Alui (Mul | Div | Rem) -> (
      match op with
      | Alu Mul | Alui Mul -> int_multiply
      | _ -> int_divide)
  | Alu _ | Alui _ | Li | Move -> int_alu
  | Fli | Fmove -> int_alu
  | Fpu (Fmul | Fdiv) -> ( match op with Fpu Fmul -> fp_multiply | _ -> fp_divide)
  | Fpu (Fadd | Fsub | Fneg | Fabs) -> fp_alu
  | Itof | Ftoi -> fp_conversion
  | Fcmp _ -> fp_alu
  | Ld _ | Fld -> t.load
  | St _ | Fst -> store
  | Br _ | Jmp | Jsr | Rts | Trap | Rfe -> branch
  | Connect -> t.connect
  | Emit | Femit | Mapen | Mfmap _ | Mtmap _ -> int_alu
  | Halt | Nop -> int_alu

(** Rows of Table 1, for the [table1] bench target. *)
let table1 t =
  [
    ("INT ALU", int_alu);
    ("INT multiply", int_multiply);
    ("INT divide", int_divide);
    ("branch", branch);
    ("memory load", t.load);
    ("memory store", store);
    ("FP ALU", fp_alu);
    ("FP conversion", fp_conversion);
    ("FP multiply", fp_multiply);
    ("FP divide", fp_divide);
  ]
