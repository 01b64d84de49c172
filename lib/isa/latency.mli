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

(** 2-cycle loads, zero-cycle connects. *)
val default : t

(** Largest load latency a configuration may ask for: 64 cycles. *)
val max_load : int

(** @raise Invalid_argument when [load] is below 1 or above {!max_load},
    or [connect] is not 0/1. *)
val v : ?load:int -> ?connect:int -> unit -> t

val int_alu : int
val int_multiply : int
val int_divide : int
val branch : int
val store : int
val fp_alu : int
val fp_conversion : int
val fp_multiply : int
val fp_divide : int

(** Execution latency of an opcode under this configuration. *)
val of_opcode : t -> Opcode.t -> int

(** Rows of Table 1, for the [table1] bench target. *)
val table1 : t -> (string * int) list
