(** Register identities, classes and file configurations.

    The instruction set can name [m] registers per class (the {e core}
    section); the machine may hold [n >= m] physical registers.  Physical
    registers [0 .. m-1] form the core section; [m .. n-1] form the
    extended section.  The {e home location} of architectural index [i] is
    physical register [i]. *)

type cls = Int | Float

let pp_cls ppf = function
  | Int -> Fmt.string ppf "int"
  | Float -> Fmt.string ppf "float"

let equal_cls a b =
  match a, b with
  | Int, Int | Float, Float -> true
  | Int, Float | Float, Int -> false

(** Configuration of one register file (one class). *)
type file = {
  core : int;  (** number of architecturally nameable registers, [m] *)
  total : int;  (** number of physical registers, [n >= m] *)
}

let file ~core ~total =
  if core < 4 then invalid_arg "Reg.file: core < 4";
  if total < core then invalid_arg "Reg.file: total < core";
  { core; total }

(** A file with no extended section. *)
let core_only m = file ~core:m ~total:m

let extended_count f = f.total - f.core
let is_core f p = p >= 0 && p < f.core
let is_extended f p = p >= f.core && p < f.total

(** Home location of architectural index [i]: physical register [i]. *)
let home i = i

(* Integer register roles (paper section 5.1: four integer registers are
   reserved as spill registers and one as the stack pointer). *)

let zero = 0
let sp = 1
let spill_base = 2
let spill_count = 4
let ra = 6
let rv = 7
let first_alloc_int = 8

(* Floating-point register roles.  The paper reserves spill temporaries
   only in the integer file; spill-everywhere reloads need FP temporaries
   too, so we reserve two (documented deviation, DESIGN.md section 10). *)

let fspill_base = 0
let fspill_count = 2
let frv = 2
let first_alloc_float = 3

let first_alloc = function
  | Int -> first_alloc_int
  | Float -> first_alloc_float

let spill_temps = function
  | Int -> Array.init spill_count (fun k -> spill_base + k)
  | Float -> Array.init fspill_count (fun k -> fspill_base + k)

(** Architectural indices that the connect-insertion pass must never pick
    as victims: the zero register, the stack pointer and the return
    address register keep their home connection at all times. *)
let pinned_indices = function
  | Int -> [ zero; sp; ra ]
  | Float -> []

(** A half-open interval [\[lo, hi)] of physical registers, empty when
    [hi <= lo]. *)
type range = { lo : int; hi : int }

let mem r p = r.lo <= p && p < r.hi
let size r = max 0 (r.hi - r.lo)

(** The allocatable registers of a file, split three ways: the lower
    half of the allocatable core section is caller-saved, the upper half
    callee-saved, and extended registers are effectively caller-saved
    (they must be reconnected to be spilled, paper section 4.1).
    Registers below [first_alloc] are reserved and in no partition. *)
type partition = { caller : range; callee : range; extended : range }

let partition cls f =
  let lo = first_alloc cls in
  let first_callee = lo + (max 0 (f.core - lo) / 2) in
  let ext = max lo f.core in
  {
    caller = { lo; hi = first_callee };
    callee = { lo = first_callee; hi = max first_callee f.core };
    extended = { lo = ext; hi = max ext f.total };
  }

let is_callee_saved cls f p = mem (partition cls f).callee p

let pp_phys cls ppf p =
  match cls with
  | Int -> Fmt.pf ppf "Rp%d" p
  | Float -> Fmt.pf ppf "Fp%d" p

let pp_arch cls ppf i =
  match cls with
  | Int -> Fmt.pf ppf "r%d" i
  | Float -> Fmt.pf ppf "f%d" i
