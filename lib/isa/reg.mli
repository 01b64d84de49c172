(** Register identities, classes and file configurations.

    The instruction set can name [m] registers per class (the {e core}
    section); the machine may hold [n >= m] physical registers.
    Physical registers [0 .. m-1] form the core section; [m .. n-1] the
    extended section.  The {e home location} of architectural index [i]
    is physical register [i]. *)

type cls = Int | Float

val pp_cls : Format.formatter -> cls -> unit
val equal_cls : cls -> cls -> bool

(** Configuration of one register file (one class). *)
type file = {
  core : int;  (** number of architecturally nameable registers, [m] *)
  total : int;  (** number of physical registers, [n >= m] *)
}

(** @raise Invalid_argument when [core < 4] or [total < core]. *)
val file : core:int -> total:int -> file

(** A file with no extended section. *)
val core_only : int -> file

val extended_count : file -> int
val is_core : file -> int -> bool
val is_extended : file -> int -> bool

(** Home location of architectural index [i]: physical register [i]. *)
val home : int -> int

(** {2 Integer register roles}

    Paper section 5.1: four integer registers are reserved as spill
    registers and one as the stack pointer. *)

val zero : int
val sp : int
val spill_base : int
val spill_count : int
val ra : int
val rv : int
val first_alloc_int : int

(** {2 Floating-point register roles}

    Two reserved spill temporaries (documented deviation, DESIGN.md
    section 10) and a return-value register. *)

val fspill_base : int
val fspill_count : int
val frv : int
val first_alloc_float : int

val first_alloc : cls -> int
val spill_temps : cls -> int array

(** Architectural indices the connect-insertion pass must never pick as
    victims: zero, SP and RA keep their home connection at all times. *)
val pinned_indices : cls -> int list

(** A half-open interval [\[lo, hi)] of physical registers, empty when
    [hi <= lo]. *)
type range = { lo : int; hi : int }

val mem : range -> int -> bool

(** Number of registers in a range. *)
val size : range -> int

(** The allocatable registers of a file as three disjoint ranges that
    cover [\[first_alloc, total)]: the caller-saved core
    [\[first_alloc, first_callee)], the callee-saved core
    [\[first_callee, core)] (the upper half of the allocatable core
    section) and the extended section [\[max first_alloc core, total)].
    Extended registers are effectively caller-saved (paper section
    4.1). *)
type partition = { caller : range; callee : range; extended : range }

val partition : cls -> file -> partition

(** Membership in the callee-saved core range. *)
val is_callee_saved : cls -> file -> int -> bool

val pp_phys : cls -> Format.formatter -> int -> unit
val pp_arch : cls -> Format.formatter -> int -> unit
