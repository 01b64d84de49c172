(** Simulated machine configurations (paper section 5.2).

    The base microarchitecture is an in-order superscalar with
    deterministic latencies (Table 1) and CRAY-1-style register
    interlocking.  Any combination of instructions may issue in parallel
    up to the issue rate, except that memory accesses are limited to the
    memory channels.  A 100% cache hit rate is assumed. *)

open Rc_isa

type t = {
  issue : int;  (** instructions issued per cycle: 1, 2, 4 or 8 *)
  mem_channels : int;  (** 2 for 1/2/4-issue, 4 for 8-issue in the paper *)
  lat : Latency.t;  (** load latency 2/4; connect latency 0/1 *)
  ifile : Reg.file;
  ffile : Reg.file;
  model : Rc_core.Model.t;
  extra_stage : bool;
      (** an extra pipeline stage for mapping-table access: mispredicted
          branches cost one additional cycle (Figure 12 scenarios) *)
  trap_handler : string option;  (** function acting as trap handler *)
  fuel : int;  (** maximum simulated cycles *)
}

(** 2 channels below 8-issue, 4 at 8-issue (paper section 5.2). *)
val default_mem_channels : int -> int

(** Connects dispatch through their own budget of [issue] per cycle:
    they update the mapping table at dispatch, not in a function unit
    (section 2.4), so they never take an issue slot.
    @raise Invalid_argument when [issue], [mem_channels] or [fuel] is
    below 1. *)
val v :
  ?issue:int ->
  ?mem_channels:int ->
  ?lat:Latency.t ->
  ?ifile:Reg.file ->
  ?ffile:Reg.file ->
  ?model:Rc_core.Model.t ->
  ?extra_stage:bool ->
  ?trap_handler:string ->
  ?fuel:int ->
  unit ->
  t

(** Redirect penalty in cycles paid by a mispredicted branch: one
    front-end bubble, one more with the extra RC decode stage. *)
val mispredict_penalty : t -> int

val pp : Format.formatter -> t -> unit
