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
      (** an extra pipeline stage for mapping-table access: taken-branch
          redirects cost one additional cycle (Figure 12 scenarios) *)
  trap_handler : string option;  (** function acting as trap handler *)
  fuel : int;  (** maximum simulated cycles *)
}

let default_mem_channels issue = if issue >= 8 then 4 else 2

let v ?(issue = 4) ?mem_channels ?(lat = Latency.default)
    ?(ifile = Reg.core_only 32) ?(ffile = Reg.core_only 32)
    ?(model = Rc_core.Model.default) ?(extra_stage = false) ?trap_handler
    ?(fuel = 1_000_000_000) () =
  if issue < 1 then invalid_arg "Config.v: issue < 1";
  let mem_channels =
    match mem_channels with Some m -> m | None -> default_mem_channels issue
  in
  if mem_channels < 1 then invalid_arg "Config.v: mem_channels < 1";
  if fuel < 1 then invalid_arg "Config.v: fuel < 1";
  {
    issue;
    mem_channels;
    lat;
    ifile;
    ffile;
    model;
    extra_stage;
    trap_handler;
    fuel;
  }

(** Redirect penalty in cycles paid by a mispredicted branch: one
    front-end bubble, one more with the extra RC decode stage. *)
let mispredict_penalty t = 1 + if t.extra_stage then 1 else 0

let pp ppf t =
  Fmt.pf ppf
    "%d-issue, %d mem ch, load %d, connect %d%s, int %d/%d, fp %d/%d, %a"
    t.issue t.mem_channels t.lat.Latency.load t.lat.Latency.connect
    (if t.extra_stage then ", extra stage" else "")
    t.ifile.Reg.core t.ifile.Reg.total t.ffile.Reg.core t.ffile.Reg.total
    Rc_core.Model.pp t.model
