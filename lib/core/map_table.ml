(** The register mapping table (paper section 2.1).

    An [m]-entry table for one register class.  Each entry holds a
    {e read map} and a {e write map}: the physical register used when the
    architectural index appears as a source or as a destination,
    respectively.  Separate read and write maps allow more efficient use
    of a limited number of entries, which matters most for small [m].

    One table instance serves one register class; a machine holds one per
    class. *)

open Rc_isa

type t = {
  model : Model.t;
  file : Reg.file;
  read_map : int array;  (** length [file.core] *)
  write_map : int array;
  mutable moved : bool;
      (** some entry may point away from home.  Invariant: when clear,
          every entry is home.  Connects and [load] set it, [reset]
          clears it; automatic connections need not set it, because
          they move entries home or copy the write map into the read
          map, and a write map away from home means a connect set the
          flag already. *)
  mutable connects_applied : int;  (** statistics *)
  mutable auto_resets : int;
}

let entries t = t.file.Reg.core

let create ?(model = Model.default) (file : Reg.file) =
  {
    model;
    file;
    read_map = Array.init file.Reg.core Reg.home;
    write_map = Array.init file.Reg.core Reg.home;
    moved = false;
    connects_applied = 0;
    auto_resets = 0;
  }

let copy t =
  {
    t with
    read_map = Array.copy t.read_map;
    write_map = Array.copy t.write_map;
  }

let check_index t i =
  if i < 0 || i >= entries t then invalid_arg "Map_table: index out of range"

let check_phys t p =
  if p < 0 || p >= t.file.Reg.total then
    invalid_arg "Map_table: physical register out of range"

(** Physical register read when architectural index [i] is a source. *)
let read t i =
  check_index t i;
  t.read_map.(i)

(** Physical register written when architectural index [i] is a
    destination. *)
let write t i =
  check_index t i;
  t.write_map.(i)

(** [connect_use t ~ri ~rp]: redirect all subsequent reads of index [ri]
    to physical register [rp]. *)
let connect_use t ~ri ~rp =
  check_index t ri;
  check_phys t rp;
  t.read_map.(ri) <- rp;
  t.moved <- true;
  t.connects_applied <- t.connects_applied + 1

(** [connect_def t ~ri ~rp]: redirect all subsequent writes of index
    [ri] to physical register [rp]. *)
let connect_def t ~ri ~rp =
  check_index t ri;
  check_phys t rp;
  t.write_map.(ri) <- rp;
  t.moved <- true;
  t.connects_applied <- t.connects_applied + 1

(** Apply one update of a (possibly multiple-) connect instruction. *)
let apply t (c : Insn.connect) =
  match c.Insn.cmap with
  | Insn.Read -> connect_use t ~ri:c.Insn.ri ~rp:c.Insn.rp
  | Insn.Write -> connect_def t ~ri:c.Insn.ri ~rp:c.Insn.rp

(** Automatic register connection performed as a side effect of a
    register write through index [i] (paper Figure 3).  Must be called
    {e after} the write's physical destination has been taken from the
    old write map.  [auto_resets] counts only writes that actually
    changed a map entry: a reset of an entry already at home (the
    steady state of core-section traffic) is not an automatic
    connection. *)
let note_write t i =
  check_index t i;
  match t.model with
  | Model.No_reset -> ()
  | Model.Write_reset ->
      if t.write_map.(i) <> Reg.home i then begin
        t.write_map.(i) <- Reg.home i;
        t.auto_resets <- t.auto_resets + 1
      end
  | Model.Write_reset_read_update ->
      if t.read_map.(i) <> t.write_map.(i) || t.write_map.(i) <> Reg.home i
      then begin
        t.read_map.(i) <- t.write_map.(i);
        t.write_map.(i) <- Reg.home i;
        t.auto_resets <- t.auto_resets + 1
      end
  | Model.Read_write_reset ->
      if t.read_map.(i) <> Reg.home i || t.write_map.(i) <> Reg.home i
      then begin
        t.read_map.(i) <- Reg.home i;
        t.write_map.(i) <- Reg.home i;
        t.auto_resets <- t.auto_resets + 1
      end

(** Load saved maps (a context restore, paper section 4.2): entries
    [0 .. length - 1] of each map take the saved values. *)
let load t ~read ~write =
  Array.blit read 0 t.read_map 0 (Array.length read);
  Array.blit write 0 t.write_map 0 (Array.length write);
  t.moved <- true

(** Reset every entry to its home location: performed by hardware at
    power-up and by [jsr]/[rts] (paper section 4.1).  Constant time
    when no entry has moved since the last reset, which is the common
    case of a call under a large file: only code with connects moves
    entries. *)
let reset t =
  if t.moved then begin
    for i = 0 to entries t - 1 do
      t.read_map.(i) <- Reg.home i;
      t.write_map.(i) <- Reg.home i
    done;
    t.moved <- false
  end

let is_home t =
  let ok = ref true in
  for i = 0 to entries t - 1 do
    if t.read_map.(i) <> Reg.home i || t.write_map.(i) <> Reg.home i then
      ok := false
  done;
  !ok

let equal a b =
  a.model = b.model && a.file = b.file
  && a.read_map = b.read_map
  && a.write_map = b.write_map

(** First architectural index whose read map currently points at physical
    register [p], if any. *)
let index_reading t p =
  let rec go i =
    if i >= entries t then None
    else if t.read_map.(i) = p then Some i
    else go (i + 1)
  in
  go 0

let index_writing t p =
  let rec go i =
    if i >= entries t then None
    else if t.write_map.(i) = p then Some i
    else go (i + 1)
  in
  go 0

let pp ppf t =
  for i = 0 to entries t - 1 do
    Fmt.pf ppf "%2d: read->%d write->%d@." i t.read_map.(i) t.write_map.(i)
  done
