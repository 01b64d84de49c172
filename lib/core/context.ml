(** Process-context save and restore (paper section 4.2).

    Programs compiled for the extended architecture need core registers,
    extended registers {e and} the connection information preserved
    across a context switch.  Programs compiled for the original
    architecture only need the core registers; the PSW
    [extended_arch] flag lets the context-switch routine pick the smaller
    format. *)

open Rc_isa

(** A view of the register state of one machine, shared with the context
    switcher.  The files are the machine's own, full physical files and
    the tables are live: restoring writes through them.  [iregs] has
    {!Opcode.get_reg}'s layout, one 8-byte slot per register. *)
type machine_view = {
  iregs : Bytes.t;
  fregs : float array;
  imap : Map_table.t;
  fmap : Map_table.t;
  psw : Psw.t;
}

type format = Original | Extended

type t = {
  format : format;
  saved_psw : Psw.t;
  core_iregs : int64 array;
  core_fregs : float array;
  ext_iregs : int64 array;  (** empty in [Original] format *)
  ext_fregs : float array;
  iread : int array;  (** connection information; empty in [Original] *)
  iwrite : int array;
  fread : int array;
  fwrite : int array;
}

let format_of_psw (psw : Psw.t) =
  if psw.Psw.extended_arch then Extended else Original

(** Number of 64-bit words the saved context occupies — the payoff of the
    dual-format optimisation is visible here. *)
let words t =
  Array.length t.core_iregs + Array.length t.core_fregs
  + Array.length t.ext_iregs + Array.length t.ext_fregs
  + Array.length t.iread + Array.length t.iwrite + Array.length t.fread
  + Array.length t.fwrite + 1 (* psw *)

let save (m : machine_view) =
  let icore = m.imap.Map_table.file.Reg.core in
  let fcore = m.fmap.Map_table.file.Reg.core in
  let format = format_of_psw m.psw in
  let sub_ext a core = Array.sub a core (Array.length a - core) in
  let isub lo n = Array.init n (fun k -> Opcode.get_reg m.iregs (lo + k)) in
  let core_iregs = isub 0 icore in
  match format with
  | Original ->
      {
        format;
        saved_psw = Psw.copy m.psw;
        core_iregs;
        core_fregs = Array.sub m.fregs 0 fcore;
        ext_iregs = [||];
        ext_fregs = [||];
        iread = [||];
        iwrite = [||];
        fread = [||];
        fwrite = [||];
      }
  | Extended ->
      {
        format;
        saved_psw = Psw.copy m.psw;
        core_iregs;
        core_fregs = Array.sub m.fregs 0 fcore;
        ext_iregs = isub icore (m.imap.Map_table.file.Reg.total - icore);
        ext_fregs = sub_ext m.fregs fcore;
        iread = Array.copy m.imap.Map_table.read_map;
        iwrite = Array.copy m.imap.Map_table.write_map;
        fread = Array.copy m.fmap.Map_table.read_map;
        fwrite = Array.copy m.fmap.Map_table.write_map;
      }

let restore (m : machine_view) (c : t) =
  let icore = m.imap.Map_table.file.Reg.core in
  let fcore = m.fmap.Map_table.file.Reg.core in
  let iblit a lo = Array.iteri (fun k v -> Opcode.set_reg m.iregs (lo + k) v) a in
  iblit c.core_iregs 0;
  Array.blit c.core_fregs 0 m.fregs 0 (Array.length c.core_fregs);
  (match c.format with
  | Original ->
      (* A program compiled for the original architecture runs with all
         maps at home; restoring them keeps execution correct even if the
         previous occupant of the processor had live connections. *)
      Map_table.reset m.imap;
      Map_table.reset m.fmap
  | Extended ->
      iblit c.ext_iregs icore;
      Array.blit c.ext_fregs 0 m.fregs fcore (Array.length c.ext_fregs);
      Map_table.load m.imap ~read:c.iread ~write:c.iwrite;
      Map_table.load m.fmap ~read:c.fread ~write:c.fwrite);
  m.psw.Psw.map_enable <- c.saved_psw.Psw.map_enable;
  m.psw.Psw.extended_arch <- c.saved_psw.Psw.extended_arch
