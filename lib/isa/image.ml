(** The assembler: flattens a machine program into an executable image.

    Instruction addresses are indices into the flat code array; data lives
    in a separate byte-addressed space (globals from [data_base] upward,
    the stack growing down from [stack_top]). *)

type t = {
  code : Insn.t array;
  entry : int;  (** address of the entry function's first instruction *)
  label_addr : (int, int) Hashtbl.t;
  func_addr : (string * int) list;
  global_addr : (string * int) list;
  data_base : int;
  data_end : int;
  stack_top : int;
  mem_size : int;
  data_image : (int * Mcode.init) list;  (** address, initialiser *)
  fingerprint : string;  (** see {!fingerprint} *)
}

let data_base = 0x1000
let stack_reserve = 1 lsl 20
let align8 n = (n + 7) land lnot 7

exception Undefined_label of int
exception Undefined_function of string

(** Write one global's initialiser at [addr].  Words are little-endian
    64-bit; doubles are stored as their IEEE bit patterns. *)
let write_init mem addr (init : Mcode.init) =
  match init with
  | Mcode.Zero -> ()
  | Mcode.Words ws ->
      Array.iteri (fun k w -> Bytes.set_int64_le mem (addr + (8 * k)) w) ws
  | Mcode.Doubles ds ->
      Array.iteri
        (fun k d -> Bytes.set_int64_le mem (addr + (8 * k)) (Int64.bits_of_float d))
        ds
  | Mcode.Bytes s -> Bytes.blit_string s 0 mem addr (String.length s)

let global_address t name =
  try List.assoc name t.global_addr
  with Not_found -> invalid_arg ("Image.global_address: " ^ name)

(** Lay out globals from [data_base], 8-byte aligned, in declaration
    order.  Shared by the assembler and the IR interpreter so both see
    identical addresses.  Returns the address map and the end of the
    data segment. *)
let layout_globals (globals : Mcode.global list) =
  let next = ref data_base in
  let addr =
    List.map
      (fun (g : Mcode.global) ->
        let a = !next in
        next := align8 (!next + g.bytes);
        (g.gname, a))
      globals
  in
  (addr, !next)

let function_address t name =
  try List.assoc name t.func_addr with Not_found -> raise (Undefined_function name)

(* --- fingerprint ---------------------------------------------------------

   Content hash of everything that determines an image's execution —
   the trace-replay engine's cache key.  The address tables are derived
   from [code] and need not be hashed.

   The replay engine asks for the fingerprint of every cell it
   considers — more than a thousand calls per sweep, each on a freshly
   scheduled image — so the hash must cost microseconds, not the
   ~100 µs a marshalled MD5 digest does.  Two independent polynomial
   hashes over the image's scalar content (odd multipliers mod 2^63,
   FNV-style xor-multiply step) give ~126 bits of accidental-collision
   resistance for a single linear walk; the replay equivalence suite
   (t_replay, @replay-smoke) bit-checks results, so a collision could
   not corrupt tables silently.

   {!assemble} hashes once and keeps the result in the image (20-55 µs
   per kernel), so the service's repeated queries on one cached image
   read a field.  Not an ephemeron table keyed by the image: in OCaml
   5.1 a lookup keeps alive, for the current major cycle, every key it
   compares, and with one lookup per request dead images were never
   reclaimed (the heap grew without bound under never-repeated
   configurations). *)

type fp_state = { mutable h1 : int; mutable h2 : int }

let[@inline] mix s x =
  s.h1 <- (s.h1 lxor x) * 0x100000001b3;
  s.h2 <- (s.h2 lxor x) * 0x10000000233

let mix64 s v =
  mix s (Int64.to_int v);
  mix s (Int64.to_int (Int64.shift_right_logical v 32))

let mix_string s str =
  mix s (String.length str);
  String.iter (fun c -> mix s (Char.code c)) str

let mix_operand s ({ cls; r } : Insn.operand) =
  mix s (match cls with Reg.Int -> 17 | Reg.Float -> 23);
  mix s r

let mix_insn s (i : Insn.t) =
  (* [Opcode.t] is a shallow variant: the generic hash is total and
     cheap on it, and total order of the remaining scalar fields pins
     the rest of the instruction. *)
  mix s (Hashtbl.hash i.Insn.op);
  (match i.Insn.dst with
  | None -> mix s 0
  | Some o ->
      mix s 1;
      mix_operand s o);
  mix s (Array.length i.Insn.srcs);
  Array.iter (mix_operand s) i.Insn.srcs;
  mix64 s i.Insn.imm;
  mix64 s (Int64.bits_of_float i.Insn.fimm);
  mix s i.Insn.target;
  mix s (Bool.to_int i.Insn.hint);
  mix s (Hashtbl.hash i.Insn.tag);
  mix s (Array.length i.Insn.connects);
  Array.iter
    (fun ({ cmap; ri; rp; ccls } : Insn.connect) ->
      mix s (match cmap with Insn.Read -> 29 | Insn.Write -> 31);
      mix s ri;
      mix s rp;
      mix s (match ccls with Reg.Int -> 17 | Reg.Float -> 23))
    i.Insn.connects

let mix_init s (init : Mcode.init) =
  match init with
  | Mcode.Zero -> mix s 5
  | Mcode.Words a ->
      mix s 7;
      mix s (Array.length a);
      Array.iter (mix64 s) a
  | Mcode.Doubles a ->
      mix s 11;
      mix s (Array.length a);
      Array.iter (fun f -> mix64 s (Int64.bits_of_float f)) a
  | Mcode.Bytes b ->
      mix s 13;
      mix_string s b

let fp_compute ~entry ~stack_top ~mem_size code data_image =
  let s = { h1 = 0x15ee7; h2 = 0x2a9d3 } in
  mix s entry;
  mix s stack_top;
  mix s mem_size;
  mix s (Array.length code);
  Array.iter (mix_insn s) code;
  List.iter
    (fun (addr, init) ->
      mix s addr;
      mix_init s init)
    data_image;
  Printf.sprintf "%015x%015x" (s.h1 land max_int) (s.h2 land max_int)

(** Lay out globals, flatten functions block by block, and patch branch
    targets.  [Jsr] targets must already be label ids of function entry
    blocks (the code generator emits calls via entry labels). *)
let assemble (prog : Mcode.t) =
  let global_addr, data_end = layout_globals prog.globals in
  let stack_top = align8 (data_end + stack_reserve) in
  let mem_size = stack_top + 4096 in
  let data_image =
    List.map
      (fun (g : Mcode.global) -> (List.assoc g.gname global_addr, g.init))
      prog.globals
  in
  (* Code layout: entry function first so execution can start at 0. *)
  let funcs =
    let entry_fn = Mcode.find_func prog prog.entry in
    entry_fn :: List.filter (fun (f : Mcode.func) -> f.name <> prog.entry) prog.funcs
  in
  let label_addr = Hashtbl.create 64 in
  let addr = ref 0 in
  List.iter
    (fun (f : Mcode.func) ->
      List.iter
        (fun (b : Mcode.block) ->
          Hashtbl.replace label_addr b.label !addr;
          addr := !addr + List.length b.insns)
        f.blocks)
    funcs;
  let code = Array.make !addr (Insn.nop ()) in
  let pos = ref 0 in
  List.iter
    (fun (f : Mcode.func) ->
      List.iter
        (fun (b : Mcode.block) ->
          List.iter
            (fun (i : Insn.t) ->
              let patched =
                if i.Insn.target = Insn.no_target then i
                else
                  match Hashtbl.find_opt label_addr i.Insn.target with
                  | Some a -> { i with Insn.target = a }
                  | None -> raise (Undefined_label i.Insn.target)
              in
              code.(!pos) <- patched;
              incr pos)
            b.insns)
        f.blocks)
    funcs;
  let func_addr =
    List.map
      (fun (f : Mcode.func) -> (f.name, Hashtbl.find label_addr f.entry_label))
      funcs
  in
  {
    code;
    entry = 0;
    label_addr;
    func_addr;
    global_addr;
    data_base;
    data_end;
    stack_top;
    mem_size;
    data_image;
    fingerprint = fp_compute ~entry:0 ~stack_top ~mem_size code data_image;
  }

let fingerprint t = t.fingerprint
