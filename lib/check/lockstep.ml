(** Lockstep co-simulation: the cycle-accurate machine against the
    sequential {!Rc_interp.Iexec} oracle on the same image.

    The machine executes functionally at issue, so after every cycle
    its architectural state (registers, maps, PSW, memory, output) must
    equal the oracle's state after the same number of dynamic
    instructions.  We therefore step the oracle by each cycle's issue
    count and compare the complete state at every cycle boundary — a
    strictly stronger check than the basic-block granularity the
    divergence is reported at, for the same price.

    The first disagreement stops the run and is reported with the
    faulting address, enclosing function and block, and a disassembled
    window — not a final-checksum mismatch. *)

open Rc_isa
open Rc_core
module Machine = Rc_machine.Machine
module Timing = Rc_machine.Machine.Timing
module Iexec = Rc_interp.Iexec

type result =
  | Agree of { cycles : int; steps : int }
  | Diverged of Report.t

(* --- state comparison ----------------------------------------------------- *)

(* Floats compare as bit patterns so NaNs and signed zeros count as
   what they are. *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The lowest differing register of each class.  This runs after every
   cycle, so it is a plain loop that stops at the first mismatch and
   allocates nothing until it finds one.  The machine's integer file is
   8-byte little-endian slots ([Machine.t.iregs]); both sides have the
   configuration's file sizes. *)
let find_reg_mismatch (m : Machine.t) (o : Iexec.t) =
  let mi = m.Machine.iregs and oi = o.Iexec.iregs in
  let ni = Array.length oi in
  let p = ref 0 in
  while !p < ni && Int64.equal (Bytes.get_int64_le mi (!p lsl 3)) oi.(!p) do
    incr p
  done;
  if !p < ni then
    let p = !p in
    Some
      ( "ireg",
        Fmt.str "r%d: machine %Ld, oracle %Ld" p
          (Bytes.get_int64_le mi (p lsl 3))
          oi.(p) )
  else
    let mf = m.Machine.fregs and ofr = o.Iexec.fregs in
    let nf = Array.length ofr in
    let p = ref 0 in
    while !p < nf && float_eq mf.(!p) ofr.(!p) do
      incr p
    done;
    if !p < nf then
      let p = !p in
      Some ("freg", Fmt.str "f%d: machine %h, oracle %h" p mf.(p) ofr.(p))
    else None

(* Entry-by-entry, not [Map_table.equal]: the oracle may deliberately
   run a different reset model ([?oracle_model]), and the question is
   whether the architectural mapping state itself diverged. *)
let map_mismatch name (a : Map_table.t) (b : Map_table.t) =
  let bad = ref None in
  for i = Map_table.entries a - 1 downto 0 do
    if
      a.Map_table.read_map.(i) <> b.Map_table.read_map.(i)
      || a.Map_table.write_map.(i) <> b.Map_table.write_map.(i)
    then
      bad :=
        Some
          ( name,
            Fmt.str "%s[%d]: machine r->%d w->%d, oracle r->%d w->%d" name i
              a.Map_table.read_map.(i)
              a.Map_table.write_map.(i)
              b.Map_table.read_map.(i)
              b.Map_table.write_map.(i) )
  done;
  !bad

(* How far earlier checks got through the output stream: the count
   both sides had then, and the oracle's list at that point.  The
   oracle conses new values onto that list, so what it emitted since is
   the front of its list down to it. *)
type seen = { mutable s_n : int; mutable s_list : int64 list }

let seen () = { s_n = 0; s_list = [] }

(* The cells of [l] in front of [old], or -1 when [old] is not a suffix
   of [l]. *)
let rec count_fresh l old k =
  if l == old then k
  else match l with [] -> -1 | _ :: r -> count_fresh r old (k + 1)

(* The lowest of the machine's [out.(i)], [out.(i - 1)], ... that
   differs from the oracle's next [k] values, or [bad]. *)
let rec lowest_mismatch (out : int64 array) l i k bad =
  match l with
  | v :: r when k > 0 ->
      lowest_mismatch out r (i - 1) (k - 1)
        (if Int64.equal out.(i) v then bad else i)
  | _ -> bad

(* The machine's output is a buffer in emission order; the oracle's is
   a reversed list.  Only the values emitted since the check [seen]
   recorded are compared, walking the oracle list backwards down the
   buffer: the lowest differing index, or a count that differs. *)
let output_mismatch seen (m : Machine.t) (o : Iexec.t) =
  let n = m.Machine.out_len and b = o.Iexec.out_rev in
  let fresh = count_fresh b seen.s_list 0 in
  let base, fresh =
    if fresh >= 0 then (seen.s_n, fresh) else (0, count_fresh b [] 0)
  in
  if n <> base + fresh then
    Some (Fmt.str "machine emitted %d values, oracle %d" n (base + fresh))
  else
    let i = lowest_mismatch m.Machine.out b (n - 1) fresh (-1) in
    if i >= 0 then
      Some
        (Fmt.str "output[%d]: machine %Ld, oracle %Ld" i m.Machine.out.(i)
           (List.nth b (n - 1 - i)))
    else begin
      seen.s_n <- n;
      seen.s_list <- b;
      None
    end

let compare_state ?(seen = seen ()) (m : Machine.t) (o : Iexec.t) =
  let halted = m.Machine.timing.Timing.halted in
  if halted <> o.Iexec.halted then
    Some
      ( "halted",
        Fmt.str "machine %shalted, oracle %shalted"
          (if halted then "" else "not ")
          (if o.Iexec.halted then "" else "not ") )
  else if m.Machine.pc <> o.Iexec.pc && not halted then
    Some ("pc", Fmt.str "machine pc %d, oracle pc %d" m.Machine.pc o.Iexec.pc)
  else
    match output_mismatch seen m o with
    | Some d -> Some ("output", d)
    | None -> (
        match find_reg_mismatch m o with
        | Some bad -> Some bad
        | None -> (
            match map_mismatch "imap" m.Machine.imap o.Iexec.imap with
            | Some bad -> Some bad
            | None -> (
                match map_mismatch "fmap" m.Machine.fmap o.Iexec.fmap with
                | Some bad -> Some bad
                | None ->
                    if
                      m.Machine.psw.Psw.map_enable
                      <> o.Iexec.psw.Psw.map_enable
                    then
                      Some
                        ( "psw",
                          Fmt.str "map_enable: machine %b, oracle %b"
                            m.Machine.psw.Psw.map_enable
                            o.Iexec.psw.Psw.map_enable )
                    else None)))

(* The lowest differing address.  Memories are compared whole first;
   only a mismatch pays for the byte scan. *)
let mem_mismatch (m : Machine.t) (o : Iexec.t) =
  let a = m.Machine.mem and b = o.Iexec.mem in
  if Bytes.equal a b then None
  else
    let n = min (Bytes.length a) (Bytes.length b) in
    let i = ref 0 in
    while !i < n && Char.equal (Bytes.get a !i) (Bytes.get b !i) do
      incr i
    done;
    if !i < n then
      Some
        (Fmt.str "mem[0x%x]: machine %d, oracle %d" !i
           (Char.code (Bytes.get a !i))
           (Char.code (Bytes.get b !i)))
    else None

(* --- the lockstep loop ---------------------------------------------------- *)

(** Run [image] to completion on both sides.  [oracle_model] overrides
    the oracle's auto-reset model (used by tests to inject a
    model-semantics divergence on purpose); it defaults to the
    machine's.  [fuel_cycles] bounds the machine run. *)
let run ?oracle_model ?(fuel_cycles = 100_000_000) (cfg : Rc_machine.Config.t)
    (image : Image.t) =
  let m = Machine.create cfg image in
  let st = m.Machine.timing.Timing.stats in
  let o =
    Iexec.create ~arch:true
      ~model:(Option.value oracle_model ~default:cfg.Rc_machine.Config.model)
      ?trap_handler:cfg.Rc_machine.Config.trap_handler
      ~ifile:cfg.Rc_machine.Config.ifile ~ffile:cfg.Rc_machine.Config.ffile
      image
  in
  let seen = seen () in
  let diverged = ref None in
  (try
     while !diverged = None && not m.Machine.timing.Timing.halted do
       if st.Timing.cycles > fuel_cycles then
         failwith "lockstep: machine out of fuel";
       let issued0 = st.Timing.issued in
       let pc0 = m.Machine.pc in
       Machine.run_cycle m;
       let delta = st.Timing.issued - issued0 in
       for _ = 1 to delta do
         Iexec.step o
       done;
       match compare_state ~seen m o with
       | None -> ()
       | Some (field, detail) ->
           (* The faulting instruction is inside the group issued this
              cycle; point the report at the group's start. *)
           diverged :=
             Some
               (Report.locate image
                  (Report.v ~kind:"lockstep" ~field ~pc:pc0
                     ~cycle:st.Timing.cycles detail))
     done
   with
  | Machine.Simulation_error msg ->
      diverged :=
        Some
          (Report.locate image
             (Report.v ~kind:"exec-error" ~field:"machine" ~pc:m.Machine.pc
                ~cycle:st.Timing.cycles
                ("machine raised: " ^ msg)))
  | Iexec.Exec_error msg ->
      diverged :=
        Some
          (Report.locate image
             (Report.v ~kind:"exec-error" ~field:"oracle" ~pc:o.Iexec.pc
                ~cycle:st.Timing.cycles
                ("oracle raised: " ^ msg))));
  match !diverged with
  | Some r -> Diverged r
  | None -> (
      match mem_mismatch m o with
      | Some detail ->
          Diverged
            (Report.v ~kind:"lockstep" ~field:"memory"
               ~cycle:st.Timing.cycles detail)
      | None ->
          Agree
            {
              cycles = st.Timing.cycles;
              steps = o.Iexec.steps;
            })
