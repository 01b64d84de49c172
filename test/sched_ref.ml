(* The list scheduler as it stood before its ready heaps and per-source
   edge stamps: a dependence graph that dedupes edges in a hash table
   and links each store to every earlier non-disjoint store, and a pick
   that rescans every instruction for every issue slot and idle cycle.
   Kept as the reference [t_sched] holds [Rc_sched.List_sched] equal
   to, order for order.  No production path calls it. *)

open Rc_isa
module D = Rc_sched.Depgraph

(* Byte range touched by a memory instruction, for disambiguation. *)
let mem_range (i : Insn.t) =
  let off = Int64.to_int i.Insn.imm in
  match i.Insn.op with
  | Opcode.Ld Opcode.W1 | Opcode.St Opcode.W1 -> (off, off + 1)
  | _ -> (off, off + 8)

let mem_base (i : Insn.t) =
  match i.Insn.op with
  | Opcode.Ld _ | Opcode.Fld -> Some i.Insn.srcs.(0)
  | Opcode.St _ | Opcode.Fst -> Some i.Insn.srcs.(1)
  | _ -> None

let build (lat : Latency.t) (insns : Insn.t array) =
  let n = Array.length insns in
  let succs = Array.make n [] and preds = Array.make n [] in
  let have = Hashtbl.create 64 in
  let add_edge src dst l =
    (* The first recorded edge between a pair wins; RAW edges (the only
       ones carrying real latency) are always recorded first for a pair
       because the reader's source scan precedes every later writer. *)
    if src <> dst && not (Hashtbl.mem have (src, dst)) then begin
      Hashtbl.replace have (src, dst) ();
      succs.(src) <- (dst, l) :: succs.(src);
      preds.(dst) <- (src, l) :: preds.(dst)
    end
  in
  (* Register dependences via last-def / uses-since-def tracking. *)
  let key (o : Insn.operand) = (o.Insn.cls, o.Insn.r) in
  let last_def : ((Reg.cls * int), int) Hashtbl.t = Hashtbl.create 32 in
  let uses_since : ((Reg.cls * int), int list) Hashtbl.t = Hashtbl.create 32 in
  (* SP version for memory disambiguation. *)
  let sp_version = ref 0 in
  let last_stores = ref [] (* (index, base_key, base_version, range) *) in
  let loads_since = ref [] in
  let last_barrier = ref (-1) in
  let last_emit = ref (-1) in
  for idx = 0 to n - 1 do
    let i = insns.(idx) in
    if !last_barrier >= 0 then add_edge !last_barrier idx 1;
    (* RAW / WAR *)
    Array.iter
      (fun o ->
        let k = key o in
        (match Hashtbl.find_opt last_def k with
        | Some d -> add_edge d idx (Latency.of_opcode lat insns.(d).Insn.op)
        | None -> ());
        let us = try Hashtbl.find uses_since k with Not_found -> [] in
        Hashtbl.replace uses_since k (idx :: us))
      i.Insn.srcs;
    (match i.Insn.dst with
    | Some o ->
        let k = key o in
        (match Hashtbl.find_opt last_def k with
        | Some d -> add_edge d idx (Latency.of_opcode lat insns.(d).Insn.op)
        | None -> ());
        (match Hashtbl.find_opt uses_since k with
        | Some us -> List.iter (fun u -> add_edge u idx 0) us
        | None -> ());
        Hashtbl.replace last_def k idx;
        Hashtbl.replace uses_since k [];
        if k = (Reg.Int, Reg.sp) then incr sp_version
    | None -> ());
    (* Memory ordering. *)
    if Insn.is_mem i then begin
      let base =
        match mem_base i with Some o -> key o | None -> assert false
      in
      let bver = if base = (Reg.Int, Reg.sp) then !sp_version else -1 in
      let range = mem_range i in
      let disjoint (b2, v2, (lo2, hi2)) =
        base = (Reg.Int, Reg.sp) && b2 = base && bver = v2
        &&
        let lo, hi = range in
        hi <= lo2 || hi2 <= lo
      in
      if Insn.is_store i then begin
        List.iter
          (fun (s, b2, v2, r2) ->
            if not (disjoint (b2, v2, r2)) then add_edge s idx 1)
          !last_stores;
        List.iter
          (fun (l, b2, v2, r2) ->
            if not (disjoint (b2, v2, r2)) then add_edge l idx 0)
          !loads_since;
        last_stores := (idx, base, bver, range) :: !last_stores;
        loads_since := []
      end
      else
        List.iter
          (fun (s, b2, v2, r2) ->
            if not (disjoint (b2, v2, r2)) then add_edge s idx 1)
          !last_stores;
      if Insn.is_load i then loads_since := (idx, base, bver, range) :: !loads_since
    end;
    (* Output stream order. *)
    (match i.Insn.op with
    | Opcode.Emit | Opcode.Femit ->
        if !last_emit >= 0 then add_edge !last_emit idx 0;
        last_emit := idx
    | _ -> ());
    if D.is_barrier i then begin
      for j = 0 to idx - 1 do
        add_edge j idx 1
      done;
      last_barrier := idx
    end
  done;
  (* Pin terminators at the end, in order. *)
  let n_term = ref 0 in
  let continue_ = ref true in
  for idx = n - 1 downto 0 do
    if !continue_ && D.is_terminator insns.(idx) then incr n_term
    else continue_ := false
  done;
  let first_term = n - !n_term in
  for t = first_term to n - 1 do
    for j = 0 to t - 1 do
      if j < first_term || j = t - 1 then add_edge j t 0
    done
  done;
  { D.insns; succs; preds; n_term = !n_term }

(** Longest-path-to-exit priority for list scheduling. *)
let heights t =
  let n = Array.length t.D.insns in
  let h = Array.make n 0 in
  for idx = n - 1 downto 0 do
    List.iter
      (fun (s, l) -> h.(idx) <- max h.(idx) (h.(s) + max 1 l))
      t.D.succs.(idx)
  done;
  h

let schedule_block cfg (insns : Insn.t array) =
  let n = Array.length insns in
  if n <= 1 then insns
  else begin
    let g = build cfg.Rc_sched.List_sched.lat insns in
    let height = heights g in
    let unsched_preds = Array.map List.length g.D.preds in
    let ready_time = Array.make n 0 in
    let scheduled = Array.make n false in
    let order = ref [] in
    let count = ref 0 in
    let cycle = ref 0 in
    while !count < n do
      let slots = ref cfg.Rc_sched.List_sched.width
      and mem = ref cfg.Rc_sched.List_sched.mem_channels in
      let progressed = ref true in
      while !progressed && !slots > 0 do
        progressed := false;
        (* Pick the ready instruction with the greatest height; break
           ties towards original program order. *)
        let best = ref (-1) in
        for idx = n - 1 downto 0 do
          if
            (not scheduled.(idx))
            && unsched_preds.(idx) = 0
            && ready_time.(idx) <= !cycle
            && ((not (Insn.is_mem insns.(idx))) || !mem > 0)
          then
            if
              !best = -1
              || height.(idx) > height.(!best)
              || (height.(idx) = height.(!best) && idx < !best)
            then best := idx
        done;
        if !best >= 0 then begin
          let idx = !best in
          scheduled.(idx) <- true;
          incr count;
          decr slots;
          if Insn.is_mem insns.(idx) then decr mem;
          order := idx :: !order;
          List.iter
            (fun (s, l) ->
              unsched_preds.(s) <- unsched_preds.(s) - 1;
              ready_time.(s) <- max ready_time.(s) (!cycle + l))
            g.D.succs.(idx);
          progressed := true
        end
      done;
      incr cycle
    done;
    let order = Array.of_list (List.rev !order) in
    Array.map (fun idx -> insns.(idx)) order
  end

