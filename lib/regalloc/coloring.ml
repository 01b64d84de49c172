(** Profile-guided priority colouring (Chow-style, as the paper's "graph
    coloring algorithm that utilizes profile information in its priority
    calculations", section 5.1).

    Live ranges are coloured hottest-first.  Each range has an ordered
    colour preference realising the paper's allocation policy: "place
    the most important variables into the core registers, while storing
    the less important variables in the extended registers or memory"
    (section 3), with values live across calls preferring callee-saved
    core registers to avoid save/restore traffic. *)

open Rc_isa
open Rc_ir
open Rc_dataflow

type config = {
  ifile : Reg.file;
  ffile : Reg.file;
  aggressive_extended : bool;
      (** send write-heavy ranges to the extended section when the core
          is scarce — profitable with zero-cycle connects, where the
          connect-def per write is nearly free; a compiler targeting
          1-cycle connects keeps values in the core instead *)
  partition : Reg.cls -> Reg.partition;
      (** registers available for allocation, per class, partitioned *)
}

let config ?(aggressive_extended = true) ~ifile ~ffile () =
  let ipart = Reg.partition Reg.Int ifile
  and fpart = Reg.partition Reg.Float ffile in
  {
    ifile;
    ffile;
    aggressive_extended;
    partition = (function Reg.Int -> ipart | Reg.Float -> fpart);
  }

(* Ranges live across a call prefer callee-saved registers, to avoid
   save/restore traffic.  Other ranges see the core as one merged
   segment: restricting short-lived ranges to the caller-saved half
   would halve the effective file and reintroduce the very reuse
   serialisation a big file is meant to remove. *)
type order = Call_crossing | Core_first | Extended_first

(* Within a preference segment, pick the least-recently-assigned free
   colour.  First-fit would funnel every short-lived range through the
   same few registers, and the resulting WAR/WAW dependences serialise
   an in-order superscalar; spreading assignments is the compiler-side
   register renaming that lets a large file pay off — and with a small
   file the forced reuse is precisely the scheduling restriction the
   paper measures.

   The rule: in the first segment that has a free register, take the
   lowest never-used register, else the free register with the oldest
   stamp.  A segment lists its partitions in index order, so its lowest
   never-used register is that of its first partition that has one.
   Within a partition the never-used registers are always a suffix
   [\[fresh, hi)]: a taken register holds an interfering range, which
   was assigned (and stamped) earlier in the same class, because
   interference is recorded between same-class ranges only.  So
   [fresh] is free whenever it is below [hi], and a pick never walks
   the file: it costs a set lookup plus one step per taken neighbour. *)
module Pick = struct
  (* (stamp, register); stamps are unique, so they alone order a set *)
  module By_stamp = Set.Make (struct
    type t = int * int

    let compare (a, _) (b, _) = Int.compare a b
  end)

  (* One partition of one class: never-used [\[fresh, hi)], used ones
     by stamp. *)
  type part = { hi : int; mutable fresh : int; mutable used : By_stamp.t }
  type parts = { caller : part; callee : part; extended : part }
  type t = { int : parts; float : parts; mutable stamp : int }

  let create cfg =
    let part (r : Reg.range) =
      { hi = r.Reg.hi; fresh = r.Reg.lo; used = By_stamp.empty }
    in
    let parts cls =
      let pt = cfg.partition cls in
      {
        caller = part pt.Reg.caller;
        callee = part pt.Reg.callee;
        extended = part pt.Reg.extended;
      }
    in
    { int = parts Reg.Int; float = parts Reg.Float; stamp = 0 }

  let segments t cls order =
    let c = match cls with Reg.Int -> t.int | Reg.Float -> t.float in
    match order with
    | Call_crossing -> [ [ c.callee ]; [ c.caller ]; [ c.extended ] ]
    | Core_first -> [ [ c.caller; c.callee ]; [ c.extended ] ]
    | Extended_first -> [ [ c.extended ]; [ c.caller; c.callee ] ]

  let oldest_free ~taken best pt =
    match Seq.find (fun (_, p) -> not (taken p)) (By_stamp.to_seq pt.used) with
    | Some ((s, _) as e) -> (
        match best with
        | Some (_, (best_s, _)) when best_s < s -> best
        | _ -> Some (pt, e))
    | None -> best

  let rec choose ~taken = function
    | [] -> None
    | seg :: rest -> (
        match List.find_opt (fun pt -> pt.fresh < pt.hi) seg with
        | Some pt ->
            pt.fresh <- pt.fresh + 1;
            Some (pt, pt.fresh - 1)
        | None -> (
            match List.fold_left (oldest_free ~taken) None seg with
            | Some (pt, ((_, p) as e)) ->
                pt.used <- By_stamp.remove e pt.used;
                Some (pt, p)
            | None -> choose ~taken rest))

  let pick t cls order ~taken =
    match choose ~taken (segments t cls order) with
    | None -> None
    | Some (pt, p) ->
        t.stamp <- t.stamp + 1;
        pt.used <- By_stamp.add (t.stamp, p) pt.used;
        Some p
end

(** Profile-weighted use and definition counts of each virtual register.
    Their sum is the classic spill cost (every occurrence would become a
    memory access); their difference ranks {e core affinity} under RC:
    read-mostly values (loop invariants) gain the most from a core
    register — their reads are free and they are never rewritten —
    while frequently-written temporaries are better renamed across the
    large extended section at the price of a connect-def per write. *)
let use_def_weights (f : Func.t) (profile : Rc_interp.Profile.t) =
  let uses = Vreg.Tbl.create 64 and defs = Vreg.Tbl.create 64 in
  let bump tbl v w =
    Vreg.Tbl.replace tbl v (w + try Vreg.Tbl.find tbl v with Not_found -> 0)
  in
  List.iter
    (fun (b : Block.t) ->
      let w =
        Rc_interp.Profile.weight profile ~func:f.Func.name ~block:b.Block.id
      in
      List.iter
        (fun op ->
          List.iter (fun u -> bump uses u w) (Op.uses op);
          Option.iter (fun d -> bump defs d w) (Op.def op))
        b.Block.ops;
      List.iter (fun u -> bump uses u w) (Op.term_uses b.Block.term))
    f.Func.blocks;
  (* Parameters are live at entry even if rarely used. *)
  List.iter (fun p -> bump uses p 1) f.Func.params;
  let get tbl v = try Vreg.Tbl.find tbl v with Not_found -> 0 in
  ((fun v -> get uses v), fun v -> get defs v)

let spill_costs (f : Func.t) (profile : Rc_interp.Profile.t) =
  let use_w, def_w = use_def_weights f profile in
  fun v -> use_w v + def_w v

(** Colour one function.  Returns the assignment; spills get slots. *)
let run cfg (f : Func.t) (profile : Rc_interp.Profile.t) =
  let live = Liveness.compute f in
  let graph = Interference.build f live in
  let use_w, def_w = use_def_weights f profile in
  let cost v = use_w v + def_w v in
  let has_extended =
    Reg.size (cfg.partition Reg.Int).Reg.extended > 0
    || Reg.size (cfg.partition Reg.Float).Reg.extended > 0
  in
  (* Assignment order doubles as core priority: earlier ranges grab the
     core segment.  Without an extended section the order is the classic
     spill priority (hottest first).  With one, rank by core affinity
     (uses minus defs) so invariants occupy the core and write-heavy
     temporaries spread over the extended registers. *)
  let rank v = if has_extended then use_w v - def_w v else cost v in
  (* Core scarcity per class: only when the live pressure exceeds the
     allocatable core section is it worth sending write-heavy ranges to
     the extended section (renaming beats reuse stalls); with a roomy
     core, extended placement would just buy connects for nothing. *)
  let core_scarce cls =
    has_extended && cfg.aggressive_extended
    &&
    let pt = cfg.partition cls in
    let core_avail = Reg.size pt.Reg.caller + Reg.size pt.Reg.callee in
    (* Renaming freedom needs headroom well beyond the peak pressure:
       with the core only just covering the live values, reuse distances
       stay within instruction latencies and the in-order pipeline
       stalls. *)
    2 * Interference.max_pressure f live cls > core_avail
  in
  let iscarce = core_scarce Reg.Int and fscarce = core_scarce Reg.Float in
  let core_scarce = function Reg.Int -> iscarce | Reg.Float -> fscarce in
  let crosses_call = Liveness.live_across_calls f live in
  let asn = Assignment.create ~ifile:cfg.ifile ~ffile:cfg.ffile in
  let nodes =
    Vreg.Set.elements graph.Interference.nodes
    |> List.sort (fun a b ->
           match Int.compare (rank b) (rank a) with
           | 0 -> (
               match Int.compare (cost b) (cost a) with
               | 0 -> Vreg.compare a b
               | c -> c)
           | c -> c)
  in
  let pick = Pick.create cfg in
  List.iter
    (fun (v : Vreg.t) ->
      let cls = v.Vreg.cls in
      let order =
        if Vreg.Set.mem v crosses_call then Call_crossing
        else if core_scarce cls && use_w v <= def_w v then
          (* Write-heavy ranges prefer the extended section outright:
             a core register would only buy them reuse stalls, while a
             connect-def per write buys full renaming. *)
          Extended_first
        else Core_first
      in
      let taken = Hashtbl.create 16 in
      Vreg.Set.iter
        (fun n ->
          match Vreg.Tbl.find_opt asn.Assignment.loc n with
          | Some (Assignment.Reg p) -> Hashtbl.replace taken p ()
          | _ -> ())
        (Interference.neighbours graph v);
      match Pick.pick pick cls order ~taken:(Hashtbl.mem taken) with
      | Some p -> Assignment.set_reg asn v p
      | None -> ignore (Assignment.spill asn v))
    nodes;
  (graph, asn)
