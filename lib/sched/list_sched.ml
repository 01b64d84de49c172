(** Cycle-driven list scheduling of each basic block for a given issue
    width and memory-channel count.  The output is a new linear order;
    the simulator re-derives exact timing from it, so the scheduler is a
    heuristic that tries to pack independent instructions into the same
    issue group and hide load and FP latencies. *)

open Rc_isa

type config = { width : int; mem_channels : int; lat : Latency.t }

let config ?(width = 4) ?(mem_channels = 2) ?(lat = Latency.default) () =
  { width; mem_channels; lat }

(* A binary heap of instruction indices under a strict order
   [first]: the root is the element no other comes [first] before. *)
type heap = { h : int array; mutable size : int }

let heap n = { h = Array.make (max 1 n) 0; size = 0 }

let push first q x =
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && first x q.h.((!i - 1) / 2) do
    q.h.(!i) <- q.h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.h.(!i) <- x

let pop first q =
  let top = q.h.(0) in
  q.size <- q.size - 1;
  let x = q.h.(q.size) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= q.size then continue := false
    else begin
      let c = if l + 1 < q.size && first q.h.(l + 1) q.h.(l) then l + 1 else l in
      if first q.h.(c) x then begin
        q.h.(!i) <- q.h.(c);
        i := c
      end
      else continue := false
    end
  done;
  if q.size > 0 then q.h.(!i) <- x;
  top

(* Each cycle issues, up to the width, the ready instruction with the
   greatest height, ties to the lowest index, taking a memory operation
   only while a channel is free.  Instructions whose predecessors are
   all scheduled wait in a heap by ready time, then move to one of two
   ready heaps (memory and other) ordered by the pick rule, so a pick
   compares two heap tops, and a cycle with nothing ready jumps to the
   next ready time. *)
let schedule_block cfg (insns : Insn.t array) =
  let n = Array.length insns in
  if n <= 1 then insns
  else begin
    let g = Depgraph.build cfg.lat insns in
    let height = Depgraph.heights g in
    let unsched_preds = Array.map List.length g.Depgraph.preds in
    let ready_time = Array.make n 0 in
    let is_mem = Array.map Insn.is_mem insns in
    let better a b = height.(a) > height.(b) || (height.(a) = height.(b) && a < b) in
    let sooner a b = ready_time.(a) < ready_time.(b) in
    let alu = heap n and mem = heap n and waiting = heap n in
    let cycle = ref 0 in
    let release idx =
      if ready_time.(idx) > !cycle then push sooner waiting idx
      else push better (if is_mem.(idx) then mem else alu) idx
    in
    for idx = 0 to n - 1 do
      if unsched_preds.(idx) = 0 then release idx
    done;
    let order = Array.make n 0 in
    let count = ref 0 in
    while !count < n do
      while waiting.size > 0 && ready_time.(waiting.h.(0)) <= !cycle do
        let idx = pop sooner waiting in
        push better (if is_mem.(idx) then mem else alu) idx
      done;
      if alu.size = 0 && mem.size = 0 then cycle := ready_time.(waiting.h.(0))
      else begin
        let slots = ref cfg.width and chans = ref cfg.mem_channels in
        while !slots > 0 && (alu.size > 0 || (mem.size > 0 && !chans > 0)) do
          let from_mem =
            mem.size > 0 && !chans > 0
            && (alu.size = 0 || better mem.h.(0) alu.h.(0))
          in
          let idx =
            if from_mem then begin
              decr chans;
              pop better mem
            end
            else pop better alu
          in
          order.(!count) <- idx;
          incr count;
          decr slots;
          List.iter
            (fun (s, l) ->
              unsched_preds.(s) <- unsched_preds.(s) - 1;
              ready_time.(s) <- max ready_time.(s) (!cycle + l);
              if unsched_preds.(s) = 0 then release s)
            g.Depgraph.succs.(idx)
        done;
        incr cycle
      end
    done;
    Array.map (fun idx -> insns.(idx)) order
  end

(** Schedule every block of a machine program in place. *)
let run cfg (m : Mcode.t) =
  List.iter
    (fun (f : Mcode.func) ->
      List.iter
        (fun (b : Mcode.block) ->
          let arr = Array.of_list b.Mcode.insns in
          b.Mcode.insns <- Array.to_list (schedule_block cfg arr))
        f.Mcode.blocks)
    m.Mcode.funcs
