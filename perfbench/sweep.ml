(* The figure sweeps.  Each sweep runs in a fresh child process (this
   executable re-run as [sweep-child]), which times the thirteen
   experiments through [Experiments.by_id] and reports one JSON line:
   timings, peak memory, the exact counts over [Experiments.cells],
   per-bench result checksums and a digest of the rendered tables. *)

module E = Rc_harness.Experiments
module J = Rc_obs.Json
open Util

let ids = Rc_serve.Payload.all_figure_ids
let jobs = 2

(* --- child side ------------------------------------------------------------ *)

(* The span of the experiment running now: the parent of the store
   spans its cells cause on the pool's domains. *)
let current = Atomic.make 0

let store_closures st =
  let parent () = Atomic.get current in
  ( (fun key ->
      Span.time ~parent:(parent ()) "store.probe" (fun () -> Rc_serve.Store.probe st key)),
    fun key tr ->
      Span.time ~parent:(parent ()) "store.publish" (fun () ->
          Rc_serve.Store.publish st key tr) )

(* Run the sweep in this process and print its report.  [ready_at] is
   the instant context, pool and store are ready: the parent's spawn
   time subtracted from it is the sweep's set-up time.  [probe] stops
   there, for set-up samples that cost no sweep. *)
let child ~engine ~store ~traced ~probe ~span_file =
  if traced then Span.set_enabled true;
  let ctx = E.create ~scale:1 ~jobs ~engine () in
  let st = Option.map (fun dir -> Rc_serve.Store.open_store ~dir ()) store in
  Option.iter
    (fun st ->
      let probe_store, publish_store = store_closures st in
      E.set_store ctx ~probe:probe_store ~publish:publish_store)
    st;
  let ready_at = now () in
  if probe then begin
    E.shutdown ctx;
    print_endline (J.to_string (J.Obj [ ("ready_at", J.Float ready_at) ]));
    exit 0
  end;
  let failed = ref 0 in
  let t0 = now () in
  let timed =
    Span.with_id "harness.sweep" (fun sweep ->
        List.map
          (fun id ->
            let s = now () in
            let tbl =
              try
                Span.with_id ~parent:sweep ("harness." ^ id) (fun span ->
                    Atomic.set current span;
                    E.by_id ctx id)
              with e ->
                prerr_endline
                  (Printf.sprintf "rcbench: experiment %s raised %s" id
                     (Printexc.to_string e));
                None
            in
            if Option.is_none tbl then incr failed;
            (id, now () -. s, tbl))
          ids)
  in
  let wall = now () -. t0 in
  let text =
    Format.asprintf "%a"
      (Format.pp_print_list (fun ppf (_, _, t) ->
           Option.iter (E.print_table ppf) t))
      timed
  in
  let cells = E.cells ctx in
  let sim_cycles, code_size =
    List.fold_left
      (fun (cy, sz) (_, (c : E.cell)) ->
        let b = c.E.c_breakdown in
        ( cy + c.E.c_result.Rc_machine.Machine.cycles,
          sz + b.normal + b.spill + b.save + b.xsave + b.connects ))
      (0, 0) cells
  in
  (* Checksums per bench: {bench: {checksum: cells}}. *)
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (key, (c : E.cell)) ->
      let bench = List.hd (String.split_on_char '#' key) in
      let cs = Int64.to_string c.E.c_result.Rc_machine.Machine.checksum in
      let k = (bench, cs) in
      Hashtbl.replace sums k (1 + Option.value ~default:0 (Hashtbl.find_opt sums k)))
    cells;
  let es = E.engine_stats ctx in
  let pool = E.pool_stats ctx in
  let store_stats = Option.map Rc_serve.Store.stats st in
  let report =
    J.Obj
      [
        ("wall_s", J.Float wall);
        ("ready_at", J.Float ready_at);
        ("failed", J.Int !failed);
        ("experiments", J.Obj (List.map (fun (id, s, _) -> (id, J.Float s)) timed));
        ("tables_md5", J.Str (Digest.to_hex (Digest.string text)));
        ("cells", J.Int (List.length cells));
        ("sim_cycles", J.Int sim_cycles);
        ("code_size", J.Int code_size);
        ( "checksums",
          J.List
            (Hashtbl.fold
               (fun (b, cs) n acc -> J.List [ J.Str b; J.Str cs; J.Int n ] :: acc)
               sums []) );
        ("engine", Rc_serve.Payload.engine_stats_json es);
        ( "busy_s",
          J.Float (sum (List.map (fun d -> d.Rc_par.Pool.d_busy_s) pool)) );
        ( "wait_s",
          J.Float (sum (List.map (fun d -> d.Rc_par.Pool.d_wait_s) pool)) );
        ( "store",
          match store_stats with
          | None -> J.Null
          | Some s ->
              J.Obj
                [
                  ("hits", J.Int s.Rc_serve.Store.hits);
                  ("misses", J.Int s.Rc_serve.Store.misses);
                  ("published", J.Int s.Rc_serve.Store.published);
                ] );
        ("spans", Span.totals_json ());
        ("vmhwm_mb", J.Float (vmhwm_mb 0));
      ]
  in
  E.shutdown ctx;
  Span.write span_file;
  print_endline (J.to_string report)

(* --- parent side ----------------------------------------------------------- *)

(* Run one sweep child; returns its report, extended with
   ["setup_s"] (spawn to ready) and ["lifetime_s"] (spawn to exit).
   [mode] is "probe", "plain" or "traced". *)
let spawn ~engine ?store ?(mode = "plain") ?(span_file = "-") () =
  let args =
    [|
      Sys.executable_name; "sweep-child"; mode; E.engine_name engine;
      Option.value ~default:"-" store; span_file;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  track pid;
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  untrack pid;
  let lifetime = now () -. t0 in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match (status, J.of_string last) with
  | Unix.WEXITED 0, Ok (J.Obj kv as j) ->
      J.Obj
        (("setup_s", J.Float (num "ready_at" j -. t0))
        :: ("lifetime_s", J.Float lifetime)
        :: kv)
  | _ -> fail "sweep child (%s, %s) failed" mode (E.engine_name engine)

(* Reference checksums: the independent IR interpreter on every
   registry kernel at scale 1. *)
let references () =
  List.map
    (fun (b : Rc_workloads.Wutil.bench) ->
      ( b.Rc_workloads.Wutil.name,
        (Rc_interp.Interp.run (b.Rc_workloads.Wutil.build 1)).Rc_interp.Interp.checksum ))
    (Rc_workloads.Registry.all ())

(* Cells of a report whose checksum differs from the reference, and
   cells checked. *)
let checksum_mismatches refs r =
  List.fold_left
    (fun (bad, seen) row ->
      match to_list row with
      | [ J.Str b; J.Str cs; J.Int n ] ->
          let ok =
            match List.assoc_opt b refs with
            | Some want -> Int64.to_string want = cs
            | None -> false
          in
          ((if ok then bad else bad + n), seen + n)
      | _ -> (bad + 1, seen + 1))
    (0, 0)
    (to_list (member "checksums" r))
