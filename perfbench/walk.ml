(* In-process layer walks, run only when tracing.

   [pipeline] calls each Pipeline stage once per distinct (kernel,
   configuration), each in its own span, so shared work is charged
   once: prepare and the profile interpreter run per kernel,
   allocation, back end and the three simulation engines per
   configuration.

   [requests] replays a served request sequence through the same
   public calls the server's /run handler makes (decode, compile_cell,
   the admission oracle, simulate_cell, render) on a fresh context,
   one span per call, tagged with the request id. *)

module E = Rc_harness.Experiments
module P = Rc_harness.Pipeline
module J = Rc_obs.Json
module W = Rc_workloads.Wutil

type cell = {
  bench : W.bench;
  opts : P.options;
  alloc_span : string;  (** "regalloc.unlimited" or "regalloc.core" *)
  reference : int64;  (** interpreter checksum of the kernel *)
}

type counts = {
  mutable spills : int;
  mutable connects : int;
  mutable exec_issued : int;
  mutable replay_issued : int;
  mutable trace_bytes : int;
  mutable failures : int;
}

let pipeline cells =
  let k =
    { spills = 0; connects = 0; exec_issued = 0; replay_issued = 0;
      trace_bytes = 0; failures = 0 }
  in
  let benches =
    List.sort_uniq compare
      (List.map (fun c -> (c.bench.W.name, c.opts.P.opt)) cells)
  in
  List.iter
    (fun (name, opt) ->
      let mine =
        List.filter (fun c -> c.bench.W.name = name && c.opts.P.opt = opt) cells
      in
      let b = (List.hd mine).bench in
      Span.with_id "walk.kernel" @@ fun parent ->
      let span name f = Span.time ~parent name f in
      let prep = span "opt.prepare" (fun () -> P.prepare ~opt (b.W.build 1)) in
      ignore (span "interp.profile" (fun () -> Rc_interp.Interp.run prep.P.prog));
      List.iter
        (fun c ->
          try
            let a = span c.alloc_span (fun () -> P.allocate c.opts prep) in
            let cc = span "codegen.backend" (fun () -> P.compile_allocated c.opts a) in
            k.spills <- k.spills + cc.P.spills;
            k.connects <- k.connects + cc.P.connects_inserted;
            let r = span "machine.execute" (fun () -> P.simulate cc) in
            let r2, tr = span "machine.record" (fun () -> P.simulate_recorded cc) in
            k.exec_issued <- k.exec_issued + r.Rc_machine.Machine.issued;
            let same (x : Rc_machine.Machine.result) =
              x.Rc_machine.Machine.cycles = r.Rc_machine.Machine.cycles
              && x.Rc_machine.Machine.checksum = c.reference
            in
            let ok =
              same r && same r2
              &&
              match tr with
              | None -> true
              | Some tr ->
                  let r3 = span "machine.replay" (fun () -> P.simulate_replayed cc tr) in
                  k.replay_issued <- k.replay_issued + r3.Rc_machine.Machine.issued;
                  k.trace_bytes <- k.trace_bytes + Rc_machine.Dtrace.bytes tr;
                  same r3
            in
            if not ok then k.failures <- k.failures + 1
          with e ->
            prerr_endline
              (Printf.sprintf "rcbench: walk of %s raised %s" name
                 (Printexc.to_string e));
            k.failures <- k.failures + 1)
        (List.sort_uniq (fun a b -> compare a.opts b.opts) mine))
    benches;
  k

(* The registry kernels under the sweep's three named configurations:
   the "unlimited" 2048-register core at 4-issue, and the 16-register
   core with and without RC. *)
let sweep_cells refs =
  List.concat_map
    (fun (b : W.bench) ->
      let reference = List.assoc b.W.name refs in
      { bench = b; opts = E.unlimited_opts ~issue:4 (); alloc_span = "regalloc.unlimited"; reference }
      :: List.map
           (fun rc ->
             { bench = b; opts = E.reg_opts b ~label:16 ~rc (); alloc_span = "regalloc.core"; reference })
           [ false; true ])
    (Rc_workloads.Registry.all ())

type request_counts = {
  mutable runs : int;
  mutable replays : int;
  mutable errors : int;
  mutable decoded : (int * W.bench * P.options) list;
      (** request id, kernel and configuration of every /run walked *)
}

(* Replay [reqs] (request id = index) through the /run handler's
   calls.  [record:false] runs them outside any span: the warm-up a
   served workload performs before its timed traffic. *)
let requests ctx ?(record = true) (reqs : (int * Client.request) list) =
  let n = { runs = 0; replays = 0; errors = 0; decoded = [] } in
  List.iter
    (fun (k, (rq : Client.request)) ->
      let tm ?parent name f = if record then Span.time ?parent ~req:k name f else f () in
      let request f = if record then Span.with_id ~req:k "serve.request" f else f 0 in
      try
        match rq.Client.kind with
        | "run" ->
            request (fun parent ->
                let decoded =
                  tm ~parent "serve.decode" (fun () ->
                      match J.of_string rq.Client.body with
                      | Error m -> Error (Rc_check.Spec.Malformed m)
                      | Ok j -> Rc_serve.Payload.run_request_of_json j)
                in
                match decoded with
                | Error e -> failwith (Rc_check.Spec.error_detail e)
                | Ok q ->
                    let bench =
                      match q.Rc_serve.Payload.rq_kernel with
                      | Rc_serve.Payload.K_bench b -> b
                      | Rc_serve.Payload.K_spec s -> Rc_check.Spec.bench_of s
                      | Rc_serve.Payload.K_id id -> failwith ("kernel id " ^ id)
                    in
                    let opts = q.Rc_serve.Payload.rq_opts in
                    n.decoded <- (k, bench, opts) :: n.decoded;
                    let c =
                      tm ~parent "harness.compile_cell" (fun () -> E.compile_cell ctx bench opts)
                    in
                    let oracle =
                      Option.map
                        (fun cycles ->
                          tm ~parent "check.oracle" (fun () ->
                              Rc_check.Spec.verdict_json (Rc_check.Spec.oracle ~cycles c)))
                        q.Rc_serve.Payload.rq_oracle
                    in
                    let r, engine =
                      tm ~parent "harness.simulate_cell" (fun () -> E.simulate_cell ctx c)
                    in
                    n.runs <- n.runs + 1;
                    if engine = "replay" then n.replays <- n.replays + 1;
                    ignore
                      (tm ~parent "serve.render" (fun () ->
                           J.to_string
                             (Rc_serve.Payload.run_response ?oracle
                                ~bench:bench.W.name ~scale:1 ~engine_used:engine c r))))
        | "figures" -> ignore (tm "harness.table1" (fun () -> E.by_id ctx "table1"))
        | _ -> ()
      with e ->
        prerr_endline
          (Printf.sprintf "rcbench: request walk %d raised %s" k (Printexc.to_string e));
        n.errors <- n.errors + 1)
    reqs;
  n
