(* `rcc serve` driven over HTTP: server processes, the two traffic
   mixes, and the checks on every answer. *)

module J = Rc_obs.Json
module W = Rc_workloads.Wutil
open Util

(* --- server processes -------------------------------------------------------- *)

type server = { pid : int; port : int }

(* Ask the server to drain (SIGTERM), and kill it if it has not exited
   within ten seconds. *)
let stop s =
  if List.mem s.pid !children then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ();
    untrack s.pid
  end

let listening_port log =
  let text = try read_file log with Sys_error _ -> "" in
  let marker = "listening on http://127.0.0.1:" in
  let rec find i =
    if i + String.length marker > String.length text then None
    else if String.sub text i (String.length marker) = marker then
      let j = i + String.length marker in
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub text j (!k - j))
    else find (i + 1)
  in
  find 0

(* Spawn `rcc serve --jobs 2 --port 0` and wait until it answers
   /healthz. *)
let start ~rcc ~dir =
  let log = Filename.concat dir (Printf.sprintf "serve-%d.log" (List.length !children)) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process rcc
      [| rcc; "serve"; "--port"; "0"; "--jobs"; "2"; "--scale"; "1"; "--quiet" |]
      null fd fd
  in
  Unix.close fd;
  Unix.close null;
  track pid;
  let deadline = now () +. 60.0 in
  let rec wait_port () =
    match listening_port log with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            untrack pid;
            fail "rcc serve exited during start-up (see %s)" log);
        if now () > deadline then fail "rcc serve did not start";
        Unix.sleepf 0.0005;
        wait_port ()
  in
  let s = { pid; port = wait_port () } in
  let rec healthy () =
    if fst (Client.get ~port:s.port "/healthz") <> 200 then begin
      if now () > deadline then fail "rcc serve does not answer /healthz";
      Unix.sleepf 0.0005;
      healthy ()
    end
  in
  healthy ();
  s

(* --- traffic ----------------------------------------------------------------- *)

let healthz = { Client.meth = "GET"; path = "/healthz"; body = ""; kind = "healthz" }

let figures =
  { Client.meth = "POST"; path = "/figures"; body = {|{"ids":["table1"]}|}; kind = "figures" }

let run_req fields =
  { Client.meth = "POST"; path = "/run"; body = J.to_string (J.Obj fields); kind = "run" }

(* What a /run answer must carry: the interpreter's checksum of the
   kernel, and, when the request asked for it, the oracle's agreement. *)
type expect = {
  checksum : int64;
  oracle : bool;
  cell : string;  (** kernel and configuration, for the repeat check *)
  index : int;  (** position in the mix's fixed population *)
}

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] request slots in seeded order: [n/10] /healthz probes, for the
   hot mix [n/10] table1 figures, and /run for the rest. *)
let slots rs ~n ~figures_share =
  let h = n / 10 in
  let f = if figures_share then n / 10 else 0 in
  shuffle rs
    (Array.init n (fun i -> if i < h then `Healthz else if i < h + f then `Figures else `Run))

(* serve-hot: the 24 configurations of the twelve registry kernels at
   16 core registers, 4-issue, RC off and on. *)
let hot_configs refs =
  List.concat_map
    (fun (b : W.bench) ->
      List.map
        (fun rc ->
          ( run_req
              [
                ("bench", J.Str b.W.name); ("rc", J.Bool rc); ("core_int", J.Int 16);
                ("core_float", J.Int 16); ("issue", J.Int 4);
              ],
            (b.W.name, rc) ))
        [ false; true ])
    (Rc_workloads.Registry.all ())
  |> List.mapi (fun index (r, (name, rc)) ->
         ( r,
           { checksum = List.assoc name refs; oracle = false;
             cell = Printf.sprintf "%s rc=%b" name rc; index } ))

(* The hot mix: /run cycles through the 24 warmed configurations in
   seeded rounds. *)
let hot_mix rs configs ~n =
  let configs = Array.of_list configs in
  let round = ref [||] in
  Array.map
    (function
      | `Healthz -> (healthz, None)
      | `Figures -> (figures, None)
      | `Run ->
          if Array.length !round = 0 then round := shuffle rs (Array.copy configs);
          let r, e = !round.(0) in
          round := Array.sub !round 1 (Array.length !round - 1);
          (r, Some e))
    (slots rs ~n ~figures_share:true)

(* serve-cold: spec kernels that no server has seen.  The population is
   fixed — spec [i] is [Gen.generate (spec_base + i)] under the [i]th
   of the six (RC, core size) pairs, and every fourth one also runs the
   lockstep oracle — so exact counts and the mix of work repeat for
   every seed; the seed draws the order. *)
let spec_base = 700_000
let oracle_cycles = 4096

let cold_spec i =
  let spec = Rc_check.Gen.generate (spec_base + i) in
  let rc = i mod 2 = 1 in
  let core = [| 12; 16; 24 |].(i / 2 mod 3) in
  (spec, rc, core)

let cold_request index =
  let spec, rc, core = cold_spec index in
  let oracle = index mod 4 = 3 in
  let reference =
    (Rc_interp.Interp.run (Rc_check.Gen.render spec)).Rc_interp.Interp.checksum
  in
  ( run_req
      ([
         ("spec", Rc_check.Gen.to_json spec); ("rc", J.Bool rc); ("core_int", J.Int core);
       ]
      @ if oracle then [ ("oracle", J.Int oracle_cycles) ] else []),
    { checksum = reference; oracle;
      cell = Printf.sprintf "%s rc=%b core=%d" (Rc_check.Spec.id_of spec) rc core; index } )

(* [n] request slots over specs [first, first + runs) in seeded order;
   returns the next unused spec. *)
let cold_mix rs ~first ~n =
  let s = slots rs ~n ~figures_share:false in
  let runs = Array.fold_left (fun acc x -> if x = `Run then acc + 1 else acc) 0 s in
  let pool = Array.map cold_request (shuffle rs (Array.init runs (fun i -> first + i))) in
  let next = ref 0 in
  ( Array.map
      (function
        | `Run ->
            let r, e = pool.(!next) in
            incr next;
            (r, Some e)
        | `Healthz | `Figures -> (healthz, None))
      s,
    first + runs )

(* --- checks -------------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  cells : (string, int * int) Hashtbl.t;  (** cell -> cycles, code size *)
}

let tally () = { attempted = 0; failed = 0; cells = Hashtbl.create 64 }

let table1_json =
  lazy (J.to_string (Rc_serve.Payload.table_json (Rc_harness.Experiments.table1 ())))

(* Check one answer; wall-clock fields, the engine and cache counters
   are never compared. *)
let check t (req : Client.request) expect (o : Client.outcome) =
  t.attempted <- t.attempted + 1;
  let ok =
    o.Client.status = 200
    &&
    match (J.of_string o.Client.reply, req.Client.kind, expect) with
    | Ok j, "run", Some e ->
        let result = member "result" j in
        let machine = member "machine" result in
        let size = member "code_size" result in
        let cycles = to_int (member "cycles" machine) in
        let code =
          List.fold_left (fun acc k -> acc + to_int (member k size)) 0
            [ "normal"; "spill"; "save"; "xsave"; "connects" ]
        in
        let sum_ok =
          Int64.of_string_opt (to_str (member "checksum" machine)) = Some e.checksum
        in
        let oracle_ok =
          (not e.oracle) || to_str (member "verdict" (member "oracle" j)) = "agree"
        in
        let same_cell =
          match Hashtbl.find_opt t.cells e.cell with
          | None ->
              Hashtbl.replace t.cells e.cell (cycles, code);
              true
          | Some prev -> prev = (cycles, code)
        in
        sum_ok && oracle_ok && same_cell && cycles > 0
    | Ok j, "figures", None -> (
        match to_list (member "tables" j) with
        | [ tbl ] -> J.to_string tbl = Lazy.force table1_json
        | _ -> false)
    | Ok j, "healthz", None -> to_str (member "status" j) = "ok"
    | _ -> false
  in
  if not ok then begin
    t.failed <- t.failed + 1;
    prerr_endline
      (Printf.sprintf "rcbench: bad answer to %s %s: status %d, %s" req.Client.meth
         req.Client.path o.Client.status
         (String.sub o.Client.reply 0 (min 200 (String.length o.Client.reply))))
  end

let sim_cycles t = Hashtbl.fold (fun _ (c, _) acc -> acc + c) t.cells 0
let code_size t = Hashtbl.fold (fun _ (_, s) acc -> acc + s) t.cells 0
