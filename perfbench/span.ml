(* Spans around the benchmark's calls into each layer, kept in memory
   in an Rc_obs.Trace recorder and written out as JSONL when the run
   ends.  Every span carries its own id, its parent's id and, for
   served traffic, the request id; per-name totals are kept alongside
   so per-layer metrics are sums over exactly the recorded spans.
   With tracing off, [time] calls straight through. *)

module J = Rc_obs.Json

let recorder = ref Rc_obs.Trace.null
let on = Atomic.make false
let mu = Mutex.create ()
let next_id = Atomic.make 1
let totals : (string, float * int) Hashtbl.t = Hashtbl.create 64

(* Tracing can be switched off again (for an untraced comparison run
   in the same process); spans already recorded are kept. *)
let set_enabled b =
  if b && not (Rc_obs.Trace.enabled !recorder) then
    recorder := Rc_obs.Trace.create ();
  Atomic.set on b

let enabled () = Atomic.get on

let record ?(id = Atomic.fetch_and_add next_id 1) ?parent ?req name t0 t1 =
  let args =
    (("id", J.Int id)
    :: (match parent with Some p -> [ ("parent", J.Int p) ] | None -> []))
    @ match req with Some r -> [ ("req", J.Int r) ] | None -> []
  in
  let track =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Mutex.protect mu (fun () ->
      Rc_obs.Trace.span !recorder ~track ~name ~ts_us:(t0 *. 1e6)
        ~dur_us:((t1 -. t0) *. 1e6) ~args ();
      let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name) in
      Hashtbl.replace totals name (s +. (t1 -. t0), n + 1))

(* Run [f] inside a span named [name] (its track is the name's first
   dotted component); [f] receives the span's id so nested spans can
   name it as their parent. *)
let with_id ?parent ?req name f =
  if not (enabled ()) then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Util.now () in
    let finish () = record ~id ?parent ?req name t0 (Util.now ()) in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let time ?parent ?req name f = with_id ?parent ?req name (fun _ -> f ())

(* Seconds and span count recorded under [name]. *)
let total name =
  Mutex.protect mu (fun () ->
      fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name)))

let count name =
  Mutex.protect mu (fun () ->
      snd (Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name)))

(* Per-name totals as [{"name": [seconds, count]}], for handing a
   child process's spans to its parent. *)
let totals_json () =
  Mutex.protect mu (fun () ->
      J.Obj
        (Hashtbl.fold
           (fun k (s, n) acc -> (k, J.List [ J.Float s; J.Int n ]) :: acc)
           totals []
        |> List.sort compare))

let write path =
  if Rc_obs.Trace.enabled !recorder then
    Util.write_file path (Rc_obs.Trace.to_jsonl !recorder)
