(* HTTP/1.1 client for `rcc serve` (one connection per request: the
   server answers every request with Connection: close) and the
   open-loop load generator. *)

type request = {
  meth : string;
  path : string;
  body : string;
  kind : string;  (** "run", "healthz" or "figures" *)
}

type outcome = {
  due : float;  (** the instant the schedule wanted it sent *)
  sent : float;
  finished : float;
  status : int;  (** 0 when the connection failed *)
  reply : string;  (** response body *)
}

let header_end raw =
  let rec scan i =
    if i + 3 >= String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
    else scan (i + 1)
  in
  scan 0

(* One request on a fresh connection; [(0, "")] on any connection or
   protocol failure. *)
let send ~port ?(rid = "") { meth; path; body; _ } =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let head =
          Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n%sContent-Length: %d\r\n\r\n"
            meth path
            (if rid = "" then "" else "X-Request-Id: " ^ rid ^ "\r\n")
            (String.length body)
        in
        let msg = head ^ body in
        let rec put off =
          if off < String.length msg then
            put (off + Unix.write_substring fd msg off (String.length msg - off))
        in
        put 0;
        let buf = Buffer.create 8192 in
        let chunk = Bytes.create 65536 in
        let rec get () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              get ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> get ()
        in
        get ();
        let raw = Buffer.contents buf in
        match (String.index_opt raw ' ', header_end raw) with
        | Some sp, Some b when sp + 4 <= String.length raw ->
            ( Option.value ~default:0
                (int_of_string_opt (String.sub raw (sp + 1) 3)),
              String.sub raw b (String.length raw - b) )
        | _ -> (0, "")
      with Unix.Unix_error _ | Failure _ | Invalid_argument _ -> (0, ""))

let get ~port path = send ~port { meth = "GET"; path; body = ""; kind = path }

(* Open loop: request [k] is due at [t0 + k / rate] whatever happened
   to earlier ones.  [threads] client threads (one connection each)
   take requests in order, sleep until they are due and send them; a
   request that finds every thread busy goes out late, and its latency
   still runs from its due instant.  [on_done k outcome] is called from
   the client thread as each request finishes. *)
let open_loop ~port ~rate ~threads ~tag ?(on_done = fun _ _ -> ())
    (reqs : request array) =
  let n = Array.length reqs in
  let out =
    Array.make n { due = 0.0; sent = 0.0; finished = 0.0; status = 0; reply = "" }
  in
  let next = Atomic.make 0 in
  let t0 = Util.now () +. 0.02 in
  let rec worker () =
    let k = Atomic.fetch_and_add next 1 in
    if k < n then begin
      let due = t0 +. (float_of_int k /. rate) in
      let wait = due -. Util.now () in
      if wait > 0.0 then Thread.delay wait;
      let sent = Util.now () in
      let status, reply =
        send ~port ~rid:(Printf.sprintf "%s-%d" tag k) reqs.(k)
      in
      let o = { due; sent; finished = Util.now (); status; reply } in
      out.(k) <- o;
      on_done k o;
      worker ()
    end
  in
  List.iter Thread.join (List.init threads (fun _ -> Thread.create worker ()));
  out

let latency_ms o = (o.finished -. o.due) *. 1000.0
let lateness_ms o = (o.sent -. o.due) *. 1000.0
