(* The client side of `rcc serve`, shared by smoke and loadgen: a
   one-request-per-connection HTTP/1.1 client and a spawner that boots
   `rcc serve --port 0`, learns the bound port from its announce line
   and drains its stderr into a buffer. *)

(* First index of [needle] in [hay], if any. *)
let find ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec matches i j =
    j = n || (hay.[i + j] = needle.[j] && matches i (j + 1))
  in
  let rec go i =
    if i + n > h then None else if matches i 0 then Some i else go (i + 1)
  in
  go 0

(* A bare relative name must not send create_process down PATH. *)
let program exe =
  if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe
  else exe

(* One request on a fresh loopback connection, read until the server
   closes it (it answers every request with Connection: close).
   Returns the status and the body; raises [Unix.Unix_error] on
   connection trouble and [Failure] on a malformed response. *)
let request ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring fd req off (String.length req - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      match
        ( Scanf.sscanf_opt raw "HTTP/1.1 %d " Fun.id,
          find ~needle:"\r\n\r\n" raw )
      with
      | Some status, Some i ->
          (status, String.sub raw (i + 4) (String.length raw - i - 4))
      | _ ->
          failwith
            (Printf.sprintf "%s %s: malformed response %S" meth path raw))

type server = {
  pid : int;
  port : int;
  log : Buffer.t;  (** everything the server wrote on stderr *)
  drainer : unit Domain.t;  (** appends to [log] until stderr closes *)
}

(* Boot [rcc serve --port 0 ARGS].  The stderr pipe is drained on a
   domain for the server's whole life, so it can never block on a full
   pipe mid-request. *)
let spawn rcc args =
  let rcc = program rcc in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process rcc
      (Array.of_list (rcc :: "serve" :: "--port" :: "0" :: args))
      Unix.stdin Unix.stdout err_w
  in
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let log = Buffer.create 4096 in
  let rec announce () =
    match input_line ic with
    | exception End_of_file ->
        failwith "rcc serve exited before announcing a port"
    | line -> (
        Buffer.add_string log (line ^ "\n");
        match
          Scanf.sscanf_opt line "rcc serve: listening on http://%[^:]:%d"
            (fun _host p -> p)
        with
        | Some p -> p
        | None -> announce ())
  in
  let port = announce () in
  let drainer =
    Domain.spawn (fun () ->
        (try
           while true do
             Buffer.add_string log (input_line ic ^ "\n")
           done
         with End_of_file -> ());
        close_in_noerr ic)
  in
  { pid; port; log; drainer }

(* SIGTERM the server, wait for it to exit, and return its exit status
   with its whole stderr. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] srv.pid in
  Domain.join srv.drainer;
  (status, Buffer.contents srv.log)

(* The reference kernel spec: the committed corpus fixture
   test/corpus/spec-k3dcde33718c5.json, whose id the `corpus spec
   fixtures admissible` test pins. *)
let spec_doc =
  {|{"seed":0,"slots":8,"funcs":[{"arity":0,"nvars":2,"nfvars":1,"body":[["set",0,["const","1"]],["loop",1,6,[["set",0,["bin","add",["var",0],["var",1]]],["store",1,["var",0]],["load",1,1]]],["emit",["var",0]]]}]}|}
