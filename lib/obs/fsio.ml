(* Crash-safe file replacement: temp file in the destination's
   directory, error-reporting close, fsync, atomic rename.  See
   fsio.mli. *)

(* The temp file is created with the conventional mode 0o644, masked
   by the process umask as open(2) always does: renaming it over the
   destination must not silently tighten a world-readable file to
   [Filename.temp_file]'s private 0o600.  Nothing process-wide is read
   or set per call, so concurrent writers on other domains are safe. *)
let write_atomic path f =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644
      ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path)
      ".tmp"
  in
  match
    match
      f oc;
      (* Flush then fsync before the rename publishes the name: a
         crash after rename must not be able to expose an empty or
         partial file whose data never reached the disk. *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc)
    with
    | () ->
        (* [close_out], not [close_out_noerr]: a failed flush (ENOSPC,
           EIO) must surface as an exception, not a truncated file. *)
        close_out oc
    | exception e ->
        close_out_noerr oc;
        raise e
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
