(* Small helpers shared by the benchmark's modules: clocks, order
   statistics, /proc memory readings, temporary directories and JSON
   field access. *)

module J = Rc_obs.Json

let now = Unix.gettimeofday

let fail fmt =
  Format.kasprintf (fun m -> prerr_endline ("rcbench: " ^ m); exit 1) fmt

(* Linear-interpolated quantile of an unsorted sample ([q] in 0..1). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set (VmHWM) of a live process, in MB; 0 when the
   process is gone or the kernel does not report it. *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Child processes still running; whatever is left at exit is killed
   and reaped, so no exit path leaves a process behind. *)
let children : int list ref = ref []

let track pid = children := pid :: !children
let untrack pid = children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Everything the benchmark writes lives under this directory of the
   checkout it runs from. *)
let state_dir = Filename.concat ".bench_build" "perfbench"

(* A fresh temporary directory for one run, removed at exit. *)
let temp_dir tag =
  let dir =
    Filename.concat state_dir
      (Printf.sprintf "tmp-%s-%d-%d" tag (Unix.getpid ())
         (int_of_float (now () *. 1e6) land 0xffffff))
  in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* --- JSON access ----------------------------------------------------------- *)

let member k j = Option.value ~default:J.Null (J.member k j)

let to_float = function
  | J.Int n -> float_of_int n
  | J.Float f -> f
  | _ -> 0.0

let to_int = function J.Int n -> n | J.Float f -> int_of_float f | _ -> 0
let to_str = function J.Str s -> s | _ -> ""
let to_list = function J.List l -> l | _ -> []
let num k j = to_float (member k j)
