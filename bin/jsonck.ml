(* jsonck — shape validator for the telemetry sinks, used by the
   trace-smoke alias and usable by hand:

     jsonck <chrome-trace.json> [<events.jsonl>]
     jsonck --pure <doc.json>...
     jsonck --figures-equal <a.json> <b.json>
     jsonck --prom <metrics.prom>...

   Checks that the Chrome file is valid trace-event JSON Perfetto will
   load — a traceEvents array whose entries carry name/ph/pid, with at
   least one complete ("X", the compile passes) and one counter ("C",
   the machine cycles) event — and that every JSONL line parses to an
   object with a type discriminant.  Exits non-zero with a message on
   the first violation.

   [--pure] instead asserts machine-readability of captured stdout:
   each file must be exactly one JSON object — any narration line
   leaking onto stdout before or after the document breaks the parse
   and fails the check (the json-smoke alias pipes `rcc run --json`
   and `rcc figures --json` through this).

   [--memo-warm] asserts a `rcc figures --json` document's trace_cache
   shows a warm block timing memo: seg_hits must be at least 80%
   of all memoisable-segment visits (hits + misses + fallbacks), and
   non-zero.  The memo-smoke alias runs the warm (second) store-backed
   replay pass through this.

   [--figures-equal] asserts two `rcc figures --json` documents carry
   the same results: structural equality after dropping the
   "trace_cache" member and the top-level "engine" name, the only
   fields the timing engine and the cache state are allowed to change.
   The memo-smoke alias runs a warm replay against the execute oracle
   through this.

   [--prom] validates Prometheus text exposition format 0.0.4, as
   scraped from `GET /metrics` (the serve-smoke alias saves a scrape
   and runs it through this).  Beyond the line grammar — metric and
   label name character sets, quoted label values with backslash,
   quote and newline escapes, numeric sample values including
   +Inf/-Inf/NaN — it checks
   the semantic contract: every sample's family is TYPE-declared
   before first use and at most once, counter samples are
   non-negative, and each histogram series has ascending [le] bounds
   with non-decreasing cumulative counts, a +Inf bucket agreeing with
   [_count], and a [_sum] sample. *)

let fail fmt = Format.kasprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_field path i obj name =
  match Rc_obs.Json.member name obj with
  | Some v -> v
  | None -> fail "%s: traceEvents[%d] lacks %S" path i name

let check_chrome path =
  let j =
    match Rc_obs.Json.of_string (read_file path) with
    | Ok j -> j
    | Error m -> fail "%s: not valid JSON: %s" path m
  in
  let events =
    match Rc_obs.Json.member "traceEvents" j with
    | Some (Rc_obs.Json.List evs) -> evs
    | Some _ -> fail "%s: traceEvents is not an array" path
    | None -> fail "%s: no traceEvents field" path
  in
  let phases = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      (match check_field path i ev "name" with
      | Rc_obs.Json.Str _ -> ()
      | _ -> fail "%s: traceEvents[%d] name is not a string" path i);
      (match check_field path i ev "pid" with
      | Rc_obs.Json.Int _ -> ()
      | _ -> fail "%s: traceEvents[%d] pid is not an integer" path i);
      match check_field path i ev "ph" with
      | Rc_obs.Json.Str ph ->
          Hashtbl.replace phases ph ();
          if ph <> "M" then (
            match Rc_obs.Json.member "ts" ev with
            | Some (Rc_obs.Json.Float _ | Rc_obs.Json.Int _) -> ()
            | _ -> fail "%s: traceEvents[%d] (%s) lacks a numeric ts" path i ph)
      | _ -> fail "%s: traceEvents[%d] ph is not a string" path i)
    events;
  List.iter
    (fun (ph, what) ->
      if not (Hashtbl.mem phases ph) then
        fail "%s: no %s (%S) events — %s track missing" path what ph what)
    [ ("X", "complete"); ("C", "counter") ];
  Printf.printf "%s: ok (%d trace events)\n" path (List.length events)

let check_jsonl path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s: empty JSONL stream" path;
  List.iteri
    (fun i line ->
      match Rc_obs.Json.of_string line with
      | Error m -> fail "%s:%d: not valid JSON: %s" path (i + 1) m
      | Ok j -> (
          match Rc_obs.Json.member "type" j with
          | Some (Rc_obs.Json.Str _) -> ()
          | _ -> fail "%s:%d: no type discriminant" path (i + 1)))
    lines;
  Printf.printf "%s: ok (%d events)\n" path (List.length lines)

let check_pure path =
  match Rc_obs.Json.of_string (read_file path) with
  | Ok (Rc_obs.Json.Obj fields) ->
      Printf.printf "%s: pure (one object, %d top-level fields)\n" path
        (List.length fields)
  | Ok _ -> fail "%s: top level is not a JSON object" path
  | Error m -> fail "%s: stdout is not a single JSON document: %s" path m

(* Drop every member named [name], recursively. *)
let rec strip_member name j =
  match j with
  | Rc_obs.Json.Obj fields ->
      Rc_obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = name then None else Some (k, strip_member name v))
           fields)
  | Rc_obs.Json.List l -> Rc_obs.Json.List (List.map (strip_member name) l)
  | j -> j

let check_figures_equal a b =
  let parse path =
    match Rc_obs.Json.of_string (read_file path) with
    | Ok (Rc_obs.Json.Obj fields) ->
        strip_member "trace_cache"
          (Rc_obs.Json.Obj (List.remove_assoc "engine" fields))
    | Ok _ -> fail "%s: not a JSON object" path
    | Error m -> fail "%s: not valid JSON: %s" path m
  in
  let ja = Rc_obs.Json.to_string (parse a)
  and jb = Rc_obs.Json.to_string (parse b) in
  if ja <> jb then
    fail "%s and %s differ beyond engine and trace_cache — the timing \
          engine changed the results"
      a b;
  Printf.printf "%s == %s (modulo engine and trace_cache)\n" a b

let check_memo_warm path =
  let j =
    match Rc_obs.Json.of_string (read_file path) with
    | Ok j -> j
    | Error m -> fail "%s: not valid JSON: %s" path m
  in
  let tc =
    match Rc_obs.Json.member "trace_cache" j with
    | Some tc -> tc
    | None -> fail "%s: no trace_cache member" path
  in
  let int_field name =
    match Rc_obs.Json.member name tc with
    | Some (Rc_obs.Json.Int v) -> v
    | _ -> fail "%s: trace_cache lacks integer field %S" path name
  in
  let hits = int_field "seg_hits"
  and misses = int_field "seg_misses"
  and fallbacks = int_field "seg_fallbacks" in
  let visits = hits + misses + fallbacks in
  if hits = 0 then fail "%s: warm pass has no timing-memo hits" path;
  let rate = float_of_int hits /. float_of_int visits in
  if rate < 0.80 then
    fail "%s: warm timing-memo hit rate %.1f%% < 80%% (%d/%d)" path
      (100.0 *. rate) hits visits;
  Printf.printf "%s: warm memo hit rate %.1f%% (%d/%d)\n" path (100.0 *. rate)
    hits visits

(* --- Prometheus text exposition (version 0.0.4) ------------------------ *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_metric_char c = is_name_start c || c = ':' || (c >= '0' && c <= '9')
let is_label_char c = is_name_start c || (c >= '0' && c <= '9')

let metric_name_ok s =
  String.length s > 0
  && (is_name_start s.[0] || s.[0] = ':')
  && String.for_all is_metric_char s

let label_name_ok s =
  String.length s > 0 && is_name_start s.[0] && String.for_all is_label_char s

let prom_value_ok s =
  match s with
  | "+Inf" | "-Inf" | "Inf" | "NaN" -> true
  | _ -> Option.is_some (float_of_string_opt s)

let prom_value s =
  match s with
  | "+Inf" | "Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | _ -> float_of_string s

type sample = { sm_name : string; sm_labels : (string * string) list; sm_value : float }

(* Parse one sample line: name{label="value",...} value [timestamp]. *)
let parse_sample path ln line =
  let fail fmt = fail ("%s:%d: " ^^ fmt) path ln in
  let len = String.length line in
  let i = ref 0 in
  while !i < len && is_metric_char line.[!i] do incr i done;
  let name = String.sub line 0 !i in
  if not (metric_name_ok name) then fail "bad metric name in %S" line;
  let labels = ref [] in
  (if !i < len && line.[!i] = '{' then begin
     incr i;
     let parsing = ref true in
     while !parsing do
       if !i >= len then fail "unterminated label set";
       if line.[!i] = '}' then (incr i; parsing := false)
       else begin
         let s = !i in
         while !i < len && is_label_char line.[!i] do incr i done;
         let lname = String.sub line s (!i - s) in
         if not (label_name_ok lname) then fail "bad label name in %S" line;
         if !i + 1 >= len || line.[!i] <> '=' || line.[!i + 1] <> '"' then
           fail "label %s: expected =\"...\"" lname;
         i := !i + 2;
         let buf = Buffer.create 16 in
         let in_str = ref true in
         while !in_str do
           if !i >= len then fail "unterminated label value for %s" lname;
           (match line.[!i] with
           | '"' -> in_str := false
           | '\\' ->
               if !i + 1 >= len then fail "dangling backslash in label value";
               (match line.[!i + 1] with
               | '\\' -> Buffer.add_char buf '\\'
               | '"' -> Buffer.add_char buf '"'
               | 'n' -> Buffer.add_char buf '\n'
               | c -> fail "bad escape \\%c in label value" c);
               incr i
           | c -> Buffer.add_char buf c);
           incr i
         done;
         labels := (lname, Buffer.contents buf) :: !labels;
         if !i < len && line.[!i] = ',' then incr i
         else if !i >= len || line.[!i] <> '}' then
           fail "expected , or } after label %s" lname
       end
     done
   end);
  if !i >= len || line.[!i] <> ' ' then fail "no space before value in %S" line;
  let rest = String.trim (String.sub line !i (len - !i)) in
  let value, _ts =
    match String.index_opt rest ' ' with
    | None -> (rest, None)
    | Some sp ->
        let ts = String.sub rest (sp + 1) (String.length rest - sp - 1) in
        (match int_of_string_opt (String.trim ts) with
        | Some _ -> ()
        | None -> fail "bad timestamp %S" ts);
        (String.sub rest 0 sp, Some ts)
  in
  if not (prom_value_ok value) then fail "bad sample value %S" value;
  { sm_name = name; sm_labels = List.rev !labels; sm_value = prom_value value }

(* Histogram series key: the label set minus [le], canonically ordered. *)
let series_key labels =
  List.filter (fun (k, _) -> k <> "le") labels
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v)
  |> String.concat ","

let strip_suffix name =
  List.find_map
    (fun sfx ->
      let n = String.length name and s = String.length sfx in
      if n > s && String.sub name (n - s) s = sfx then
        Some (String.sub name 0 (n - s), sfx)
      else None)
    [ "_bucket"; "_sum"; "_count" ]

let check_prom path =
  let text = read_file path in
  if text = "" then fail "%s: empty exposition" path;
  if text.[String.length text - 1] <> '\n' then
    fail "%s: missing final newline" path;
  let types = Hashtbl.create 16 in
  (* histogram base -> series key -> (le, cumulative) list / sum / count *)
  let buckets = Hashtbl.create 16 in
  let sums = Hashtbl.create 16 in
  let counts = Hashtbl.create 16 in
  let nsamples = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if String.trim line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ ty ] ->
            if not (metric_name_ok name) then
              fail "%s:%d: bad metric name %S in TYPE" path ln name;
            if Hashtbl.mem types name then
              fail "%s:%d: duplicate TYPE for %s" path ln name;
            if not (List.mem ty [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then fail "%s:%d: unknown type %S for %s" path ln ty name;
            Hashtbl.replace types name ty
        | "#" :: "TYPE" :: _ -> fail "%s:%d: malformed TYPE line %S" path ln line
        | "#" :: "HELP" :: name :: _ ->
            if not (metric_name_ok name) then
              fail "%s:%d: bad metric name %S in HELP" path ln name
        | _ -> () (* other comments are legal and ignored *)
      end
      else begin
        incr nsamples;
        let s = parse_sample path ln line in
        let family, suffix =
          match strip_suffix s.sm_name with
          | Some (base, sfx) when Hashtbl.mem types base -> (base, Some sfx)
          | _ -> (s.sm_name, None)
        in
        let ty =
          match Hashtbl.find_opt types family with
          | Some ty -> ty
          | None -> fail "%s:%d: sample %s precedes its TYPE" path ln s.sm_name
        in
        (match (ty, suffix) with
        | ("histogram" | "summary"), None ->
            fail "%s:%d: bare sample %s for %s family" path ln s.sm_name ty
        | ("counter" | "gauge" | "untyped"), Some _ ->
            (* strip_suffix only fires when the stripped base is TYPE'd,
               so this means e.g. a foo_count sample for a counter foo *)
            fail "%s:%d: suffixed sample %s for %s family" path ln s.sm_name ty
        | _ -> ());
        if ty = "counter" && not (s.sm_value >= 0.0) then
          fail "%s:%d: counter %s is negative (%g)" path ln s.sm_name s.sm_value;
        if ty = "histogram" then begin
          let key = series_key s.sm_labels in
          let record tbl v =
            let per = Option.value (Hashtbl.find_opt tbl family)
                        ~default:(Hashtbl.create 4) in
            Hashtbl.replace per key v;
            Hashtbl.replace tbl family per
          in
          match suffix with
          | Some "_bucket" ->
              let le =
                match List.assoc_opt "le" s.sm_labels with
                | Some le -> le
                | None -> fail "%s:%d: %s_bucket without le label" path ln family
              in
              if not (prom_value_ok le) then
                fail "%s:%d: bad le bound %S" path ln le;
              let per = Option.value (Hashtbl.find_opt buckets family)
                          ~default:(Hashtbl.create 4) in
              let prior = Option.value (Hashtbl.find_opt per key) ~default:[] in
              Hashtbl.replace per key ((prom_value le, s.sm_value) :: prior);
              Hashtbl.replace buckets family per
          | Some "_sum" -> record sums s.sm_value
          | Some "_count" -> record counts s.sm_value
          | _ -> assert false
        end
      end)
    lines;
  (* Histogram invariants, per series. *)
  Hashtbl.iter
    (fun family ty ->
      if ty = "histogram" then begin
        let per =
          match Hashtbl.find_opt buckets family with
          | Some per -> per
          | None -> fail "%s: histogram %s has no _bucket samples" path family
        in
        Hashtbl.iter
          (fun key rev_bkts ->
            let where =
              if key = "" then family else Printf.sprintf "%s{%s}" family key
            in
            let bkts = List.rev rev_bkts in
            let rec ascending = function
              | (le1, c1) :: ((le2, c2) :: _ as tl) ->
                  if not (le1 < le2) then
                    fail "%s: %s: le bounds not ascending (%g then %g)" path
                      where le1 le2;
                  if c1 > c2 then
                    fail "%s: %s: cumulative counts decrease at le=%g" path
                      where le2;
                  ascending tl
              | _ -> ()
            in
            ascending bkts;
            let inf_count =
              match List.rev bkts with
              | (le, c) :: _ when le = Float.infinity -> c
              | _ -> fail "%s: %s: no le=\"+Inf\" bucket" path where
            in
            (match
               Option.bind (Hashtbl.find_opt counts family) (fun per ->
                   Hashtbl.find_opt per key)
             with
            | Some c when c = inf_count -> ()
            | Some c ->
                fail "%s: %s: +Inf bucket %g disagrees with _count %g" path
                  where inf_count c
            | None -> fail "%s: %s: no _count sample" path where);
            if
              Option.bind (Hashtbl.find_opt sums family) (fun per ->
                  Hashtbl.find_opt per key)
              = None
            then fail "%s: %s: no _sum sample" path where)
          per
      end)
    types;
  Printf.printf "%s: ok (%d samples, %d families)\n" path !nsamples
    (Hashtbl.length types)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--prom" :: (_ :: _ as files) -> List.iter check_prom files
  | _ :: "--prom" :: [] ->
      prerr_endline "usage: jsonck --prom <metrics.prom>...";
      exit 2
  | _ :: "--pure" :: (_ :: _ as files) -> List.iter check_pure files
  | _ :: "--pure" :: [] ->
      prerr_endline "usage: jsonck --pure <doc.json>...";
      exit 2
  | _ :: "--memo-warm" :: (_ :: _ as files) -> List.iter check_memo_warm files
  | _ :: "--memo-warm" :: [] ->
      prerr_endline "usage: jsonck --memo-warm <figures.json>...";
      exit 2
  | [ _; "--figures-equal"; a; b ] -> check_figures_equal a b
  | _ :: "--figures-equal" :: _ ->
      prerr_endline "usage: jsonck --figures-equal <a.json> <b.json>";
      exit 2
  | _ :: chrome :: rest ->
      check_chrome chrome;
      List.iter check_jsonl rest
  | _ ->
      prerr_endline
        "usage: jsonck <chrome-trace.json> [<events.jsonl>...] | jsonck --pure \
         <doc.json>... | jsonck --prom <metrics.prom>...";
      exit 2
