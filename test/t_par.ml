(* Tests for rc_par: the domain pool's deterministic fan-out, exception
   propagation, the jobs=1 degeneracy, and the single-flight memo with
   its byte-capped LRU mode. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

let squares n = List.init n (fun k -> k * k)

let test_ordering () =
  Rc_par.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order" (squares 100)
        (Rc_par.Pool.map_cells pool (fun x -> x * x) xs))

let test_jobs_one_degeneracy () =
  Rc_par.Pool.with_pool ~jobs:1 (fun pool ->
      check "clamped to one domain" 1 (Rc_par.Pool.jobs pool);
      Alcotest.(check (list int))
        "jobs=1 is List.map" (squares 10)
        (Rc_par.Pool.map_cells pool (fun x -> x * x) (List.init 10 Fun.id));
      Alcotest.(check (list int))
        "empty input" []
        (Rc_par.Pool.map_cells pool (fun x -> x) []))

let test_jobs_clamped () =
  Rc_par.Pool.with_pool ~jobs:(-3) (fun pool ->
      check "negative jobs clamped" 1 (Rc_par.Pool.jobs pool))

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Rc_par.Pool.with_pool ~jobs (fun pool ->
          check_bool
            (Fmt.str "raises at jobs=%d" jobs)
            true
            (try
               ignore
                 (Rc_par.Pool.map_cells pool
                    (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
                    (List.init 50 Fun.id));
               false
             with Boom x ->
               (* the lowest-index failing cell wins, deterministically *)
               x = 3)))
    [ 1; 4 ]

let test_nested_fanout () =
  (* a cell may fan out again: the waiting domain helps drain the
     queue instead of deadlocking the pool *)
  Rc_par.Pool.with_pool ~jobs:2 (fun pool ->
      let vss =
        Rc_par.Pool.map_cells pool
          (fun x ->
            Rc_par.Pool.map_cells pool (fun y -> (10 * x) + y) [ 1; 2; 3 ])
          [ 1; 2 ]
      in
      Alcotest.(check (list (list int)))
        "nested results" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] vss)

let test_memo_single_flight () =
  Rc_par.Pool.with_pool ~jobs:4 (fun pool ->
      let memo = Rc_par.Memo.create 8 in
      let computed = Atomic.make 0 in
      let vs =
        Rc_par.Pool.map_cells pool
          (fun _ ->
            Rc_par.Memo.find_or_compute memo "key" (fun () ->
                Atomic.incr computed;
                (* widen the in-flight window so concurrent callers
                   actually hit the Running state *)
                ignore (Sys.opaque_identity (List.init 1000 Fun.id));
                42))
          (List.init 64 Fun.id)
      in
      check "computed exactly once" 1 (Atomic.get computed);
      check_bool "every caller sees the value" true
        (List.for_all (fun v -> v = 42) vs))

let test_memo_failure_cached () =
  let memo = Rc_par.Memo.create 8 in
  let computed = ref 0 in
  let attempt () =
    try
      ignore
        (Rc_par.Memo.find_or_compute memo "k" (fun () ->
             incr computed;
             raise (Boom 1)));
      false
    with Boom 1 -> true
  in
  check_bool "first call raises" true (attempt ());
  check_bool "second call raises too" true (attempt ());
  check "compute ran once" 1 !computed

let test_pool_stats () =
  Rc_par.Pool.with_pool ~jobs:3 (fun pool ->
      ignore
        (Rc_par.Pool.map_cells pool
           (fun x -> ignore (Sys.opaque_identity (List.init 2000 Fun.id)); x)
           (List.init 40 Fun.id));
      let stats = Rc_par.Pool.stats pool in
      check "one stats row per domain" 3 (List.length stats);
      let total_tasks =
        List.fold_left (fun a s -> a + s.Rc_par.Pool.d_tasks) 0 stats
      in
      check "every task attributed to a domain" 40 total_tasks;
      List.iter
        (fun s ->
          check_bool "busy time non-negative" true (s.Rc_par.Pool.d_busy_s >= 0.);
          check_bool "wait time non-negative" true (s.Rc_par.Pool.d_wait_s >= 0.))
        stats)

let test_pool_stats_jobs_one () =
  (* the jobs=1 inline path still attributes work to the single slot *)
  Rc_par.Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Rc_par.Pool.map_cells pool (fun x -> x) (List.init 7 Fun.id));
      match Rc_par.Pool.stats pool with
      | [ s ] -> check "inline tasks counted" 7 s.Rc_par.Pool.d_tasks
      | l -> Alcotest.failf "expected 1 stats row, got %d" (List.length l))

(* --- the byte-capped LRU memo ---------------------------------------------- *)

(* What a capped memo charges for binding [v] to [k]. *)
let charge k v = 8 * Obj.reachable_words (Obj.repr (k, v))

(* A fresh heap string of [n] bytes. *)
let blob n = String.make n 'v'
let capped cap = Rc_par.Memo.create ~max_bytes:cap 8

(* Resident computed keys, without touching recency. *)
let resident memo =
  List.sort compare (Rc_par.Memo.fold (fun k _ acc -> k :: acc) memo [])

let test_lru_recency () =
  let unit = charge "a" (blob 64) in
  let memo = capped (3 * unit) in
  List.iter
    (fun k -> ignore (Rc_par.Memo.find_or_compute memo k (fun () -> blob 64)))
    [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "all fit" [ "a"; "b"; "c" ] (resident memo);
  (* a hit makes "a" the newest, so "b" is now the oldest *)
  Alcotest.(check (option int)) "hit" (Some 64)
    (Option.map String.length (Rc_par.Memo.find_opt memo "a"));
  ignore (Rc_par.Memo.add memo "d" (blob 64));
  Alcotest.(check (list string)) "oldest dropped" [ "a"; "c"; "d" ]
    (resident memo);
  ignore (Rc_par.Memo.find_or_compute memo "e" (fun () -> blob 64));
  Alcotest.(check (list string)) "then the next oldest" [ "a"; "d"; "e" ]
    (resident memo);
  check "evictions" 2 (Rc_par.Memo.evictions memo);
  check "charged bytes" (3 * unit) (Rc_par.Memo.bytes memo);
  (* an evicted key is computed again *)
  let again = ref false in
  ignore
    (Rc_par.Memo.find_or_compute memo "b" (fun () ->
         again := true;
         blob 64));
  check_bool "evicted key recomputed" true !again

let test_lru_running_kept () =
  let cap = 2 * charge "x" (blob 64) in
  let memo = capped cap in
  let release = Atomic.make false in
  let computed = Atomic.make 0 in
  let slow () =
    Rc_par.Memo.find_or_compute memo "slow" (fun () ->
        Atomic.incr computed;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        blob 5)
  in
  let owner = Domain.spawn slow in
  while Rc_par.Memo.length memo = 0 do
    Domain.cpu_relax ()
  done;
  let waiter = Domain.spawn slow in
  Unix.sleepf 0.02;
  (* fill the table well past its cap while "slow" is in flight *)
  List.iter
    (fun k -> ignore (Rc_par.Memo.add memo k (blob 64)))
    [ "x"; "y"; "z"; "w" ];
  check_bool "evicted meanwhile" true (Rc_par.Memo.evictions memo >= 2);
  Atomic.set release true;
  check "owner gets the value" 5 (String.length (Domain.join owner));
  check "waiter gets the value" 5 (String.length (Domain.join waiter));
  check "computed once" 1 (Atomic.get computed);
  check_bool "just published, so resident" true
    (List.mem "slow" (resident memo));
  check_bool "under the cap" true (Rc_par.Memo.bytes memo <= cap)

let test_lru_failure_evictable () =
  (* room for the failure and one blob, not for two blobs *)
  let memo = capped (2 * charge "x" (blob 400)) in
  let computed = ref 0 in
  let bad () =
    try
      ignore
        (Rc_par.Memo.find_or_compute memo "bad" (fun () ->
             incr computed;
             raise (Boom 2)));
      false
    with Boom 2 -> true
  in
  check_bool "raises" true (bad ());
  check_bool "raises again" true (bad ());
  check "failure cached" 1 !computed;
  check_bool "a failure is charged" true (Rc_par.Memo.bytes memo > 0);
  List.iter (fun k -> ignore (Rc_par.Memo.add memo k (blob 400))) [ "x"; "y"; "z" ];
  check_bool "raises after eviction" true (bad ());
  check "recomputed once evicted" 2 !computed

type memo_op = Compute of int * int | Find of int | Add of int * int

let prop_lru_model =
  let cap = 4 * charge 0 (blob 100) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k n -> Compute (k, n)) (int_range 0 7) (int_range 1 200));
          (2, map (fun k -> Find k) (int_range 0 7));
          (2, map2 (fun k n -> Add (k, n)) (int_range 0 7) (int_range 1 200));
        ])
  in
  let show = function
    | Compute (k, n) -> Printf.sprintf "compute %d=%d" k n
    | Find k -> Printf.sprintf "find %d" k
    | Add (k, n) -> Printf.sprintf "add %d=%d" k n
  in
  QCheck.Test.make ~count:300 ~name:"LRU memo charges match a list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (int_range 0 60) op))
    (fun ops ->
      let memo = capped cap in
      (* the model: (key, charge), oldest first *)
      let model = ref [] in
      let total () = List.fold_left (fun a (_, c) -> a + c) 0 !model in
      let touch k =
        match List.assoc_opt k !model with
        | Some c -> model := List.remove_assoc k !model @ [ (k, c) ]
        | None -> ()
      in
      let publish k c =
        model := !model @ [ (k, c) ];
        let rec evict () =
          match !model with
          | (k', _) :: rest when total () > cap && k' <> k ->
              model := rest;
              evict ()
          | _ -> ()
        in
        evict ()
      in
      List.for_all
        (fun op ->
          (match op with
          | Compute (k, n) ->
              let v = blob n in
              ignore (Rc_par.Memo.find_or_compute memo k (fun () -> v));
              if List.mem_assoc k !model then touch k else publish k (charge k v)
          | Find k ->
              ignore (Rc_par.Memo.find_opt memo k);
              touch k
          | Add (k, n) ->
              let v = blob n in
              ignore (Rc_par.Memo.add memo k v);
              if not (List.mem_assoc k !model) then publish k (charge k v));
          Rc_par.Memo.bytes memo = total ()
          && resident memo = List.sort compare (List.map fst !model))
        ops)

let test_uncapped_never_sizes () =
  let memo = Rc_par.Memo.create 8 in
  for k = 0 to 99 do
    ignore (Rc_par.Memo.find_or_compute memo k (fun () -> blob 4096));
    ignore (Rc_par.Memo.add memo (-k - 1) (blob 4096));
    ignore (Rc_par.Memo.find_opt memo k)
  done;
  check "every entry kept" 200 (Rc_par.Memo.length memo);
  check "nothing charged" 0 (Rc_par.Memo.bytes memo);
  check "nothing evicted" 0 (Rc_par.Memo.evictions memo);
  check_bool "no cap" true (Rc_par.Memo.max_bytes memo = None)

let suite =
  [
    ("fan-out preserves order", `Quick, test_ordering);
    ("jobs=1 degeneracy", `Quick, test_jobs_one_degeneracy);
    ("jobs clamped to >= 1", `Quick, test_jobs_clamped);
    ("exception propagation", `Quick, test_exception_propagation);
    ("nested fan-out", `Quick, test_nested_fanout);
    ("memo is single-flight", `Quick, test_memo_single_flight);
    ("memo caches failures", `Quick, test_memo_failure_cached);
    ("pool per-domain stats", `Quick, test_pool_stats);
    ("pool stats at jobs=1", `Quick, test_pool_stats_jobs_one);
    ("LRU memo evicts in recency order", `Quick, test_lru_recency);
    ("LRU memo never evicts a running key", `Quick, test_lru_running_kept);
    ("LRU memo failure cached and evictable", `Quick, test_lru_failure_evictable);
    QCheck_alcotest.to_alcotest prop_lru_model;
    ("uncapped memo never sizes", `Quick, test_uncapped_never_sizes);
  ]
