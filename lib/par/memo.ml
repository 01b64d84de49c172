(** Domain-safe, single-flight memo table, optionally a byte-capped LRU
    cache.

    [find_or_compute] guarantees each key is computed exactly once even
    when several domains ask for it concurrently: the first caller
    computes while later callers block on a condition variable until
    the value (or the failure) is published.  The compute function runs
    outside the lock, so independent keys are computed in parallel.

    Under a cap, finished entries sit on a doubly-linked recency list,
    oldest first: a hit moves its entry to the newest end, and a
    publication drops entries from the oldest end until the charged
    total fits.  An entry in flight is not on the list, so it is never
    dropped; its waiters hold the entry itself, not its key, so they
    get the value even if it is dropped before they wake. *)

type 'v state = Running | Done of 'v | Failed of exn

type ('k, 'v) entry = {
  key : 'k;
  mutable state : 'v state;
  mutable charge : int;
  mutable older : ('k, 'v) entry option;
  mutable newer : ('k, 'v) entry option;
}

type ('k, 'v) t = {
  lock : Mutex.t;
  published : Condition.t;
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  cap : int option;
  mutable oldest : ('k, 'v) entry option;
  mutable newest : ('k, 'v) entry option;
  mutable bytes : int;
  mutable evictions : int;
}

let create ?max_bytes n =
  {
    lock = Mutex.create ();
    published = Condition.create ();
    tbl = Hashtbl.create n;
    cap = max_bytes;
    oldest = None;
    newest = None;
    bytes = 0;
    evictions = 0;
  }

(* --- the recency list (capped tables only; callers hold the lock) ------- *)

let unlink t e =
  (match e.older with Some o -> o.newer <- e.newer | None -> t.oldest <- e.newer);
  (match e.newer with Some n -> n.older <- e.older | None -> t.newest <- e.older);
  e.older <- None;
  e.newer <- None

let push_newest t e =
  e.older <- t.newest;
  (match t.newest with
  | Some n -> n.newer <- Some e
  | None -> t.oldest <- Some e);
  t.newest <- Some e

let touch t e =
  match (t.cap, t.newest) with
  | None, _ -> ()
  | Some _, Some n when n == e -> ()
  | Some _, _ ->
      unlink t e;
      push_newest t e

(* Drop the oldest finished entries until the total fits, never [keep]
   (the newest: reaching it means it alone exceeds the cap). *)
let evict t keep =
  match t.cap with
  | None -> ()
  | Some cap ->
      let rec go () =
        match t.oldest with
        | Some e when t.bytes > cap && e != keep ->
            unlink t e;
            Hashtbl.remove t.tbl e.key;
            t.bytes <- t.bytes - e.charge;
            t.evictions <- t.evictions + 1;
            go ()
        | _ -> ()
      in
      go ()

(* The charge of a finished state, computed outside the lock: what the
   key and the value (or the exception) reach together, so a value that
   is a constant still costs its key. *)
let reachable_bytes k v = 8 * Obj.reachable_words (Obj.repr (k, v))

let charge t k = function
  | _ when t.cap = None -> 0
  | Done v -> reachable_bytes k v
  | Failed e -> reachable_bytes k e
  | Running -> 0

(* Give [e] its finished state: charged, newest, then evict. *)
let settle t e st c =
  let linked = match e.state with Running -> false | _ -> true in
  e.state <- st;
  if t.cap <> None then begin
    t.bytes <- t.bytes - e.charge + c;
    e.charge <- c;
    if linked then unlink t e;
    push_newest t e;
    evict t e
  end

let result = function
  | Done v -> v
  | Failed e -> raise e
  | Running -> assert false

let find_or_compute t k f =
  Mutex.lock t.lock;
  let rec await e =
    match e.state with
    | Running ->
        Condition.wait t.published t.lock;
        await e
    | st ->
        Mutex.unlock t.lock;
        result st
  in
  match Hashtbl.find_opt t.tbl k with
  | Some e ->
      (match e.state with Running -> () | _ -> touch t e);
      await e
  | None ->
      let e = { key = k; state = Running; charge = 0; older = None; newer = None } in
      Hashtbl.replace t.tbl k e;
      Mutex.unlock t.lock;
      let st = match f () with v -> Done v | exception ex -> Failed ex in
      let c = charge t k st in
      Mutex.lock t.lock;
      settle t e st c;
      Condition.broadcast t.published;
      Mutex.unlock t.lock;
      result st

let find_opt t k =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some ({ state = Done v; _ } as e) ->
          touch t e;
          Some v
      | _ -> None)

let add ?(over = fun _ -> false) t k v =
  let c = charge t k (Done v) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | None ->
          let e = { key = k; state = Running; charge = 0; older = None; newer = None } in
          Hashtbl.replace t.tbl k e;
          settle t e (Done v) c;
          true
      | Some ({ state = Done old; _ } as e) when over old ->
          settle t e (Done v) c;
          true
      | Some _ -> false)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

let fold f t acc =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k e acc -> match e.state with Done v -> f k v acc | _ -> acc)
        t.tbl acc)

let max_bytes t = t.cap
let bytes t = Mutex.protect t.lock (fun () -> t.bytes)
let evictions t = Mutex.protect t.lock (fun () -> t.evictions)
