(** Domain-safe, single-flight memo table: each key is computed exactly
    once, concurrent callers of an in-flight key block until its value
    (or failure) is published.

    A table created with [max_bytes] is a byte-capped LRU cache: every
    finished entry is charged the bytes it reaches when it is
    published, and the least-recently-used finished entries are
    dropped until the charged total is back under the cap.  An entry
    still being computed, and the entry just published, are never
    dropped; a dropped key is computed again on its next request.  A
    table created without a cap never sizes or drops anything. *)

type ('k, 'v) t

(** [create ?max_bytes n]: [n] is the initial hash-table size.  Under
    a cap, binding [v] to [k] is charged [8 * Obj.reachable_words] of
    the pair [(k, v)] (a cached failure: of [k] and its exception), so
    parts an entry shares with others are charged to each of them and
    the charged total bounds from above what the table keeps alive.
    The charge is taken only when [max_bytes] is given, once per value
    computed or offered to {!add}, outside the table's lock. *)
val create : ?max_bytes:int -> int -> ('k, 'v) t

(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] (outside the lock) and caches it.  If [f] raised, the
    failure is cached and re-raised for every caller of [k].  A hit
    makes [k] the most recently used entry. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** The cached value for [k], if already computed; a hit makes [k] the
    most recently used entry. *)
val find_opt : ('k, 'v) t -> 'k -> 'v option

(** [add ?over t k v] publishes [v] under [k], not single-flight: when
    [k] is absent, or holds a computed value [old] with [over old]
    (default: never), [v] takes its place, charged anew, as the most
    recently used entry.  A key being computed or holding a failure is
    left alone.  Returns whether [v] was published. *)
val add : ?over:('v -> bool) -> ('k, 'v) t -> 'k -> 'v -> bool

(** Number of keys present (computed, failed or in flight). *)
val length : ('k, 'v) t -> int

(** Fold over the successfully computed bindings, in no particular
    order (hash order).  [f] runs under the table's lock: it must not
    call back into the table. *)
val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a

(** The cap the table was created with, if any. *)
val max_bytes : ('k, 'v) t -> int option

(** Bytes charged to the resident entries (0 without a cap). *)
val bytes : ('k, 'v) t -> int

(** Entries dropped under the cap since creation. *)
val evictions : ('k, 'v) t -> int
