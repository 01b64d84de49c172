(** The persistent simulation service behind [rcc serve].

    A hand-rolled HTTP/1.1 server (see {!Http}) over [Unix] sockets,
    owning one long-lived {!Rc_harness.Experiments.ctx} so its stage
    cache stays warm across requests: the second [/run] for any
    compiled-image fingerprint is re-timed by
    {!Rc_machine.Trace_replay} instead of executed, and from the third
    on a configuration's compiled image is reused instead of
    recompiled.

    Endpoints:
    - [POST /run]: one machine configuration + benchmark; the body is
      byte-identical to [rcc run --json] (modulo pass wall-clock).
    - [POST /figures]: experiment ids; same document as
      [rcc figures --json].
    - [GET /healthz]: liveness, uptime seconds, in-flight count.
    - [GET /version]: service version and build environment.
    - [GET /metrics]: Prometheus text exposition (version 0.0.4) of
      the {!Stats} registry — request counters by endpoint and status,
      request-duration histograms with cumulative [le] buckets, shed/
      abandoned totals, inflight and uptime gauges, and the harness
      trace- and stage-cache counters
      ({!Rc_harness.Experiments.export_metrics}).
    - [GET /metrics.json]: the pre-Prometheus JSON document
      ({!Rc_harness.Experiments.metrics_json}, whose [stage_cache]
      object holds the cache's entries, bytes, cap and evictions, plus
      per-endpoint request counts and latency quantiles).
    - [GET /trace]: Chrome trace-event JSON of the most recent
      [trace_capacity] requests' span breakdowns (admission queue,
      read, parse, compile, simulate — tagged execute/replay — render,
      write), loadable in Perfetto.

    Observability: every request carries an id — a client-supplied
    [X-Request-Id] (up to 128 bytes) or a server-assigned [rNNNNNN] —
    echoed back as an [X-Request-Id] response header, attached to
    every span, to the access-log line ([config.access_log]) and to
    the slow-request span dump emitted on stderr for requests slower
    than [config.slow_ms] milliseconds.

    Robustness: the accept loop sheds load with [503] +
    [Retry-After] once [max_inflight] requests are pending instead of
    queueing unboundedly; each request gets a deadline measured from
    accept — slow reads answer [408], and a response whose work
    finished after the deadline is abandoned (the shared context never
    is); request bodies beyond [max_body] answer [413]; malformed JSON
    answers [400] with a structured error body.  {!stop} (wired to
    SIGTERM/SIGINT by the CLI) stops accepting, lets every in-flight
    request complete, then returns from {!run}. *)

(** The service version reported by [GET /version] (kept in sync with
    the [rcc] CLI). *)
val version : string

(** The stage-cache cap [rcc serve] gives each worker process's
    context ({!Rc_harness.Experiments.create} [~max_bytes]): 64 MiB,
    about 2.4 times what a full 13-figure sweep charges, so
    [POST /figures] with every id evicts nothing, while a stream of
    never-repeated configurations cannot grow the heap without bound. *)
val stage_cache_bytes : int

type config = {
  host : string;  (** listen address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  backlog : int;  (** listen(2) backlog, default 16 *)
  max_inflight : int;  (** accepted-but-unfinished request bound *)
  max_body : int;  (** request body limit, bytes *)
  deadline_s : float;  (** per-request deadline from accept, seconds *)
  access_log : bool;  (** one stderr line per request (default off) *)
  slow_ms : float option;
      (** dump the span breakdown of requests slower than this *)
  trace_capacity : int;  (** requests retained for [GET /trace] *)
}

val default_config : config

type t

(** Open, bind and listen the server socket described by a config:
    the building block of the prefork mode, where the {e parent}
    opens the listener once — before any worker process or domain
    exists — and every worker [create]s around the inherited fd,
    accepting on it concurrently (the kernel load-balances accepts).
    The fd is close-on-exec (fork-only children still inherit it —
    the flag acts at exec); the returned port is the bound one (the
    actual port when [config.port] was 0).
    @raise Unix.Unix_error when binding fails. *)
val create_listener : config -> Unix.file_descr * int

(** Binds and listens; requests are dispatched onto the context's
    {!Rc_par.Pool} ([jobs - 1] spawned workers; with [jobs = 1] they
    run inline in the accept loop).  Does not take ownership of the
    context: the caller still shuts it down after {!run} returns.

    [listener] adopts an already-open socket from {!create_listener}
    instead of binding (the prefork worker path; [config.host]/[port]
    are then ignored).  [store] attaches an on-disk trace store: it is
    wired into the context's trace-cache misses
    ({!Rc_harness.Experiments.set_store}) and its gauges joined into
    [GET /metrics] / [/metrics.json]. *)
val create :
  ?config:config ->
  ?listener:Unix.file_descr * int ->
  ?store:Store.t ->
  Rc_harness.Experiments.ctx ->
  t

(** The bound port (the actual one when [config.port] was 0). *)
val port : t -> int

(** Accept loop: runs until {!stop}, then drains — stops accepting,
    waits for every in-flight request to finish — and returns. *)
val run : t -> unit

(** Signal {!run} to drain and return.  Async-signal-safe (sets a
    flag) and idempotent; callable from any domain or from a
    [Sys.Signal_handle]. *)
val stop : t -> unit

(** Requests accepted and not yet finished (queued included). *)
val inflight : t -> int

(** Requests fully handled since startup.  Connections that closed
    before sending any request are excluded (see {!closed_early}). *)
val served : t -> int

(** Connections that closed before sending any request — health
    probes, cancelled clients.  Counted separately from {!served} so
    the loadgen client-vs-server cross-check is not skewed. *)
val closed_early : t -> int

(** Seconds since {!create}. *)
val uptime_s : t -> float

(** Chrome trace-event JSON of the retained request spans — what
    [GET /trace] answers; the CLI writes it to [--trace FILE] after
    draining. *)
val trace_chrome : t -> string
