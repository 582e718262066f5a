(** Server metrics registry: lock-free counters and latency histograms
    shared by the accept loop and the worker domains.

    Counters are [Atomic.t] increments. Latencies go into a fixed
    power-of-two-bucketed histogram (1 µs, 2 µs, … ≈134 s) whose bucket
    counters are themselves atomic, so recording from any domain is
    wait-free and percentile reads are approximate only in that a value
    reports as its bucket's upper bound (≤ 2× the true latency). The
    load generator computes exact client-side percentiles; this registry
    is the server's own view, served by the [Stats] request and dumped
    on SIGUSR1. *)

type t

val create : unit -> t

(** {2 Recording} *)

val incr_received : t -> kind:string -> unit
(** A request of this kind entered the system (kinds are
    {!Protocol.op_kind} labels). *)

val incr_ok : t -> kind:string -> unit
val incr_error : t -> err:string -> unit
(** A typed error reply was sent ([err] is
    {!Protocol.err_to_string}). *)

val incr_connections : t -> unit

val incr_connection_shed : t -> unit
(** An accepted connection was immediately closed because the server is
    at [--max-conns] (or readiness registration failed). *)

val incr_dropped_replies : t -> unit
(** Replies that could not be written (client went away). *)

val incr_cache_hit : t -> unit
val incr_cache_miss : t -> unit

val incr_cache_open_failure : t -> unit
(** A cached index failed to open or revalidate (corrupt or missing
    file) and was evicted. *)

val incr_worker_death : t -> unit
(** A worker domain died on an uncaught exception and was respawned. *)

val incr_accept_failure : t -> unit
(** [accept] failed with a real error (not EAGAIN/EINTR); the server
    kept listening. *)

val incr_reload : t -> unit
(** A SIGHUP-triggered cache revalidation completed. *)

val observe_queue_depth : t -> int -> unit
(** Record the queue depth seen at enqueue time: keeps the maximum and
    feeds the depth histogram (the queue-depth gauge in the JSON). *)

val record_batch_size : t -> int -> unit
(** A worker drained a batch of this many jobs in one [pop_batch]
    round; feeds the batch-size histogram, the batched-jobs counter and
    the max. *)

val gc_sampler : t -> unit -> unit
(** A per-domain GC delta reporter. [Gc] counters are domain-local in
    OCaml 5, so every domain doing request work (each worker, the
    accept loop) creates one sampler and calls it periodically (once
    per drained batch / loop tick); each call adds the words and
    collections since the sampler's previous call to the registry's
    shared GC accumulators. The allocation-rate view this gives —
    minor words per served request — is the regression gauge for the
    zero-allocation hot path (DESIGN.md §14). *)

val incr_result_cache_hit : t -> unit
(** A query was answered from the result cache (pre-encoded reply
    bytes, no engine work). *)

val incr_result_cache_miss : t -> unit

val incr_result_cache_bypass : t -> unit
(** A miss on a key seen for the first time: not admitted to the
    result cache, so the reply was computed and nothing was cached or
    encoded twice. Counted on top of the miss, so hits / (hits +
    misses) stays the hit ratio. *)

val incr_result_cache_wait : t -> unit
(** Single-flight herd suppression: a request joined an identical
    in-flight computation instead of duplicating it, and is answered by
    its owner ([single_flight_waits] in the stats JSON). Nothing blocks:
    this counts joined requests, not waiting threads. *)

val incr_result_cache_invalidation : t -> unit
(** The result cache was flushed (SIGHUP revalidate, or an engine-cache
    eviction of a corrupt/unopenable container). *)

val record_latency : t -> kind:string -> seconds:float -> unit

val incr_loop_send : t -> unit
val incr_worker_write : t -> unit
val incr_read : t -> unit
val incr_epoll_wait : t -> unit
(** The daemon's own socket syscalls: each send(2) of the accept loop
    (refused ones included), each blocking reply write of a worker (a
    write(2), repeated only if the socket takes the bytes in parts),
    each read(2) of a connection and each readiness wait. *)

(** {2 Reading} *)

val requests_received : t -> kind:string -> int
val errors : t -> err:string -> int
val overloaded : t -> int
val timeouts : t -> int
val cache_open_failures : t -> int
val worker_deaths : t -> int
val accept_failures : t -> int
val reloads : t -> int
val connections_shed : t -> int

val gc_minor_words : t -> int
(** Total minor-heap words allocated by reporting domains (see
    {!gc_sampler} for who reports). *)

val result_cache_hits : t -> int
val result_cache_misses : t -> int
val result_cache_bypassed : t -> int
val result_cache_waits : t -> int
val result_cache_invalidations : t -> int

val record_scrub_pass :
  t -> segments:int -> corrupt:int -> quarantined:int -> unit
(** One completed scrubber pass over a corpus: how many segments were
    checksum-walked, how many failed, how many were evicted to
    quarantine (see {!Pti_segment.Segment_store.scrub}). *)

val scrub_corrupt : t -> int
val scrub_quarantined : t -> int

val batches : t -> int
(** Batched drain rounds executed by workers. *)

val batched_jobs : t -> int
(** Total jobs delivered through those rounds. *)

val max_batch_size : t -> int

val loop_sends : t -> int
val worker_writes : t -> int
val reads : t -> int
val epoll_waits : t -> int

val to_json :
  ?cache_shards:(int * int * int * int) array ->
  ?result_cache:int * int * int * int ->
  ?corpora:string ->
  t ->
  queue_depth:int ->
  string
(** The whole registry as a JSON object (counters by kind, error
    counts, cache hit/miss, queue depth gauge + histogram percentiles,
    batch-size histogram, the daemon's own syscall counts, p50/p95/p99
    per kind, uptime). [cache_shards] (from
    {!Engine_cache.shard_stats}) adds a per-shard cache stats array;
    [result_cache] — (entries, bytes, capacity_bytes, evictions) from
    {!Result_cache.stats} — adds the result cache's size gauges to its
    counter object; [corpora] (pre-rendered JSON, owned by the server)
    adds the per-corpus segment/memtable/tombstone gauges. *)
