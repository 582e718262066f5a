(** The query-serving daemon (DESIGN.md §10 and §12).

    One accept loop (the domain that calls {!run}) multiplexes every
    connection through a {!Pti_epoll} readiness set (epoll on Linux,
    poll elsewhere — no [FD_SETSIZE] connection ceiling) and parses
    complete frames. It answers [Stats], [Ping], refusals, result-cache
    hits (one cache lookup per request) and cheap misses itself: engine
    queries on an in-memory index or an already open container whose
    pattern has at most {!loop_pattern_max} symbols and whose suffix
    range holds at most {!loop_range_budget} entries. A request
    whose key is being computed joins that computation. Everything else
    — heavier queries, cold containers, corpora, mutations, [Slow] —
    goes, with an arrival time and a deadline, to a bounded
    {!Pti_parallel.Bqueue}; worker domains pop up to [batch_max] jobs
    at a time and run them one by one. Queries are pure reads of
    immutable engines, so the loop and the workers share handles with
    no locking; the only synchronisation on the hot path is the queue
    itself, the result-cache and engine-cache shard mutexes, and a
    per-connection write mutex (replies from different workers and the
    loop may interleave on one pipelined connection).

    Backpressure is explicit: when queued requests plus requests
    waiting on an in-flight computation reach [queue_cap], the accept
    loop answers [Overloaded] immediately instead of buffering or
    hanging, and a request whose deadline expires while queued is
    answered [Timeout] by the worker that dequeues it (as are the
    requests waiting on it). [Stats] and [Ping] are answered inline by
    the accept loop so the server stays observable while saturated.

    The accept loop never blocks on a socket or on a connection's
    write mutex: it sends with [MSG_DONTWAIT], keeps what the socket
    refuses pending and stops reading that connection until the bytes
    drain, and hands its replies to the mutex holder when a worker is
    writing.

    Resource bounds: per-connection input is capped ([max_frame] for
    binary frames, [max_json_line] for the JSON fallback), concurrent
    connections are capped at [max_conns] (extra accepts are shed
    immediately and counted), and replies carry a send timeout
    ([send_timeout_ms]) so a client that stops reading is dropped rather
    than pinning a worker or the loop. A connection's fd is only ever
    closed under its write mutex, so a reply in flight can never race a
    close onto a reused fd number. *)

type source =
  | Source_file of string
      (** Resolved through the engine LRU cache at request time. *)
  | Source_general of Pti_core.General_index.t
      (** A pre-built in-memory index (the bench's heap engine). *)
  | Source_listing of Pti_core.Listing_index.t
  | Source_corpus of Pti_segment.Segment_store.t
      (** A live read-write segment store (DESIGN.md §15): queries
          scatter-gather across its memtable and segments, and the
          mutation ops ([Insert]/[Delete]/[Flush]) are accepted. The
          server owns mutation of the directory while it runs; SIGHUP
          additionally {!Pti_segment.Segment_store.reload}s the
          manifest to pick up external compactions. Result-cache keys
          for corpus queries carry the store's volatile version, read
          when the request is dispatched, so every mutation implicitly
          invalidates prior cached replies; a read pipelined behind a
          mutation that is not yet acknowledged may be answered from
          the version current at its dispatch. *)

type config = {
  host : string;  (** Bind address (default "127.0.0.1"). *)
  port : int;  (** 0 picks an ephemeral port; see {!port}. *)
  workers : int;  (** Worker domains (default
                      {!Pti_parallel.num_domains}[ ()]). *)
  queue_cap : int;  (** Request queue bound (default 1024). *)
  deadline_ms : float;  (** Per-request deadline (default 5000). *)
  cache_cap : int;  (** Open-engine LRU capacity (default 8). *)
  verify : bool;  (** Checksum containers on open (default [true]). *)
  debug_slow : bool;
      (** Allow the [Slow] debug op (default [false]; tests and the
          bench enable it to provoke overload/timeouts). *)
  send_timeout_ms : float;
      (** [SO_SNDTIMEO] on accepted sockets (default 5000; [0] disables).
          A client that stops reading while its socket buffer is full
          stalls a worker's reply write for at most this long, after
          which the write fails and the connection is dropped; reply
          bytes the accept loop could not send are dropped with the
          connection when they have not drained within the same time —
          one slow client cannot pin the accept loop or the worker pool
          indefinitely. *)
  drain_timeout_ms : float;
      (** How long {!stop} lets already-queued requests keep completing
          before the rest are answered [Shutting_down] (default 5000).
          New requests arriving during the drain are refused with
          [Shutting_down] immediately. *)
  max_conns : int;
      (** Concurrent connection cap (default 4096); accepts beyond it
          are closed immediately and counted as shed. The epoll loop has
          no [FD_SETSIZE] limit, so this can be raised to whatever the
          process's fd limit allows. *)
  max_json_line : int;
      (** Upper bound on one line of the JSON fallback protocol
          (default {!Protocol.max_json_line}, 1 MiB). *)
  batch_max : int;
      (** Most jobs a worker takes from the queue in one pop (default
          32); it runs them one by one and writes each connection's
          replies together. *)
  result_cache_mb : int;
      (** Byte budget (MiB) of the server-side query-result cache
          (default 64; [0] disables it). The cache stores {e encoded}
          reply bodies keyed by the full semantic identity of a query
          (index, op, pattern, τ bits, k) behind single-flight herd
          suppression; hits are byte-identical to direct engine replies,
          are answered by the accept loop and skip the queue and the
          engine entirely. It is flushed on SIGHUP
          revalidation and whenever the engine cache evicts a
          corrupt/unopenable container, so a reloaded container never
          serves stale bytes (DESIGN.md §14). *)
  compact_interval_ms : float;
      (** Poll period of the background compactor domain (default 50;
          [0] disables it). The domain is only spawned when at least
          one source is a [Source_corpus]; each tick it runs
          {!Pti_segment.Segment_store.compact} on every corpus whose
          size-tiered policy triggers, recording the merge duration
          under the ["compact"] latency kind. The same tick flushes
          each corpus's write-ahead log ({!Pti_segment.Segment_store.sync_wal}),
          bounding how long an acknowledged insert can sit unfsynced
          under an interval sync policy on an idle daemon. *)
  scrub_interval_ms : float;
      (** Period of the background integrity scrubber domain (default
          600000 — ten minutes; [0] disables it). Each pass re-walks
          every live segment's section checksums
          ({!Pti_segment.Segment_store.scrub}), quarantines corrupt
          segments through a manifest commit (queries degrade rather
          than crash; the eviction shows up as [degraded_segments] in
          the stats JSON and in the [scrub] metrics block) and then
          attempts read-repair via a forced compaction. Spawned only
          when at least one source is a [Source_corpus]. *)
  scrub_mb_s : float;
      (** IO budget of a scrub pass in MB/s (default 64; [0] =
          unthrottled). *)
}

val default_config : config

type t

val create : ?config:config -> source list -> t
(** Bind and listen (so {!port} is known immediately); request index
    ids are positions in the source list. Raises [Unix.Unix_error] if
    the address cannot be bound, [Invalid_argument] on an empty source
    list or invalid bounds ([max_conns < 1], [max_json_line < 64],
    [batch_max < 1]). File sources are opened lazily at first request,
    so a missing/corrupt file is a per-request [Bad_index] reply, not a
    startup failure. The engine cache is sharded per worker domain
    (paths hash to a shard; see {!Engine_cache.create}). *)

val loop_range_budget : int
(** The most suffix-array entries a result-cache miss may cover and
    still run on the accept loop (16). The range size bounds the
    query's work ({!Pti_core.Engine.query}'s [max_range]); a larger
    range goes to a worker. DESIGN.md §12.5 gives its measured
    worst-case cost (about 5 µs). *)

val loop_pattern_max : int
(** The longest pattern (32 symbols) a result-cache miss may have and
    still run on the accept loop. Decoding, validating and range-searching
    a pattern grow with its length, which {!loop_range_budget} does not
    bound; a longer pattern goes to a worker. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val run : t -> unit
(** Spawn the workers and serve until {!stop}; joins the workers and
    closes every socket before returning. Ignores SIGPIPE for the whole
    process (a client hanging up must not kill the daemon). *)

val stop : t -> unit
(** Ask {!run} to drain and shut down; safe from any domain, a signal
    handler included (the SIGTERM/SIGINT hook). Idempotent. {!run}
    stops accepting, lets queued requests finish for at most
    [drain_timeout_ms], answers the remainder [Shutting_down], then
    joins the workers and closes every socket. *)

val request_reload : t -> unit
(** Make the accept loop revalidate every cached index file at its next
    iteration — the SIGHUP hook (safe from a signal handler: it only
    sets a flag). Files atomically rewritten since they were opened are
    reopened; files now missing or corrupt are evicted (and logged), so
    subsequent requests get a typed [Bad_index] reply instead of stale
    or poisoned data. *)

val request_stats_dump : t -> unit
(** Make the accept loop print {!stats_json} to stderr at its next
    iteration — the SIGUSR1 hook (safe from a signal handler: it only
    sets a flag). *)

val metrics : t -> Metrics.t

val stats_json : t -> string
(** The metrics registry (plus current queue depth) as JSON — the
    payload of a [Stats] reply. *)
