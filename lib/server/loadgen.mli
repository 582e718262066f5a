(** Load generator for the serving daemon.

    Opens [concurrency] connections, each driven by its own thread with
    one outstanding request at a time (so measured latency is pure
    request latency, and total offered concurrency equals the
    connection count). Each client draws its operation mix and patterns
    from a {e deterministic} per-client stream
    ([Querygen.state ~seed ~stream:client]), so a run with the same
    seed, dataset and per-client request count replays the exact same
    request sequence — the property the end-to-end test and
    [make serve-smoke] rely on.

    Latencies are recorded client-side per request and merged for exact
    percentiles (unlike the server's bucketed histogram). *)

type mix = { query : int; top_k : int; listing : int }
(** Relative weights; negative weights are invalid, at least one must
    be positive. *)

val mix_of_string : string -> mix
(** Parse ["query=8,topk=1,listing=1"] (missing kinds weigh 0). Raises
    [Failure] on malformed input. *)

val default_mix : listing_index:int option -> mix
(** The mix when none is given: query=8,topk=1, plus listing=1 when a
    listing index is named. Without one, listings would go to the main
    index, which is usually not a listing container, and come back as
    [bad_request]. *)

type result = {
  sent : int;
  ok : int;  (** Requests that eventually succeeded (retries included). *)
  retries : int;  (** Extra wire attempts made by the retry policy. *)
  errors : (string * int) list;
      (** Typed error replies by kind, counted only when a request
          exhausted its retries (or the error is not retryable). *)
  protocol_failures : int;
      (** Transport-level problems: connect failures, truncated frames,
          id mismatches — counted only after retries are exhausted. *)
  verify_failures : int;  (** Responses rejected by [~verify]. *)
  elapsed_s : float;
  throughput_rps : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
}

val run :
  ?host:string ->
  port:int ->
  concurrency:int ->
  ?duration_s:float ->
  ?requests_per_client:int ->
  ?warmup_s:float ->
  ?pattern_pool:int ->
  ?verify:(Protocol.op -> Protocol.reply -> bool) ->
  ?index:int ->
  ?listing_index:int ->
  ?k:int ->
  ?lengths:int list ->
  ?tau:float ->
  ?seed:int ->
  ?retries:int ->
  ?backoff_ms:float ->
  mix:mix ->
  source:Pti_ustring.Ustring.t ->
  unit ->
  result
(** Run the load. Each client stops after [requests_per_client]
    requests (default: unbounded) or once [duration_s] elapses
    (default 1.0; pass [requests_per_client] for fully deterministic
    runs — duration only bounds stragglers, set it to [infinity] to
    disable). [source] is the uncertain string patterns are drawn from
    (drawing from the indexed dataset makes them plausible, §8.1);
    [lengths] the pattern lengths cycled through (default [[4; 8]]);
    [tau] the query threshold (default 0.2); [k] the top-k size
    (default 5); [index] the served index id (default 0) and
    [listing_index] the id listing ops target (default [index] — point
    it at a listing container when [index] is a general one); [seed] the
    workload seed (default {!Pti_workload.Querygen.default_seed}).
    [verify] is called on every successful reply; a [false] return
    counts a verify failure.

    [warmup_s] (default 0) discards measurements from the run's first
    seconds: requests started inside the window are excluded from
    [sent]/[ok]/[retries] and the latency percentiles, and
    [throughput_rps] divides by the post-warmup window only — so
    connection setup, cold caches and not-yet-warm server state do not
    pollute steady-state rows. Correctness is never discarded: warmup
    replies are still verified, and their error/verify/protocol
    failures always count.

    [pattern_pool] (default: unlimited fresh patterns) makes each
    client pre-draw this many patterns from its seeded stream and then
    draw every request's pattern from that pool — a repetitive
    workload in the shape of production traffic, which is what gives a
    server-side result cache hits. Determinism is preserved: the pool
    and the draws both come from the client's workload stream.

    Client sockets set [TCP_NODELAY]: a client writes one small frame
    and blocks on the reply, the exact pattern Nagle + delayed ACK
    serialises into 40 ms stalls; without it small-frame latency
    percentiles measure kernel timers, not the server.

    [retries] (default 0) is the number of {e extra} attempts granted
    per request when the outcome is retryable — a transport failure
    (connect refused/reset, torn frame, EOF mid-stream) or a typed
    [Overloaded]/[Timeout]/[Shutting_down] reply. Attempt [a] waits
    [backoff_ms · 2^a · uniform[0.5, 1.5)] ms first (default base
    50 ms); the jitter is drawn from a dedicated per-client stream
    derived from [seed], so retrying never changes which operations the
    workload stream draws ({!backoff_delays} exposes the exact
    sequence). Transport failures drop and re-establish the
    connection — this is what lets a run ride out a daemon restart.

    Raises [Invalid_argument] on [concurrency < 1], an all-zero [mix],
    [retries < 0] or [backoff_ms < 0]. *)

val backoff_delays :
  seed:int -> stream:int -> backoff_ms:float -> int -> float list
(** The deterministic backoff delays (ms) client [stream] would use for
    attempts [0..n-1] — pure; for tests and capacity planning. *)

val summary : result -> string
(** Human-readable multi-line summary. *)

val to_json_fields : result -> string
(** The result's fields as a JSON fragment ("\"sent\": …, …", no
    braces) — spliced into BENCH_SERVE.json rows. *)
