(** Server-side query-result cache (DESIGN.md §14).

    A sharded LRU over {e encoded reply bytes}: an entry stores a
    reply's wire tag and its id-independent binary body
    ({!Protocol.encode_reply_body}). A hit is served by splicing a fresh
    (length, tag, id) prefix in front of the cached body —
    byte-identical to encoding the reply from scratch, and with no
    engine work and no per-hit allocation beyond the frame already
    pooled in the connection's write buffer. Connections on the JSON
    fallback decode the body ({!Protocol.decode_reply_body}).

    Admission: a key is cached only on its {e second} sighting. Each
    shard keeps a doorkeeper (a small Bloom filter of recently seen key
    hashes, cleared after a fixed number of recordings); a table miss on
    a key it has not seen is recorded and answered {!Bypass} — the
    caller computes the reply and caches nothing. A one-off query so
    costs no flight, no body encoding and no entry.

    Concurrent misses on an admitted key are herd-suppressed ({e single
    flight}): the first miss returns a {!token} and owns the
    computation; later arrivals get {!Busy} and can {!wait} for the
    owner to {!fill} (cacheable result) or {!cancel} (error — errors
    are never cached). Empty hit lists {e are} cached (negative
    caching): a no-match reply is as expensive to recompute as a
    match.

    Invalidation is generational: {!invalidate} bumps a generation
    counter and clears every shard; tokens carry the generation at
    miss time and {!fill} drops inserts whose generation is stale, so
    a computation racing a SIGHUP reload can never re-insert bytes
    from the pre-reload container. *)

type t

type cached = {
  ctag : int;  (** {!Protocol.reply_tag} of the cached reply. *)
  cbody : string;  (** {!Protocol.encode_reply_body} of the reply. *)
}

type token
(** Ownership of one in-flight computation; must be settled with
    {!fill} or {!cancel} exactly once, or its waiters block forever. *)

type flight
(** An in-flight computation owned by someone else. *)

type settled =
  | Settled_cached of cached
  | Settled_reply of Protocol.reply
      (** The owner cancelled (error reply, or stale generation made
          the result uncacheable) — serve this value directly. *)

type outcome =
  | Hit of cached
  | Fresh of token
  | Busy of flight
  | Bypass
      (** First sighting of the key: not admitted, nothing installed,
          nothing owed — compute the reply as if the cache were off. *)

val create : capacity_bytes:int -> ?shards:int -> unit -> t
(** [shards] defaults to 8; each shard gets an equal slice of the byte
    budget and its own lock. The slice pays first for the shard's
    hash table, sized here for the most entries the slice can hold so
    it never rehashes, and its doorkeeper; entries get the rest.
    Raises [Invalid_argument] on a non-positive capacity or shard
    count. *)

val find : t -> ?metrics:Metrics.t -> string -> outcome
(** Non-blocking lookup; records hit/miss/bypass/wait in [metrics] (a
    bypass also counts as a miss). A [Fresh] return installs the
    in-flight slot — the caller now owes a {!fill}/{!cancel}. Callers
    that may hold unsettled tokens must not {!wait} before settling
    them (deadlock discipline; see the server's batch executor). *)

val wait : flight -> settled
(** Block until the owner settles. *)

val fill : t -> token -> cached -> unit
(** Insert (unless the generation moved or the slot was superseded) and
    wake waiters with the cached entry. *)

val cancel : t -> token -> Protocol.reply -> unit
(** Settle without caching: wake waiters with the reply value. *)

val invalidate : ?metrics:Metrics.t -> t -> unit
(** Flush every entry and fence in-flight computations (their fills
    become no-ops). The doorkeepers are kept: they hold which keys are
    asked for, not answers. Wired to SIGHUP revalidation and to
    engine-cache corrupt-open evictions; counts an invalidation in
    [metrics]. *)

type stats = {
  entries : int;
  bytes : int;
      (** Heap bytes of the entries: key and body strings, the cached
          record, LRU node, table slot and bucket cell. *)
  capacity_bytes : int;
      (** What entries may occupy: the budget less the fixed tables. *)
  hits : int;
  misses : int;
  bypassed : int;  (** Misses not admitted (first sightings). *)
  waits : int;
  evictions : int;
}

val stats : t -> stats
(** Aggregated over shards (takes each shard lock briefly). *)

val buckets : t -> int
(** Hash-table buckets over all shards: fixed at {!create}, since the
    tables never resize. Walks every table under its lock, so it is
    for tests and diagnostics, not the request path. *)

val key : Protocol.op -> string option
(** The cache key for an op, or [None] if the op is not cacheable
    (Stats, Ping, Slow). The key packs op kind, index id, τ's raw IEEE
    bits, k and the pattern — the full semantic identity of a query. *)
