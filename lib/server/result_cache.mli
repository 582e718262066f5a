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
    computation; a later lookup of the key {e joins} the flight as a
    waiter — any value of the caller's (the server passes the
    connection, request id, op kind and arrival time). Nobody blocks:
    the owner's {!fill} (cacheable result) or {!cancel} (error — errors
    are never cached) hands the waiters back, and the owner answers
    them. Empty hit lists {e are} cached (negative caching): a no-match
    reply is as expensive to recompute as a match.

    Invalidation is generational: {!invalidate} bumps a generation
    counter and clears every shard; tokens carry the generation at
    miss time and {!fill} drops inserts whose generation is stale, so
    a computation racing a SIGHUP reload can never re-insert bytes
    from the pre-reload container. *)

type 'w t
(** A cache whose in-flight computations collect waiters of type ['w]. *)

type cached = {
  ctag : int;  (** {!Protocol.reply_tag} of the cached reply. *)
  cbody : string;  (** {!Protocol.encode_reply_body} of the reply. *)
}

type 'w token
(** Ownership of one in-flight computation; must be settled with
    {!fill} or {!cancel}, or its waiters are never answered. *)

type 'w outcome =
  | Hit of cached
  | Fresh of 'w token
  | Joined
      (** The key was in flight and the [~join] value is now one of its
          waiters: the owner will hand it back. *)
  | Busy
      (** The key was in flight and no [~join] value was given: nothing
          was installed. *)
  | Bypass
      (** First sighting of the key: not admitted, nothing installed,
          nothing owed — compute the reply as if the cache were off. *)

val create : capacity_bytes:int -> ?shards:int -> unit -> 'w t
(** [shards] defaults to 8; each shard gets an equal slice of the byte
    budget and its own lock. The slice pays first for the shard's
    hash table, sized here for the most entries the slice can hold so
    it never rehashes, and its doorkeeper; entries get the rest.
    Raises [Invalid_argument] on a non-positive capacity or shard
    count. *)

val find : 'w t -> ?metrics:Metrics.t -> ?join:'w -> string -> 'w outcome
(** Non-blocking lookup; records hit/miss/bypass/wait in [metrics] (a
    bypass also counts as a miss, a join counts as a wait). A [Fresh]
    return installs the in-flight slot — the caller now owes a
    {!fill}/{!cancel}. On an in-flight key, [join] decides between
    [Joined] and [Busy]. *)

val fill : 'w t -> 'w token -> cached -> 'w list
(** Insert (unless the generation moved or the slot was superseded) and
    hand back the flight's waiters, in join order, for the caller to
    answer with the cached entry. A second settle of the same token
    returns [[]]. *)

val cancel : 'w t -> 'w token -> 'w list
(** Settle without caching: remove the slot and hand back the waiters,
    for the caller to answer with the same reply as its own request. *)

val invalidate : ?metrics:Metrics.t -> 'w t -> unit
(** Flush every entry and fence in-flight computations (their fills
    insert nothing, but still hand back their waiters). The doorkeepers are kept: they hold which keys are
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
  waits : int;  (** Requests that joined a flight. *)
  evictions : int;
}

val stats : 'w t -> stats
(** Aggregated over shards (takes each shard lock briefly). *)

val buckets : 'w t -> int
(** Hash-table buckets over all shards: fixed at {!create}, since the
    tables never resize. Walks every table under its lock, so it is
    for tests and diagnostics, not the request path. *)

val key : Protocol.op -> string option
(** The cache key for an op, or [None] if the op is not cacheable
    (Stats, Ping, Slow). The key packs op kind, index id, τ's raw IEEE
    bits, k and the pattern — the full semantic identity of a query. *)
