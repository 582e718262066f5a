(** Dynamic corpus: LSM-style segment engines (DESIGN.md §15).

    A {!t} turns the one-shot listing engine into a mutable corpus
    living in a directory:

    - new documents accumulate in a small heap-built {e memtable}
      engine (rebuilt lazily; insertion itself is O(1));
    - {!seal} flushes the memtable through the streaming PTI-ENGINE-4
      writer into an immutable {e segment} container (packed or
      succinct, per the store's backend) carrying a slot → document-id
      section;
    - a generation-numbered {e manifest} container ([MANIFEST] in the
      directory) records the live segment set, per-segment tombstone
      bitmaps and the id allocator. Every transition (seal, delete,
      compact) writes segment files first and the manifest last, each
      through the crash-safe tmp+fsync+rename discipline of
      {!Pti_storage.Writer} — a crash at any failpoint leaves the
      previous generation fully intact (at worst plus an orphan
      segment file no manifest references);
    - {!compact} merges segments size-tiered and retires tombstoned
      documents.

    The read path is {e scatter-gather}: a query fans across the
    memtable and every live mmap segment, drops tombstoned documents,
    and merges the per-source answers (each already sorted by
    probability) with a bounded heap — descending probability,
    document id breaking ties. For a fixed manifest generation and
    memtable state the merged answer is a pure function of the
    directory contents, so byte-for-byte reply verification
    ([loadgen --verify] against the corpus directory) holds across
    processes.

    Concurrency: mutations serialize on internal locks; queries run
    lock-free on immutable snapshots (tombstone bitmaps are replaced
    copy-on-write, never mutated in place), so readers never block
    writers and vice versa — manifest fsyncs in particular happen
    outside the lock that guards reader snapshots, so a delete storm
    cannot stall the query path. {!generation} and {!version} are
    readable from any domain without synchronization caveats (they
    are atomics internally).

    Cross-process safety: a directory normally has one mutating
    process at a time, but the external-compaction flow ([pti corpus
    compact] against a directory a daemon is serving) means two
    writers can race. Every manifest commit takes an exclusive
    [lockf] lock on the sidecar [LOCK] file and re-checks the on-disk
    generation under it: if another process committed since this
    store last loaded the manifest, the commit raises {!Conflict}
    instead of silently clobbering the other writer's commit (which
    would resurrect its deletes). {!reload} (the daemon's SIGHUP
    hook) is how the losing writer — or a read-only observer — adopts
    the winning generation; it never adopts a generation older than
    the one already in memory. *)

module Logp = Pti_prob.Logp
module U = Pti_ustring.Ustring
module L = Pti_core.Listing_index

type config = {
  tau_min : float;  (** Construction threshold of every engine built. *)
  relevance : L.relevance;  (** Relevance metric (default [Rel_max]). *)
  backend : Pti_core.Engine.backend;
      (** Layout sealed segments are written in (default [Packed]). *)
  memtable_max_docs : int;
      (** Auto-{!seal} once the memtable holds this many documents
          (default 256; [0] disables — seal only on {!seal}). *)
  compact_min_segments : int;
      (** {!needs_compaction} triggers once the smallest size tier
          holds this many segments (default 4). *)
}

val default_config : tau_min:float -> config

(** When the write-ahead log is fsynced. Every [insert]/[delete]/[seal]
    {e appends} its record synchronously under any policy, so unsealed
    documents always survive a process crash (the bytes are in the page
    cache); the policy only decides what survives an OS crash or power
    loss:

    - [Wal_always]: fsync before the mutation returns — every
      acknowledged operation survives power loss;
    - [Wal_interval ms]: fsync at most every [ms] milliseconds
      (opportunistically on the next mutation, or from {!sync_wal});
      power loss can drop at most the last window of acknowledged
      operations;
    - [Wal_never]: never fsync the log (the OS flushes eventually).

    Manifest commits (seal, sealed-document deletes, compaction) are
    always fully fsynced regardless of this policy. *)
type wal_sync = Wal_always | Wal_interval of float | Wal_never

val default_wal_sync : wal_sync
(** [Wal_interval 5.0]. *)

val wal_sync_of_string : string -> wal_sync
(** Parse ["always"], ["interval:<ms>"] (ms > 0) or ["never"] — the
    [--wal-sync] CLI syntax. Raises [Failure] on anything else. *)

val wal_sync_to_string : wal_sync -> string

exception Conflict of { dir : string; disk_gen : int; mem_gen : int }
(** Raised by a mutation's manifest commit ({!seal}, {!delete},
    {!compact}, or an auto-sealing {!insert}) when the on-disk
    manifest generation no longer matches the one this store last
    loaded — another process committed in between. Nothing was
    written; call {!reload} to adopt the other writer's generation,
    then retry. *)

type t

val create : ?config:config -> ?wal_sync:wal_sync -> string -> t
(** Initialize [dir] as an empty corpus: create the directory if
    missing, write the generation-0 manifest and start the write-ahead
    log ([wal-000000.log]). Raises [Invalid_argument] if a manifest
    already exists there. *)

val open_dir :
  ?read_only:bool -> ?verify:bool -> ?wal_sync:wal_sync -> string -> t
(** Open an existing corpus directory. [read_only] (default [false])
    refuses every mutation — the mode verifiers and external readers
    use. [verify] (default [true]) checksums each container at open.

    Any [wal-NNNNNN.log] files are {e replayed} on top of the manifest
    generation, restoring unsealed memtable documents and deletes that
    were acknowledged before a crash. Replay is idempotent (a record
    whose document the manifest already seals is skipped), a torn tail
    is truncated at the first bad checksum (in-memory only when
    [read_only]), and a bad record in the {e middle} of a log — valid
    records after it — raises [Pti_storage.Corrupt] rather than
    silently dropping acknowledged operations. A writable open then
    consolidates multiple log files (a crash mid-rotation leaves at
    most two) into one fresh fsynced log under the directory lock.

    Raises [Sys_error] if there is no manifest,
    [Pti_storage.Corrupt] if the manifest, a referenced segment or the
    middle of a WAL file is damaged or a WAL record does not decode. A
    format-1 manifest or a log of marshalled records (the encodings of
    earlier corpora) is refused as a retired format before anything
    else is read from it. *)

val dir : t -> string

val generation : t -> int
(** The durable manifest generation: bumped by every committed seal,
    delete or compaction. *)

val version : t -> int
(** Volatile mutation counter: bumped by {e every} visible change,
    memtable inserts and deletes included (those change query answers
    without touching the manifest). Cache keys over query results must
    incorporate this, not {!generation}. Backed by an atomic: a read
    from another domain after a mutation's return is never stale. *)

val insert : t -> U.t -> int
(** Add a document; returns its corpus-wide id (ids are never reused).
    May auto-{!seal} per [memtable_max_docs]. The document is appended
    to the write-ahead log before this returns (fsynced per the
    store's {!wal_sync} policy), so an acknowledged insert survives a
    crash: {!open_dir} replays it back into the memtable. Raises
    [Invalid_argument] on an empty document or a read-only store. *)

val delete : t -> int -> bool
(** Remove a document by id: dropped from the memtable if unsealed,
    else tombstoned in its segment's bitmap and the manifest committed
    (next generation). Returns [false] if the id is unknown or already
    dead. *)

val seal : t -> bool
(** Flush the memtable into a new immutable segment and commit the
    manifest. Returns [false] (and writes nothing) when the memtable
    is empty. *)

val needs_compaction : t -> bool
(** Size-tiered policy: [compact_min_segments] live segments within a
    2× size band of each other, or ≥ 2 segments with an overall
    tombstone ratio above 30%. *)

val compact : ?force:bool -> t -> bool
(** Merge the smallest size tier (every live segment when [force])
    into one segment, retiring tombstoned documents, then commit the
    manifest and unlink the inputs. Deletes committed while the merge
    runs are re-applied to the output before the swap, so they are
    never resurrected. Returns [false] when there is nothing to do
    (fewer than two candidate segments). Safe to run concurrently with
    inserts, deletes and queries; concurrent {!compact} calls
    serialize to one merge at a time. *)

val reload : t -> bool
(** Re-read the manifest and swap in its segment set if the on-disk
    generation moved {e forward} (an external process sealed or
    compacted) — the daemon's SIGHUP hook, and the recovery step
    after {!Conflict}. The local memtable survives. Returns [true]
    if a new generation was picked up; an on-disk generation {e
    behind} the in-memory one (a stale manifest restored behind the
    store's back) is refused with a warning on stderr, never
    adopted. *)

val query : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Live document ids whose relevance for the pattern strictly exceeds
    [tau] — scatter-gathered across memtable and segments, most
    relevant first, ids ascending among equals. *)

val query_top_k :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int -> (int * Logp.t) list
(** The [k] most relevant live documents above [tau] (same order). *)

val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int

type stats = {
  st_generation : int;
  st_segments : int;
  st_memtable_docs : int;
  st_memtable_bytes : int;  (** Estimated heap bytes of unsealed docs. *)
  st_live_docs : int;  (** Sealed documents not tombstoned. *)
  st_tombstones : int;  (** Sealed documents awaiting compaction. *)
  st_segment_bytes : int;  (** Total bytes of live segment files. *)
  st_next_doc_id : int;
  st_degraded_segments : int;
      (** Segments the scrubber quarantined (manifest-recorded); their
          documents are unreachable until restored by an operator.
          Queries keep answering from the survivors — degraded, not
          down. Reset to 0 by the next successful {!compact}. *)
  st_wal_records : int;  (** Records in the active write-ahead log. *)
  st_wal_bytes : int;  (** Bytes of the active write-ahead log. *)
}

val stats : t -> stats

val tombstone_ratio : stats -> float
(** [st_tombstones / (st_live_docs + st_tombstones)] ([0.] when the
    corpus has no sealed documents). *)

val wal_policy : t -> wal_sync

val sync_wal : t -> unit
(** Fsync the write-ahead log now if it has unflushed records and the
    policy is not [Wal_never] — the idle-flusher hook for
    [Wal_interval] stores (the serve daemon calls it from its
    background loop so an acknowledged insert is not left unfsynced
    forever just because traffic stopped). No-op on read-only
    stores. *)

(** {2 Integrity scrubbing}

    Long-lived on-disk segments rot: a flipped bit in a months-old
    compressed segment would otherwise surface as silently wrong query
    answers (array sections are only checksummed at open). {!scrub}
    re-walks every live segment's section checksums; a segment that
    fails is {e quarantined} — moved into the [quarantine/]
    subdirectory and evicted through a normal manifest commit, so
    queries degrade gracefully (the survivors keep answering,
    {!stats}.[st_degraded_segments] counts the loss) instead of the
    scatter-gather crashing or serving garbage. A subsequent
    {!compact} rewrites the survivors and clears the degraded marker —
    the corpus is fully verified again. Failpoint: ["scrub.read"]. *)

type scrub_report = {
  sc_scanned : int;  (** Segments whose checksums were re-walked. *)
  sc_bytes : int;  (** Bytes covered by the walk. *)
  sc_corrupt : (string * string) list;
      (** (segment file, damaged section) per detected corruption. *)
  sc_quarantined : int;
      (** How many of those were moved to [quarantine/] and evicted
          via a manifest commit (0 on a read-only store — it only
          reports). *)
  sc_io_errors : int;  (** Segments unreadable at the OS level. *)
}

val scrub : ?budget_mb_s:float -> t -> scrub_report
(** Verify every live segment, quarantining failures (writable stores
    only). [budget_mb_s] (default 0 = unthrottled) caps the scan's IO
    rate by sleeping between segments. Safe concurrently with queries
    and mutations: in-flight snapshots keep their mmap of a renamed
    segment. Raises {!Conflict} like any committing mutation if an
    external writer raced the quarantine commit. *)

val quarantine_dir_name : string
(** ["quarantine"] — subdirectory corrupt segments are moved into. *)

val manifest_name : string
(** ["MANIFEST"] — the manifest's file name within a corpus dir. *)

val lock_name : string
(** ["LOCK"] — the sidecar file manifest commits take an exclusive
    [lockf] lock on (created on first commit; its contents are
    meaningless). *)

(** The write-ahead-log record codec, exposed for tests: a tag byte,
    an 8-byte little-endian id (a seal's: the generation it commits)
    and, for an insert, the document's {!Pti_ustring.Ustring.encode}. *)

type wal_op =
  | W_insert of int * Pti_ustring.Ustring.t
  | W_delete of int
  | W_seal of int

val wal_encode : wal_op -> string

val wal_decode : string -> wal_op
(** Raises [Pti_storage.Corrupt] ([section = "wal"]) on a payload
    {!wal_encode} cannot produce (a marshalled one as retired). *)
