(** LRU cache of open index engines, keyed by file path.

    Opening a PTI-ENGINE container is cheap (an mmap plus a checksum
    pass) but not free, and every open handle pins a mapping; the server
    keeps at most [capacity] files open and evicts the least recently
    used when a new path arrives. The same physical pages back every
    handle of a given file (the container is immutable and
    page-cache-shared), so re-opening after an eviction costs IO only if
    the pages were reclaimed.

    A loaded handle is classified by sniffing the container's section
    table: files with a ["listing.meta"] section open as listing
    indexes, everything else as substring (general) indexes. *)

type handle =
  | General of Pti_core.General_index.t
  | Listing of Pti_core.Listing_index.t

val load_handle : ?verify:bool -> string -> handle
(** Open one file, dispatching on its sections as described above.
    Raises whatever {!Pti_core.General_index.load} /
    {!Pti_core.Listing_index.load} raise on damaged files or files of a
    retired format ({!Pti_storage.Corrupt}). *)

type t

val create : ?verify:bool -> capacity:int -> ?shards:int -> unit -> t
(** [verify] is forwarded to the loaders (default [true]: checksum
    sections on open). [shards] (default 1) splits the cache into
    independently locked shards — paths hash to a fixed shard, so
    worker domains serving different files never contend on one mutex.
    [capacity] is a global bound distributed over the shards (each
    shard gets at least one slot, so the effective shard count is
    [min shards capacity]). Raises [Invalid_argument] if
    [capacity < 1] or [shards < 1]. *)

val get : t -> ?metrics:Metrics.t -> string -> handle
(** The handle for this path, loading and inserting it on a miss (and
    evicting the least recently used entry beyond the shard's capacity
    slice). Thread- and domain-safe; the load happens under the shard
    lock, so concurrent requests for one cold file load it once.
    Hits/misses are recorded in [metrics] when given.

    A load failure (corrupt or missing file) re-raises after making
    sure no entry remains cached under the path and counting an open
    failure — a bad file is retried on the next request, never pinned. *)

val find_open : t -> ?metrics:Metrics.t -> string -> handle option
(** The handle for this path if it is already open and its shard lock
    is free; [None] otherwise. Never blocks and never opens a file. A
    handle found counts as a hit; [None] counts nothing, so the {!get}
    that follows counts the lookup once. *)

val revalidate : t -> ?metrics:Metrics.t -> unit -> (string * exn) list
(** Reopen every cached path, across {e all} shards: entries whose file
    still opens are replaced with the freshly loaded handle (picking up
    an atomically rewritten file), entries whose file no longer opens
    are evicted and returned with the exception. Shards revalidate one
    at a time, so gets on other shards are never blocked behind the
    whole reload. Drives the server's SIGHUP hot reload. *)

val hits : t -> int
(** Summed over all shards (as are {!misses} and {!open_failures}). *)

val misses : t -> int

val open_failures : t -> int
(** Loads or revalidations that raised. *)

val n_shards : t -> int

val shard_stats : t -> (int * int * int * int) array
(** Per-shard [(hits, misses, open_failures, entries)], indexed by
    shard — the server surfaces these in its stats JSON so shard-level
    imbalance is observable. *)
