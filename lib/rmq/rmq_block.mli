(** Signature block RMQ: ≈4.1 bits per element, the one RMQ the engine
    persists for every level and ladder size.

    Blocks of ≤ 31 elements store two words: the push/pop signature of
    their max-Cartesian tree, and a mask word marking which elements
    end on the construction stack and which are prefix maxima. A range
    spanning blocks reads its end blocks' answers off the masks (one
    count-trailing-zeros each); a range inside one block does too when
    its suffix or prefix maximum falls inside it, and otherwise scans
    the signature a byte at a time through small tables. Neither
    touches the value oracle. Per-block maxima are indexed recursively
    (sparse table once small). A query costs O(1) mask reads, at most
    one signature scan, one top query and O(1) oracle probes to merge
    candidates. *)

type t

val max_block : int
(** Largest supported block size (31: signatures must fit one word). *)

val sparse_cutoff : int
(** Up to this many blocks the per-block maxima are indexed by a sparse
    table; beyond it by a recursive instance. *)

val build : ?block:int -> float array -> t
(** [block] defaults to {!max_block}; raises [Invalid_argument] outside
    [2, max_block]. The array is copied and retained as the oracle. *)

val build_oracle : block:int -> value:(int -> float) -> len:int -> t
(** [value] is called O(len) times at construction and O(1) per query. *)

val with_oracle : t -> value:(int -> float) -> t
(** The same index arrays answering through another oracle, which must
    agree with the one the structure was built over. Lets a caller
    build from a materialised array and then drop it for a cheaper-to-
    keep oracle. *)

val length : t -> int

val query : t -> l:int -> r:int -> int
(** Leftmost index of the maximum in the inclusive range [\[l, r\]].
    Raises [Invalid_argument] on an empty or out-of-bounds range. *)

val block_argmax : t -> int -> int
(** Global position of block [b]'s leftmost maximum, read off its mask
    word. *)

val signature_argmax : t -> int -> l:int -> r:int -> int
(** [signature_argmax t b ~l ~r]: the in-block offset of the leftmost
    maximum of block [b]'s offsets [\[l, r\]], decoded from the
    signature alone — what {!query} falls back to for in-block ranges
    the mask word does not answer. *)

val size_words : t -> int
val size_bytes : t -> int

(** {2 Persistence}

    The index arrays serialize into {!Pti_storage} sections under a
    caller-chosen [prefix] and are read back as zero-copy views of the
    mapped file. The value oracle is a closure: the caller re-supplies
    it at open time. *)

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit
(** Sections under [prefix]: [".kind"] = [\[3; len\]], [".meta"] =
    [\[block; top tag\]], [".sig"] per-block signatures, [".msk"]
    per-block mask words, recursion under [".top"]. *)

val open_parts :
  Pti_storage.Reader.t -> prefix:string -> value:(int -> float) -> t
(** Zero-copy reopen of {!save_parts} output. Raises
    {!Pti_storage.Corrupt} on missing/damaged sections; an RMQ of
    another kind (kind tags 0–2: naive scan, sparse table, Fischer–Heun)
    is refused as a retired format with a hint to rebuild. *)
