(** Shared query engine over a transformed uncertain string (§4–§6).

    The engine owns the suffix array, the per-length
    probability RMQ structures [RMQ_1 .. RMQ_(log N)] with
    duplicate-elimination (Algorithms 1 and 3), and the blocking scheme
    for long patterns. It is parameterised by:

    - a {e key} function mapping original string positions to output
      identities — the identity for substring search (report positions),
      the document id for string listing (report documents);
    - an {e aggregation metric} for slots sharing a key inside one
      depth-[i] lcp-group: [Max] keeps the most probable slot (substring
      search, listing with [Rel_max]); [Or_metric] stores the
      OR-combination Σp − Πp over the key's distinct positions (listing
      with [Rel_or]; this retains the level value arrays, trading the
      paper's discard-the-array trick for O(1) verification of the
      complex metric).

    Queries report, for a pattern [p] and threshold [τ ≥ τ_min], every
    distinct key whose metric value strictly exceeds [τ], in
    non-increasing metric order, in O(m log N + occ) for short patterns
    (m ≤ log N) and O(m·occ_blocks + block) via the blocking ladder for
    long ones.

    Threshold comparisons are floating point: a match whose probability
    equals [τ] to within ~1e-12 may fall on either side of the strict
    comparison, because window probabilities are evaluated as prefix-sum
    differences of logarithms. *)

module Logp = Pti_prob.Logp

type ladder =
  | Ladder_geometric
      (** Block sizes log N, 2 log N, 4 log N, … — O(N) words total,
          construction O(N log N); queries use the largest size ≤ m
          (sound upper-bound filtering; see DESIGN.md §2.5). *)
  | Ladder_full
      (** The paper's sizes log N .. N. Θ(N²) construction work — only
          for small inputs / the ablation benchmark. *)
  | Ladder_none
      (** No blocking structure; long patterns scan the suffix range. *)

type metric = Max | Or_metric

type config = { ladder : ladder; metric : metric }

val default_config : config
(** Geometric ladder, [Max] metric. *)

(** The persisted layout. Both backends store the same signature block
    RMQ ({!Pti_rmq.Rmq_block}, ≈4.1 bits per element) for every level
    and ladder size; a backend only chooses the pattern → suffix-range
    step. *)
type backend =
  | Packed
      (** Suffix-array binary search over the stored text, O(m log N),
          inside the pattern's q-gram bucket
          ({!Pti_suffix.Sa_search.Qgram}, derived from the text at build
          and at open, never stored). The smaller container. *)
  | Succinct
      (** FM-index backward search, O(m log σ) without text access —
          the compressed-suffix-array role of §8.7. Adds the wavelet
          tree of the BWT to the container. *)

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

type t

val build :
  ?config:config ->
  ?backend:backend ->
  ?domains:int ->
  key_of_pos:(int -> int) ->
  Pti_transform.Transform.t ->
  t
(** [backend] (default [Packed]) selects the range search and with it
    the persisted layout. The backend and the config are recorded in
    the container's [meta] section and restored by {!load}.

    [key_of_pos] maps an original uncertain-string position to the
    output key; it must be total on positions occurring in the
    transform. It may be called concurrently from several domains and
    must be pure (every supplied key function is a plain array/identity
    lookup).

    [?domains] sets the construction parallelism (default:
    [Pti_parallel.num_domains ()], i.e. [PTI_DOMAINS] or the hardware
    count). The per-level sweeps (duplicate elimination and the level's
    RMQ), the ladder block maxima and the ladder RMQs run one level per
    domain; the
    result is byte-identical for every domain count because each level
    owns its outputs outright. [domains:1] runs the exact sequential
    code path. *)

val transform : t -> Pti_transform.Transform.t
val config : t -> config

val backend : t -> backend
(** The layout this engine was built with (or that its container
    recorded). *)

val max_short : t -> int
(** ⌈log₂ N⌉: the short/long pattern boundary. *)

val suffix_range : t -> pattern:Pti_ustring.Sym.t array -> (int * int) option

exception Over_budget
(** Raised by {!query}, {!stream} and {!query_top_k} when the pattern's
    suffix range holds more entries than their [max_range]. *)

val query :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Distinct keys with metric value strictly above [tau], most probable
    first. Raises [Invalid_argument] if [tau < tau_min] of the
    transform, or if the pattern is empty or contains the separator.

    [max_range] bounds the query's work: the suffix range's size caps
    both the extractions of a short pattern and the slots a long one
    scans. A range of more than [max_range] entries raises
    {!Over_budget} right after the range search, before any RMQ
    extraction or ladder scan. Without it the query is unbounded. *)

val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int

val stream :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) Seq.t
(** Like {!query}, but lazily: answers are produced on demand in
    non-increasing metric order, so consuming a prefix of the sequence
    costs time proportional to that prefix (for short patterns; long
    patterns materialise the answer first). The sequence is ephemeral —
    it captures mutable traversal state and must be consumed at most
    once. [max_range] as in {!query}; {!Over_budget} is raised when the
    sequence is made, not when it is consumed. *)

val query_top_k :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int ->
  (int * Logp.t) list
(** The [k] most probable answers above [tau] (fewer if fewer exist).
    For short patterns this stops after [k] range-maximum extractions —
    the top-k flavour of the Hon–Shah–Vitter framework the paper builds
    on (§7). [max_range] as in {!query}. *)

val query_batch :
  ?domains:int ->
  t ->
  patterns:(Pti_ustring.Sym.t array * float) array ->
  (int * Logp.t) list array
(** [query_batch t ~patterns] answers [patterns.(i) = (pattern, tau)]
    into slot [i] of the result, sharding the batch across the domain
    pool ([?domains] as in {!build}). Safe without any locking because
    queries only {e read} the engine: every structure ([sa], the RMQs, bitmaps, the transform) is immutable after construction, and
    per-query traversal state is allocated per query. Results are
    identical to mapping {!query} over the batch, for every domain
    count. Raises (the first) [Invalid_argument] raised by an invalid
    pattern/τ in the batch. *)

val size_words : t -> int
(** Historical 8-bytes-per-element space estimate; prefer
    {!size_bytes}. *)

val size_bytes : t -> int
(** Byte-accurate space of the engine's structures in their current
    representation — packed (mapped) views count at their packed
    width, heap-built views at 8 bytes per element. *)

val stats : t -> string

val describe_range_search : Pti_storage.Reader.t -> string
(** The range search an engine opened from this container runs, without
    opening the rest of it: ["fm (stored)"] for a succinct container;
    for a packed one, the q-gram bucket table {!load} derives from the
    stored text (["buckets(q=3 cells=15625 nonempty=9686) (derived at
    open, not stored)"]). Raises [Pti_storage.Corrupt] on a malformed
    "meta" or transform section. *)

(** {2 Persistence}

    An engine saves into a {!Pti_storage} container ("PTI-ENGINE-4"):
    every array — transform, suffix array, duplicate-elimination
    bitmaps, OR-metric value arrays, ladder maxima, and the RMQ index
    tables — becomes a named, checksummed, 8-byte-aligned section
    packed at the minimal byte width covering its values (DESIGN.md
    §8–§9). {!load} memory-maps the file and reads the sections in
    place: no deserialization, no RMQ rebuild, open time independent
    of N up to the optional checksum pass. Mapped engines are immutable
    and page-cache-shared, so concurrent domains ({!query_batch}) and
    separate OS processes serving the same file share one physical copy.
    Every section is typed: scalars are small [ints]/[floats] sections,
    and the only [bytes] sections are bitmaps and, for a source with
    correlation rules, its {!Pti_ustring.Ustring.encode} form
    ([tr.source], decoded at open because corrected window
    probabilities read it). The LCP array and the per-position logs
    are construction artefacts and are not saved. *)

val save :
  ?extra:(Pti_storage.Writer.t -> unit) ->
  t ->
  string ->
  unit
(** Write the engine to [path]. [extra] may append wrapper-owned
    sections (e.g. the listing index' document blobs) to the same
    container before it is laid out and checksummed. Identical engines
    produce byte-identical files. *)

val load : ?verify:bool -> key_of_pos:(int -> int) -> string -> t
(** Memory-map an index file ([verify] as in
    {!Pti_storage.Reader.open_file}); nothing is rebuilt. [key_of_pos]
    must be the same mapping used at build time (the identity for
    substring indexes; wrappers persist what they need to reconstruct
    theirs). Raises {!Pti_storage.Corrupt} on a damaged container or a
    retired format. *)

val open_reader : key_of_pos:(int -> int) -> Pti_storage.Reader.t -> t
(** {!load} for an already-open container — wrappers use this to read
    their own sections from the same reader. Containers of a retired
    engine layout (a suffix-tree "st" section, a marshalled "fm"
    FM-index, a two-element "meta", a marshalled "cfg" config, a
    marshalled transform record in a bytes "tr.meta", an RMQ other
    than the signature block RMQ) raise {!Pti_storage.Corrupt}
    saying to rebuild, the section-level ones before any section is
    decoded. *)
