(** Uncertain string listing (§6, Problem 2).

    Indexes a collection of uncertain strings so that a query
    [(p, τ ≥ τ_min)] lists the distinct strings containing an
    occurrence of [p] whose relevance exceeds τ — in time proportional
    to the number of strings reported, not to the total number of
    occurrences (for the [Rel_max] metric).

    Relevance metrics:
    - [Rel_max]: maximum occurrence probability in the string;
    - [Rel_or]: Σp − Πp over the string's distinct occurrence
      probabilities (clamped to [0, 1]). Only occurrences whose
      probability reaches the construction threshold [τ_min] contribute:
      occurrences below [τ_min] are not represented in the transformed
      text, so no τ_min-parameterised index (including the paper's) can
      see them. The exact semantics is therefore "OR over occurrences
      with probability ≥ τ_min".

    The collection is concatenated with separators into one generalized
    string; each depth-i lcp-group stores one representative slot per
    document carrying the document's relevance value (the paper's
    per-partition storage). *)

module Logp = Pti_prob.Logp

type relevance = Rel_max | Rel_or

type t

val build :
  ?ladder:Engine.ladder ->
  ?relevance:relevance ->
  ?backend:Engine.backend ->
  ?domains:int ->
  ?max_text_len:int ->
  tau_min:float ->
  Pti_ustring.Ustring.t list ->
  t
(** Default relevance is [Rel_max]. [Rel_or] retains per-level value
    arrays (O(N log N) floats) — see DESIGN.md §2.6. Raises
    [Invalid_argument] on an empty collection or empty documents.
    [?backend] selects the persisted layout (see {!Engine.backend}).
    [?domains] sets construction parallelism (see {!Engine.build}). *)

val n_docs : t -> int
val doc : t -> int -> Pti_ustring.Ustring.t

val query :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Document ids whose relevance for the pattern strictly exceeds [tau],
    most relevant first; [max_range] bounds the work, as in
    {!Engine.query}. *)

val query_batch :
  ?domains:int ->
  t ->
  patterns:(Pti_ustring.Sym.t array * float) array ->
  (int * Logp.t) list array
(** Batched {!query} sharded across the domain pool; see
    {!Engine.query_batch}. *)

val query_string : t -> pattern:string -> tau:float -> (int * Logp.t) list
val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int

val stream :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) Seq.t
(** Lazy, most-relevant-first; ephemeral (see {!Engine.stream}). *)

val query_top_k :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int ->
  (int * Logp.t) list
(** The [k] most relevant documents above [tau]. *)

val relevance : t -> relevance

val relevance_tag : relevance -> int
(** The persisted code: 0 = [Rel_max], 1 = [Rel_or]. *)

val relevance_of_tag : int -> relevance option
val engine : t -> Engine.t
val size_words : t -> int

val size_bytes : t -> int
(** Byte-accurate space accounting; see {!Engine.size_bytes}. *)

val save :
  ?extra:(Pti_storage.Writer.t -> unit) ->
  t ->
  string ->
  unit
(** Persist the index (documents, relevance metric, position→document
    map and engine data) into one "PTI-ENGINE-4" container; see
    {!Engine.save}; documents are stored in
    {!Pti_ustring.Ustring.encode} form. [?extra] appends caller-owned
    sections after the listing's own (the segment store records its
    slot → document-id map this way). *)

val load : ?verify:bool -> string -> t
(** Open a saved index: the container is memory-mapped, and {!doc}
    decodes one document on demand (raising {!Pti_storage.Corrupt} if
    it does not decode). A bytes [listing.meta] (the marshalled pair of
    earlier layouts) is refused as a retired format. See {!Engine.load}. *)

val open_reader : Pti_storage.Reader.t -> t
(** {!load} for an already-open container. *)
