(** Substring searching in general uncertain strings (§5, Problem 1).

    Built for a construction-time threshold [tau_min]; answers queries
    for any τ ≥ [tau_min]. The general string is transformed into a
    special one (maximal factors, Lemma 2), indexed like §4, and
    duplicate occurrences introduced by the transformation are
    eliminated per level at construction and per query for long
    patterns. Reported positions are positions of the {e original}
    uncertain string. *)

module Logp = Pti_prob.Logp

type t

val build :
  ?config:Engine.config ->
  ?backend:Engine.backend ->
  ?domains:int ->
  ?max_text_len:int ->
  tau_min:float ->
  Pti_ustring.Ustring.t ->
  t
(** [?backend] selects the persisted layout (default [Packed]; see
    {!Engine.backend}). [?domains] sets construction parallelism (see
    {!Engine.build}); the built index is byte-identical for every domain
    count. *)

val query :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Distinct starting positions with matching probability strictly above
    [tau ≥ tau_min], most probable first. Raises [Invalid_argument] if
    [tau < tau_min]; [max_range] bounds the work, as in {!Engine.query}. *)

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
(** Lazy, most-probable-first; ephemeral (see {!Engine.stream}). *)

val query_top_k :
  ?max_range:int ->
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int ->
  (int * Logp.t) list
(** The [k] most probable occurrences above [tau]. *)

val tau_min : t -> float
val transform : t -> Pti_transform.Transform.t
val engine : t -> Engine.t
val size_words : t -> int

val size_bytes : t -> int
(** Byte-accurate space accounting; see {!Engine.size_bytes}. *)

val save : t -> string -> unit
(** Persist the index as a "PTI-ENGINE-4" container (see {!Engine.save}). *)

val load : ?verify:bool -> string -> t
(** Open a saved index: the container is memory-mapped with no rebuild
    work at all. See {!Engine.load}. *)

val open_reader : Pti_storage.Reader.t -> t
(** {!load} for an already-open container. *)
