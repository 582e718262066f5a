(** Substring searching in special uncertain strings (§4).

    A special uncertain string has exactly one probabilistic character
    per position (Definition 1), so no transformation is needed: the
    index is built directly over the character sequence and supports
    {e arbitrary} query thresholds τ ∈ (0, 1]. Short patterns
    (m ≤ log n) are answered in O(m log n + occ log occ); long patterns
    through the blocking scheme in O(m·occ) flavour. *)

module Logp = Pti_prob.Logp

type t

val build : ?config:Engine.config -> ?domains:int -> Pti_ustring.Ustring.t -> t
(** Raises [Invalid_argument] if the string is not special or is
    empty. [?domains] sets construction parallelism (see
    {!Engine.build}). *)

val query :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Starting positions where the pattern matches with probability
    strictly above [tau], most probable first. *)

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
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int ->
  (int * Logp.t) list

val engine : t -> Engine.t
val size_words : t -> int

val size_bytes : t -> int
(** Byte-accurate space accounting; see {!Engine.size_bytes}. *)

val save : t -> string -> unit
(** Persist the index as a "PTI-ENGINE-4" container (see {!Engine.save}). *)

val load : ?verify:bool -> string -> t
(** Open a saved index; current-format files are memory-mapped. See
    {!Engine.load}. *)
