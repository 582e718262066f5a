(** Approximate substring searching (§7).

    Answers substring queries for arbitrary τ ≥ τ_min with an additive
    error ε fixed at construction: every position whose true matching
    probability strictly exceeds τ is reported, and every reported
    position has true probability > τ − ε. The probability attached to
    each answer is the stored link value — an upper bound on (and within
    ε of) the true probability.

    Construction follows the link framework of Hon–Shah–Vitter as used
    by the paper: along each suffix of the transformed text, matching
    probability is non-increasing in depth; the root-to-leaf path is cut
    into links whose probability drop is at most ε, so O(1/ε) links per
    suffix suffice (links whose value cannot reach τ_min are pruned).
    A query with pattern length m needs the links stabbed at depth m by
    the pattern's suffix range; we store links in a segment tree over
    the depth axis (each node holding its links sorted by suffix-array
    position with a range-maximum structure over probabilities), giving
    O((log + occ)·log) reporting for any pattern length — the
    theoretically-near-optimal behaviour §7 is after, without the
    short/long pattern split of the exact index. *)

module Logp = Pti_prob.Logp

type t

val build :
  ?max_text_len:int ->
  epsilon:float ->
  tau_min:float ->
  Pti_ustring.Ustring.t ->
  t
(** [epsilon] must be in (0, 1). *)

val of_transform :
  epsilon:float ->
  Pti_transform.Transform.t ->
  t
(** Builds over an existing transformation (shares it with an exact
    index). *)

val query :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Distinct original positions, highest stored link value first. *)

val query_string : t -> pattern:string -> tau:float -> (int * Logp.t) list
val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int
val epsilon : t -> float
val tau_min : t -> float
val n_links : t -> int
val size_words : t -> int
val stats : t -> string
