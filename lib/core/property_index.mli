(** Fixed-threshold property-matching baseline (Amir et al., §5.1).

    The paper contrasts its arbitrary-τ index with the prior approach:
    transform the uncertain string for one fixed threshold [τ_c] and
    index the result with a {e property suffix tree} — matches are the
    suffixes whose valid prefix (the "property") is long enough. This
    module implements that baseline: a per-suffix maximal-valid-length
    array π (π(j) = longest prefix of the j-th suffix whose probability
    strictly exceeds [τ_c]) with a range-maximum structure over it, so a
    query reports, output-sensitively, the suffixes in the pattern range
    with π ≥ m.

    Only queries at exactly [τ = τ_c] are supported — the limitation
    §5.1 motivates the main index with ("substring searching in this
    method works only on a fixed probability threshold"). In exchange,
    queries skip the probability machinery entirely (one integer
    comparison per report) and the index stores no per-length
    structures. *)

module Logp = Pti_prob.Logp

type t

val build :
  ?max_text_len:int ->
  tau_c:float ->
  Pti_ustring.Ustring.t ->
  t

val tau_c : t -> float

val query : t -> pattern:Pti_ustring.Sym.t array -> (int * Logp.t) list
(** Distinct original positions where the pattern matches with
    probability strictly above [tau_c], with their exact probabilities,
    in no particular order guarantee beyond distinctness. *)

val query_string : t -> pattern:string -> (int * Logp.t) list
val count : t -> pattern:Pti_ustring.Sym.t array -> int
val size_words : t -> int
