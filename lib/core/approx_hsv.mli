(** The approximate index exactly as §7 describes it: the
    Hon–Shah–Vitter link framework over a real suffix tree.

    Leaves of the suffix tree of the transformed text are marked with
    their original position id; an internal node is marked with id [d]
    when it is the LCA of two leaves marked [d] (computed, per id, from
    consecutive marked leaves in suffix-array order). Every marked node
    links to its lowest properly-marked ancestor, and links are ε-refined
    along the path so consecutive probability drops stay within ε. The
    marking collapses the per-suffix link chains of {!Approx_index} onto
    shared tree paths, trading the suffix-tree + LCA construction cost
    for fewer links.

    Same query guarantee as {!Approx_index}: every match with
    probability > τ is reported; everything reported has probability
    > τ − ε; both indexes agree on which positions they report (the
    test suite checks this). *)

module Logp = Pti_prob.Logp

type t

val build :
  ?max_text_len:int ->
  epsilon:float ->
  tau_min:float ->
  Pti_ustring.Ustring.t ->
  t

val of_transform :
  epsilon:float ->
  Pti_transform.Transform.t ->
  t

val query :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list

val query_string : t -> pattern:string -> tau:float -> (int * Logp.t) list
val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int
val epsilon : t -> float
val n_links : t -> int
val n_marks : t -> int
(** Number of distinct (node, position-id) marks. *)

val size_words : t -> int
val stats : t -> string
