(** Link stabbing structure shared by the approximate indexes (§7).

    A {e link} asserts: "for pattern lengths [m] in
    [(t_depth, o_depth]], the pattern occurring at the suffixes of the
    (suffix-array) interval [\[lo, hi\]] matches at original position
    [posid] with probability at most [value] (and at least
    [value − ε])". A query with locus interval [\[l, r\]] and length [m]
    retrieves every link with [lo ∈ \[l, r\]], [hi ≤ r],
    [t_depth < m ≤ o_depth] and [value] above the threshold.

    Implementation: a segment tree over the depth axis — a link is
    stored at the O(log D) canonical nodes of its depth interval; each
    node keeps its links sorted by [lo] with a range-maximum structure
    over [value] for output-sensitive max-reporting. *)

type link = {
  lo : int; (** leftmost suffix-array position of the origin *)
  hi : int; (** rightmost; [lo = hi] for leaf origins *)
  t_depth : int; (** target depth (exclusive) *)
  o_depth : int; (** origin depth (inclusive) *)
  posid : int; (** original string position reported *)
  value : float; (** probability (not log) at depth [t_depth + 1] *)
}

val epsilon_partition :
  epsilon:float ->
  floor:float ->
  prob:(int -> float) ->
  lo_depth:int ->
  hi_depth:int ->
  (int -> int -> float -> unit) ->
  unit
(** [epsilon_partition ~epsilon ~floor ~prob ~lo_depth ~hi_depth emit]
    greedily cuts the non-increasing probability profile
    [prob (lo_depth+1) .. prob hi_depth] into segments whose probability
    drop is at most [epsilon], calling [emit t_depth o_depth value] for
    each (the §7 link refinement). Segments whose upper [value] cannot
    exceed [floor] are pruned — pass [tau_min − epsilon] to drop links
    no legal query can report. *)

type t

val build : link list -> t
val n_links : t -> int
val depth_size : t -> int

val stab :
  t -> l:int -> r:int -> m:int -> tau:float -> (int * Pti_prob.Logp.t) list
(** Stabbed links with [value > tau], deduplicated by [posid] keeping
    the maximum value, most probable first. *)

val size_words : t -> int
