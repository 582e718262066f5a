(** Prefix-product arrays over log probabilities.

    This is the paper's successive multiplicative probability array [C]:
    [C[j] = pr(c_1) * ... * pr(c_j)], generalised to log space and made
    robust to zero probabilities. The probability of the window
    [\[i, i+len)] is recovered in O(1) as [C[i+len-1] / C[i-1]].

    Positions are 0-indexed throughout. *)

type t

val of_logps : Logp.t array -> t
(** [of_logps a] preprocesses the per-position log probabilities [a] in
    O(n). Zero probabilities are handled exactly (a window containing a
    zero has probability zero; other windows are unaffected). *)

val of_probs : float array -> t
(** Convenience: probabilities in [0, 1]; validated like
    {!Logp.of_prob}. *)

val length : t -> int

val window : t -> pos:int -> len:int -> Logp.t
(** [window t ~pos ~len] is the product of positions
    [pos, pos+1, ..., pos+len-1]. Raises [Invalid_argument] if the window
    is not contained in [\[0, length t)] or [len < 1]. *)

val prefix : t -> int -> Logp.t
(** [prefix t j] is the product of positions [0..j-1]; [prefix t 0] is
    {!Logp.one}. *)

val size_bytes : t -> int
(** Exact bytes of the two backing arrays in their current
    representation (packed views count at their packed width). *)

(** {2 Storage backing}

    The internal arrays are {!Pti_storage} views, so a prefix-product
    array can be served zero-copy from a mapped index file; the
    accessors below exist for the persistence layer only. *)

val raw : t -> Pti_storage.floats * Pti_storage.ints
(** [(cum, zeros)] — the cumulative log sums and the zero-probability
    prefix counts, both of length n+1. *)

val of_storage : cum:Pti_storage.floats -> zeros:Pti_storage.ints -> t
(** Rebuild from views previously obtained via {!raw} (typically mapped
    from a file). Raises [Invalid_argument] on inconsistent lengths. *)
