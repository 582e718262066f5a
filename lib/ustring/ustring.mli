(** Character-level uncertain strings (§3.1).

    An uncertain string is a sequence of positions; each position is a
    non-empty set of (symbol, probability) choices whose probabilities
    sum to at most 1 (exactly 1 for a distribution that is fully
    specified — see {!validate}). A deterministic string is the special
    case of one choice of probability 1 per position; a *special
    uncertain string* (Definition 1) has exactly one choice per position
    with probability in (0, 1]. *)

type choice = { sym : Sym.t; prob : float }

type t

val make : ?correlations:Correlation.rule list -> choice array array -> t
(** Validates: every position non-empty, probabilities in (0, 1], sums
    ≤ 1 + ε, symbols distinct within a position and never the reserved
    separator; correlation rules must reference existing positions and
    symbols and be consistent with the stored marginals (the stored
    probability of the dependent symbol must equal the rule's mixture
    within 1e-6). Raises [Invalid_argument] otherwise. *)

val length : t -> int
(** Number of positions (not characters). *)

val choices : t -> int -> choice array
val correlations : t -> Correlation.t

val prob : t -> pos:int -> sym:Sym.t -> float
(** Marginal probability of [sym] at [pos]; 0 if the symbol is not a
    choice there. *)

val logp : t -> pos:int -> sym:Sym.t -> Pti_prob.Logp.t

val n_choices : t -> int
(** Total number of (position, symbol) choices. *)

val max_choices : t -> int
(** Maximum choices at any single position. *)

val is_special : t -> bool
(** One choice per position (Definition 1). *)

val is_deterministic : t -> bool

val validate : ?eps:float -> t -> (unit, string) result
(** Checks every position's probabilities sum to 1 within [eps]
    (default 1e-6). [make] does not require this, so partially
    specified distributions can be represented; the paper's model
    assumes fully specified ones. *)

val of_det : Sym.t array -> t
val of_string : string -> t
(** Deterministic uncertain string from plain text. *)

val parse : string -> t
(** Parses the compact text format: positions separated by whitespace,
    choices within a position separated by [','], each choice
    [CHAR:PROB] or a bare [CHAR] (probability 1). Example:
    ["A:.3,B:.4,D:.3 A:.6,C:.4 D A:.5,C:.5 A"] is the string of
    Figure 1(a). Raises [Invalid_argument] on malformed input. *)

val to_text : t -> string
(** Inverse of {!parse} (one line). *)

val pp : Format.formatter -> t -> unit

val sample : Random.State.t -> t -> Sym.t array
(** Draws one possible world (position-independent sampling; correlation
    rules are honoured by drawing sources first). Positions whose
    probabilities sum to less than 1 renormalise. *)

val concat : sep:Sym.t option -> t list -> t * int array
(** [concat ~sep ds] concatenates uncertain strings, inserting a
    deterministic separator symbol between them when [sep] is given.
    Also returns the start offset of each input. Correlation rules are
    re-based onto the concatenated coordinates. *)

(** {2 Binary codec}

    The one persisted form of an uncertain string (WAL inserts, listing
    documents, a correlated transform's source): varint counts,
    positions and symbols, 8-byte IEEE probabilities, so
    [decode (encode u) = u] exactly. *)

val encode : t -> string

val decode : string -> t
(** Inverse of {!encode}; validates as {!make} does, but accepts the
    {!Sym.separator} positions {!concat} inserts. Raises
    [Invalid_argument] on a malformed payload or content {!make} would
    refuse, allocating no more than the payload's size bounds. *)
