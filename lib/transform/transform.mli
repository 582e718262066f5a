(** General → special uncertain string transformation (§5.1).

    Given a probability threshold [tau_min] fixed at construction time,
    the transformation enumerates, for every starting position of the
    uncertain string, its *maximal factors*: the deterministic strings
    of maximal length whose occurrence probability at that position is
    at least [tau_min] (Definition 2). Concatenating all maximal
    factors, separated by {!Pti_ustring.Sym.separator}, yields a text
    [t] with two side arrays:

    - [pos]: text position → position in the original uncertain string
      (-1 at separators);
    - a per-position marginal log-probability, exposed as a
      {!Pti_prob.Parray} for O(1) window products (the paper's array
      [C]).

    Substring-conservation property (Lemma 2): every deterministic
    string [w] with occurrence probability ≥ [tau_min] at position [i]
    of [S] occurs in [t] at some text position [a] with
    [pos.(a) = i], matching marginal window product, and no separator
    inside the window. The test suite checks this property directly.

    Deduplication in the spirit of Amir et al.'s extended maximal
    factors: a maximal factor that is an aligned substring of an
    already-emitted factor is skipped (its occurrences are found inside
    the earlier factor with identical positions and probabilities). On a
    deterministic string the output therefore has length n + 1 instead
    of Θ(n²).

    Under correlation rules, enumeration prunes with a sound upper
    bound (max of marginal and both conditionals per character), so no
    string whose *corrected* probability reaches [tau_min] is lost. *)

type t

val build : ?max_text_len:int -> tau_min:float -> Pti_ustring.Ustring.t -> t
(** O(output) construction. [tau_min] must be in (0, 1].
    [max_text_len] (default unlimited) aborts with [Failure] if the
    transformed text would exceed it — a guard against tiny [tau_min]
    on large inputs (output size is Θ((1/τ_min)² n) in the worst
    case). *)

val identity : Pti_ustring.Ustring.t -> t
(** Identity transform for *special* uncertain strings (§4): the text is
    the string's single choice per position, no factor enumeration and
    no separators, and [tau_min = 0] (the §4 index supports arbitrary
    query thresholds). Raises [Invalid_argument] unless
    [Ustring.is_special] holds. *)

val tau_min : t -> float

val text : t -> Pti_ustring.Sym.t array
(** The transformed text, ending with a separator, as a fresh heap
    copy. Prefer {!text_storage} on hot paths. *)

val text_storage : t -> Pti_storage.ints
(** The transformed text as a storage view — heap-backed on a
    just-built transform, a mapped file section on an opened one. Do not
    mutate. *)

val text_length : t -> int

val pos : t -> int array
(** Position-transformation array; [-1] at separators. Fresh heap
    copy; prefer {!pos_storage} on hot paths. *)

val pos_storage : t -> Pti_storage.ints
(** Storage view of the position-transformation array. Do not mutate. *)

val original_pos : t -> int -> int

val parray : t -> Pti_prob.Parray.t
(** Marginal log probabilities per text position (separator positions
    count as probability 1, and windows matching a pattern can never
    span a separator since patterns cannot contain it). *)

val window_logp : t -> pos:int -> len:int -> Pti_prob.Logp.t
(** Marginal window product in the text. O(1). *)

val has_correlations : t -> bool
(** Whether the source string carries any correlation rule. Only then
    does the transform keep the source (and a saved one its
    [tr.source] section), so the hot window-probability path skips the
    correlation machinery entirely on correlation-free inputs. *)

val window_logp_corrected : t -> pos:int -> len:int -> Pti_prob.Logp.t
(** Window product with the correlation correction of §4.1 applied
    (conditional probability when the source position falls inside the
    window, marginal mixture otherwise). Equals
    [Oracle.occurrence_logp] of the window's content at its original
    position. O(len of window's correlation rules + 1). *)

val factor_suffix_lengths : t -> int array
(** [flen.(a)] = number of text positions from [a] to the end of its
    factor (0 at separators); the valid window lengths at [a] are
    exactly [1 .. flen.(a)]. Computed on demand in O(N). *)

val n_factors : t -> int

val stats : t -> string
(** One-line human-readable summary. *)

val size_words : t -> int
(** Approximate space in 8-byte machine words (historical accounting,
    assumes unpacked arrays); prefer {!size_bytes}. *)

val size_bytes : t -> int
(** Exact bytes of the transformed text, position map and probability
    arrays in their current representation (packed views count at
    their packed width). *)

(** {2 Persistence}

    A transform serializes into typed sections of a {!Pti_storage}
    container: [tr.meta] (ints: factor count, skipped-factor count,
    source length), [tr.tau_min] (one float), [tr.text], [tr.pos],
    [tr.cum] and [tr.zeros]. Only a transform whose source carries
    correlation rules adds [tr.source], the source in
    {!Pti_ustring.Ustring.encode} form, decoded eagerly at open because
    {!window_logp_corrected} reads it. Array sections are read back as
    zero-copy views; a [tr.logs] section in an older container is
    ignored (per-position values are differences of [tr.cum]). *)

val save_parts : Pti_storage.Writer.t -> t -> unit

val open_parts : Pti_storage.Reader.t -> t
(** Raises {!Pti_storage.Corrupt} if a section is missing, damaged or
    fails to decode. A container whose [tr.meta] is a bytes section
    (the marshalled record of earlier layouts) is refused as a retired
    format, with a hint to rebuild, before anything is decoded. *)
