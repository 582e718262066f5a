(** Log-domain probabilities.

    The paper stores the successive multiplicative probability array [C]
    as raw products. Products of hundreds of probabilities underflow IEEE
    doubles, so every probability in this codebase is carried as its
    natural logarithm. A [Logp.t] is the log of a probability in [0, 1]:
    [zero] represents probability 0 (log = -infinity) and [one]
    probability 1 (log = 0). Values are totally ordered by the underlying
    float order, which coincides with the order on probabilities. *)

type t = private float

val zero : t
(** Probability 0, i.e. negative infinity in log space. *)

val one : t
(** Probability 1, i.e. 0 in log space. *)

val of_prob : float -> t
(** [of_prob p] is the log of [p]. Raises [Invalid_argument] unless
    [0 <= p <= 1 + eps] (a tiny slack absorbs parser rounding; values in
    [(1, 1+eps]] clamp to {!one}). *)

val of_prob_unchecked : float -> t
(** [of_prob_unchecked p] is [log p] with no range check. For hot paths
    where the caller guarantees [0 <= p <= 1]. *)

val to_prob : t -> float
(** Back to a plain probability in [0, 1]. *)

val of_log : float -> t
(** [of_log x] asserts [x <= 0] (up to rounding slack) and injects it. *)

val to_log : t -> float
(** The raw log value; [-infinity] for {!zero}. *)

val mul : t -> t -> t
(** Product of probabilities = sum of logs. *)

val div : t -> t -> t
(** Quotient of probabilities = difference of logs. [div x zero] raises
    [Invalid_argument]; [div zero x] is {!zero}. The result may exceed
    probability 1 transiently (ratios of prefix products are clamped by
    callers when needed). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val max : t -> t -> t
val min : t -> t -> t

val is_zero : t -> bool

val approx_equal : ?eps:float -> t -> t -> bool
(** Equality of the underlying probabilities up to additive [eps]
    (default [1e-9]) in probability space. *)

val sub_prob : t -> float -> t
(** [sub_prob t eps] is the probability [max 0 (to_prob t - eps)] as a
    log-prob. Used for the approximate index' additive-error threshold. *)

val pp : Format.formatter -> t -> unit
(** Prints the probability (not the log) with 6 significant digits. *)

val to_string : t -> string
