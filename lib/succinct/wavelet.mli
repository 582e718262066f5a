(** Pointerless (levelwise) wavelet tree over an integer sequence.

    Supports O(log σ) [access], [rank] and [select], the machinery
    behind FM-index backward search. Symbols must lie in [0, σ). Space:
    ~2·n·⌈log₂ σ⌉ bits plus per-level counters.

    The per-level bit vectors are {!Pti_storage}-backed ({!Bitvec}), so
    a tree persists into container sections and reopens as zero-copy
    views of the mapped file. *)

type t

val build : sigma:int -> int array -> t
(** Raises [Invalid_argument] on a symbol outside [0, sigma). *)

val length : t -> int
val sigma : t -> int

val access : t -> int -> int
(** The symbol at a position. O(log σ). *)

val rank : t -> sym:int -> int -> int
(** [rank t ~sym i] = occurrences of [sym] in positions [0 .. i-1].
    O(log σ). *)

val rank2 : t -> sym:int -> int -> int -> (int * int)
(** [rank2 t ~sym i j] = [(rank t ~sym i, rank t ~sym j)], descending
    the shared symbol path once so the per-level node boundaries are
    ranked a single time. The FM backward-search hot path. *)

val select : t -> sym:int -> int -> int
(** [select t ~sym k] = position of the k-th occurrence (1-indexed).
    Raises [Invalid_argument] if there are fewer than [k]. O(log² σ·n)
    flavour (per-level select). *)

val count : t -> sym:int -> int
val size_words : t -> int

val size_bytes : t -> int
(** Bytes of the level bit vectors in their current representation. *)

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit
(** Persist as [prefix ^ ".meta"] plus one bit vector per level under
    [prefix ^ ".l<k>"]. *)

val open_parts : Pti_storage.Reader.t -> prefix:string -> t
(** Zero-copy reopen of {!save_parts} output. Raises
    {!Pti_storage.Corrupt} on missing or inconsistent sections. *)
