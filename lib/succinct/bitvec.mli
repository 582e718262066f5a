(** Static bit vector with O(1) rank and O(log n) select.

    Bits are packed into 63-bit words (OCaml ints) with one cumulative
    rank counter per word — n + n/63·63 ≈ 2n bits total. The substrate
    for {!Wavelet} and {!Fm_index}.

    Both arrays are {!Pti_storage} views, so a bit vector is either
    heap-backed (just built) or a zero-copy view of a mapped container
    ({!open_parts}) — one query path, nothing rebuilt at open. *)

type t

val create : int -> (int -> bool) -> t
(** [create n f] materialises bits [f 0 .. f (n-1)]. *)

val of_bools : bool array -> t
val length : t -> int
val get : t -> int -> bool

val rank1 : t -> int -> int
(** [rank1 t i] = number of set bits in positions [0 .. i-1];
    [0 <= i <= length]. O(1). *)

val rank0 : t -> int -> int
val count1 : t -> int

val select1 : t -> int -> int
(** [select1 t k] = position of the k-th set bit, 1-indexed
    ([rank1 t (select1 t k + 1) = k]). Raises [Invalid_argument] if
    fewer than [k] bits are set. O(log n). *)

val select0 : t -> int -> int
val size_words : t -> int

val size_bytes : t -> int
(** Bytes of the two backing arrays in their current representation. *)

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit
(** Persist as container sections [prefix ^ ".meta"/".words"/".cum"]. *)

val open_parts : Pti_storage.Reader.t -> prefix:string -> t
(** Zero-copy reopen of {!save_parts} output. Raises
    {!Pti_storage.Corrupt} on missing or inconsistent sections. *)
