(** Range-maximum queries over (virtual) float arrays.

    Front end over three interchangeable implementations (see
    {!Rmq_intf.S}): a linear-scan oracle, a sparse table and the
    signature block structure {!Rmq_block} (≈4.1 bits per element). The
    index construction of the paper (Lemma 1) uses the block structure;
    the engine holds and persists {!Rmq_block} directly, and this front
    end serves the in-memory indexes, the tests and the ablation
    benchmark. *)

type kind = Naive | Sparse | Block of int

val kind_of_string : string -> kind option
(** Recognises ["naive"], ["sparse"], ["block"] (= [Block 31]) and
    ["block:N"] for N in [2, 31]. *)

val kind_to_string : kind -> string
val all_kinds : kind list

type t

val build : kind -> float array -> t

val build_oracle : kind -> value:(int -> float) -> len:int -> t
(** Builds over the virtual array [value 0 .. value (len-1)]; the oracle
    is called O(len) times at construction and O(1) times per query. *)

val length : t -> int

val query : t -> l:int -> r:int -> int
(** Leftmost index of the maximum in the inclusive range [\[l, r\]]. *)

val size_words : t -> int

val size_bytes : t -> int
(** Exact bytes of the index arrays in their current representation
    (packed views count at their packed width), excluding the oracle. *)

module Naive_impl : Rmq_intf.S with type t = Rmq_naive.t
module Sparse_impl : Rmq_intf.S with type t = Rmq_sparse.t
