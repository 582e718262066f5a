(** Pattern search on a suffix array.

    Finds the *suffix range* of a pattern: the maximal range
    [\[sp, ep\]] of suffix-array positions whose suffixes start with the
    pattern. This is the pattern→range step the paper performs with a
    suffix tree / compressed suffix array (§3.4); only constants differ.

    The search finds the lower boundary first and stops there when the
    suffix at it does not start with the pattern: every occurrence
    would sit at that slot, so an absent pattern costs one boundary
    search. A pattern that occurs gets its upper boundary by galloping
    from the lower one, in O(log range) probes. Each boundary search is
    the Manber–Myers accelerated binary search: each probe maintains
    lcp lower bounds with the two fence suffixes and resumes symbol
    comparison at their minimum, so on repetitive texts a probe costs
    O(fresh symbols) instead of O(m).

    A {!Qgram} table narrows the lower search to the suffixes that
    share the pattern's first q symbols, and answers a pattern of at
    most q symbols with no probe at all.

    The generic {!Make} functor runs the same search over any array
    representation — plain [int array]s for just-built indexes,
    {!Pti_storage.ints} views for memory-mapped ones ({!Ba}). *)

module type ARR = sig
  type t

  val length : t -> int
  val get : t -> int -> int
end

(** A q-gram bucket table over a text: for every q-symbol prefix, the
    run of suffix-array slots whose suffixes start with it.

    The symbols that occur in the text are remapped, in order, to the
    digits 1..used, with digit 0 for "the text ended"; a suffix's first
    q digits, read in base used + 1, are its {e cell}, and cells are
    ordered as the suffixes are. [start.(c)] is the first slot whose
    cell is >= c. The table is derived from the text in one O(n) pass
    (the suffix array is sorted, so counting cells suffices) and is
    never persisted.

    q is the largest with (used + 1)^q <= n / 8, about eight suffixes
    a cell; q = 0 (one bucket, the plain search) on short texts and on
    texts with a symbol outside \[0, 65536\]. *)
module Qgram : sig
  type t

  val q : t -> int

  val cells : t -> int
  (** (used + 1)^q. *)

  val nonempty : t -> int
  (** Cells holding at least one suffix. *)

  val size_words : t -> int
  (** Heap words of the table's arrays (the remap, the powers and
      [start]). *)

  val describe : t -> string
  (** ["q=3 cells=15625 nonempty=4210"]. *)
end

module type S = sig
  type text
  type sa

  val range : text:text -> sa:sa -> pattern:int array -> (int * int) option
  (** The search without a table (one bucket). *)

  val qgram : text -> Qgram.t
  (** The bucket table of a text, q chosen by the rule above. *)

  val range_in :
    Qgram.t -> text:text -> sa:sa -> pattern:int array -> (int * int) option
  (** [range_in table ~text ~sa ~pattern] = [range ~text ~sa ~pattern]
      for the table of [text]. A pattern with a symbol the text lacks
      among its first q symbols is rejected from the remap; one of at
      most q symbols is answered from the table alone; a longer one is
      searched only inside its bucket, resuming comparisons at symbol
      q. Allocates only the answer. *)

  val range_two_search :
    text:text -> sa:sa -> pattern:int array -> (int * int) option
  (** The search before the reject-and-gallop order: two full
      Manber–Myers boundary searches over all n slots, then the
      occurrence check. Same answers. It is the baseline
      [bench abl_range] measures the other searches against; serve
      queries with {!range} or {!range_in}. *)

  val count : text:text -> sa:sa -> pattern:int array -> int
end

module Make (Text : ARR) (Sa : ARR) :
  S with type text = Text.t and type sa = Sa.t

module Heap : S with type text = int array and type sa = int array
module Ba : S with type text = Pti_storage.ints and type sa = Pti_storage.ints

val range :
  text:int array -> sa:int array -> pattern:int array -> (int * int) option
(** [range ~text ~sa ~pattern] is [Some (sp, ep)] (inclusive) or [None]
    if the pattern does not occur. The empty pattern matches everywhere:
    [Some (0, n-1)] (or [None] on an empty text). *)

val count : text:int array -> sa:int array -> pattern:int array -> int

val range_naive :
  text:int array -> sa:int array -> pattern:int array -> (int * int) option
(** The plain binary search restarting every comparison at symbol 0 —
    O(m log n) always. Kept as the oracle for testing and benchmarking
    the accelerated search. *)
