(** FM-index: backward pattern search over the Burrows–Wheeler
    transform, with the wavelet tree providing rank.

    Stand-in for the compressed suffix array the paper uses for the
    pattern → suffix-range step in §8.7 (Belazzougui–Navarro): counting
    and range queries in O(m log σ) without touching the text,
    n·log σ + o(n log σ) bits of payload. Suffix ranges are reported in
    the coordinates of the plain suffix array of the text (as produced
    by {!Pti_suffix.Sais.suffix_array}), so results are interchangeable
    with {!Pti_suffix.Sa_search}.

    Every array is a {!Pti_storage} view: a built index persists into
    named container sections ({!save_parts}) and reopens as zero-copy
    views of the mapped file ({!open_parts}) — no BWT or wavelet
    reconstruction at open. *)

type t

val create : ?sa:int array -> int array -> t
(** [create text] builds the BWT (via SA-IS unless [sa] — the suffix
    array of [text] — is supplied) and its wavelet tree. Symbols must be
    ≥ 1. *)

val length : t -> int

val range : t -> pattern:int array -> (int * int) option
(** Suffix range of the pattern, inclusive, in plain-SA coordinates;
    [None] if absent. The empty pattern matches everywhere. *)

val count : t -> pattern:int array -> int
val size_words : t -> int

val size_bytes : t -> int
(** Bytes of the wavelet tree and count arrays in their current
    representation. *)

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit
(** Persist as [prefix ^ ".meta"/".c"] plus the BWT wavelet tree under
    [prefix ^ ".wt"]. *)

val open_parts : Pti_storage.Reader.t -> prefix:string -> t
(** Zero-copy reopen of {!save_parts} output. Raises
    {!Pti_storage.Corrupt} on missing or inconsistent sections. *)
