(** Zero-copy index storage: a versioned flat binary container opened
    read-only via [Unix.map_file] into [Bigarray] views.

    The container is a sequence of named, 8-byte-aligned sections behind
    a fixed header (see DESIGN.md §8–§9 for the byte-level layout):

    {v
    magic "PTI-ENGINE-4\n" (16 bytes, zero padded)
    byte-order/int-width sentinel, section count,
    section-table offset, total file size        (one 64-bit word each)
    ... sections, each padded to a multiple of 8 bytes ...
    section table: (name, kind, offset, length, checksum,
                    width, bias) per section
    table checksum
    v}

    The envelope (header, table, checksums) is 64-bit little-endian
    words. Int payloads are packed at the minimal byte width covering
    the section's value range (u8/u16/u32/u64), with an explicit +1
    bias for sections whose only negative value is a [-1] sentinel;
    float payloads are f64. Files of a retired format (the
    "PTI-ENGINE-2" [Marshal] stream, the all-64-bit "PTI-ENGINE-3"
    container) are refused with a message to rebuild them. The
    sentinel word rejects big-endian or non-64-bit hosts instead of
    silently misreading. Opening a file costs page mapping plus — by
    default — one streaming checksum pass; no per-element
    deserialization ever happens, and because mapped sections are
    immutable and page-cache-shared, any number of domains or OS
    processes serve one physical copy of the index. *)

(** Raised when an index file is truncated, has the wrong magic, fails a
    checksum, or declares an out-of-bounds section. [section] names the
    offending section ("header" / "section-table" for the envelope). *)
exception Corrupt of { section : string; reason : string }

val retired : string -> string -> 'a
(** [retired section what] raises {!Corrupt} for a layout this code no
    longer reads: the reason names [what] and says to rebuild the index
    with [pti build]. *)

(** {2 Array views}

    These are the accessor types the query path reads through: either a
    fresh heap-backed [Bigarray] (just-constructed engines) or a
    possibly-packed view into the mapped file (opened engines) — one
    code path, zero per-access allocation either way. Only heap-built
    [I64] int views are mutable; packed views come from mapped files,
    which are immutable. *)

type i64_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type u8_arr = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16_arr = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type u32_arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64_arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Packed int views store [v + bias] as an unsigned [width]-byte
    integer; [bias] is 1 exactly when the section holds [-1] sentinels
    (e.g. separator positions in pos/doc_of arrays) and 0 otherwise. *)
type ints =
  | I64 of i64_arr
  | U8 of u8_arr * int  (** data, bias *)
  | U16 of u16_arr * int
  | U32 of u32_arr * int

type floats = f64_arr

type bytes_view = u8_arr

module Ints : sig
  val empty : ints

  val create : int -> ints
  (** A fresh zero-filled heap-backed array, for structures built
      in place (mapped views are never mutated). *)

  val set : ints -> int -> int -> unit
  (** Raises [Invalid_argument] on a packed (read-only) view. *)

  val of_array : int array -> ints
  val to_array : ints -> int array
  val length : ints -> int
  val get : ints -> int -> int
  val unsafe_get : ints -> int -> int

  val sub : ints -> int -> int -> ints
  (** [sub a off len]: a view sharing storage, like [Bigarray.Array1.sub]. *)

  val width : ints -> int
  (** Bytes per element of the underlying representation (1/2/4/8). *)

  val byte_size : ints -> int
  (** [width * length]: bytes this view occupies in its backing store. *)
end

module Floats : sig
  val of_array : float array -> floats
  val to_array : floats -> float array
  val length : floats -> int
  val get : floats -> int -> float
  val unsafe_get : floats -> int -> float
  val byte_size : floats -> int
end

(** Bit vectors over raw bytes (bit [j] = bit [j land 7] of byte
    [j lsr 3]), matching the engine's duplicate-elimination bitmaps. *)
module Bits : sig
  type t = bytes_view

  val of_bytes : Bytes.t -> t
  val to_bytes : t -> Bytes.t
  val byte_length : t -> int
  val get : t -> int -> bool
end

val magic : string
(** ["PTI-ENGINE-4\n"] — the container magic, also the first bytes of
    a freshly written file. *)

(** {2 Writing} *)

val temp_path : string -> string
(** The temporary sibling {!Writer.close} streams into before renaming
    ([path.tmp.<pid>]) — exposed so tests can assert no temp files
    survive a failed save. *)

module Writer : sig
  type t

  val create : string -> t
  (** Start a container at this path. Section payloads are referenced,
      not copied; the file is streamed out on {!close}. *)

  val add_ints : t -> string -> int array -> unit
  val add_ints_ba : t -> string -> ints -> unit
  val add_floats : t -> string -> float array -> unit
  val add_floats_ba : t -> string -> floats -> unit

  val add_bytes : t -> string -> string -> unit
  (** An opaque byte payload (readable back via {!Reader.blob} or
      {!Reader.bits}). *)

  val add_bits : t -> string -> Bits.t -> unit

  val close : t -> unit
  (** Lay out, checksum and write the file as a stream of fixed-size
      chunks — O(bytes written) time, O(chunk) memory, checksums folded
      incrementally while streaming. Section order is the [add_*] call
      order and widths are a pure function of section values, so
      identical engines produce byte-identical files. Raises
      [Invalid_argument] on duplicate section names.

      The write is crash-safe: the stream goes to a temp file which is
      fsynced and renamed over the destination (then the directory is
      fsynced), so a crash or error at any point leaves the destination
      either old-complete or new-complete. Failpoints ["storage.write"],
      ["storage.fsync"] and ["storage.rename"] instrument the path. *)
end

(** {2 Reading (mmap)} *)

module Reader : sig
  type t

  val open_file : ?verify:bool -> string -> t
  (** Map the file and parse the header and section table, raising
      {!Corrupt} on any structural problem. A file that starts with a
      retired magic ("PTI-ENGINE-2", "PTI-ENGINE-3", or the [Marshal]
      header an ENGINE-2 listing file began with) is refused first,
      with [section = "header"] and a reason that says to rebuild it
      with [pti build]. With [verify]
      (default [true]) every section's checksum is verified eagerly —
      one sequential pass over the mapping; with [~verify:false] only
      the envelope is checked and array sections are trusted (blob
      sections are still verified before a decoder sees them, and
      decoders validate, so a corrupt file can produce wrong query
      answers but never undefined behaviour). *)

  val path : t -> string
  val has : t -> string -> bool

  val kind : t -> string -> string option
  (** The section's kind ("ints" / "floats" / "bytes"), [None] if it is
      missing — how a reader spots a retired layout before decoding. *)

  val sections : t -> string list
  (** Section names in file order. *)

  val ints : t -> string -> ints
  val floats : t -> string -> floats
  (** Zero-copy (possibly packed) views of an array section. Raise
      {!Corrupt} if the section is missing or has the wrong kind. *)

  val bits : t -> string -> Bits.t
  (** Zero-copy byte view of a bytes section. *)

  val blob : t -> string -> string
  (** Copy of a bytes section, checksum-verified first even when the
      reader was opened with [~verify:false]: blobs go to decoders,
      which validate what they read. *)

  type section_info = {
    si_name : string;
    si_kind : string;  (** "ints" / "floats" / "bytes" *)
    si_width : int;  (** bytes per element *)
    si_bias : int;  (** 1 if [-1] sentinels are stored biased, else 0 *)
    si_off : int;  (** payload offset in the file *)
    si_bytes : int;  (** payload bytes (before 8-byte padding) *)
    si_elems : int;
    si_checksum_ok : bool;
  }

  val table : t -> section_info list
  (** The section table in file order, with each section's checksum
      status (recomputing checksums for sections not yet verified) —
      powers [pti stats <index-file>]. *)
end

(** {2 Write-ahead log framing}

    A flat stream of length-prefixed, FNV-checksummed records — the
    durability layer the segment store's memtable hangs off (DESIGN.md
    §15). One record is an 8-byte LE payload length, an 8-byte LE
    FNV-1a checksum (folded over the length bytes then the payload,
    seeded like every container checksum) and the opaque payload, with
    no padding. Appends are single [write(2)] calls on an [O_APPEND]
    descriptor, so concurrent appenders interleave whole records.

    Failpoints: ["wal.append"] (errno / short-write / abort on the
    record write), ["wal.fsync"], ["wal.replay"] (hit once per record
    scanned — an abort here is a crash mid-recovery). *)
module Wal : sig
  type writer

  val header_bytes : int
  (** Per-record framing overhead: 8-byte length + 8-byte checksum. *)

  val open_writer : string -> writer
  (** Open (creating if missing) for appends. *)

  val append : writer -> string -> unit
  (** Append one record. EINTR and short writes are retried to
      completion; an error mid-record leaves a torn tail that the next
      {!scan} truncates. Does NOT fsync — see {!sync}. *)

  val sync : writer -> unit
  (** [fsync] the log; after it returns every previously appended
      record survives power loss (modulo the directory entry of a
      freshly created file, which the caller's dir-fsync covers). *)

  val close : writer -> unit

  type scan = {
    ws_records : string list;  (** Valid record payloads, file order. *)
    ws_valid_bytes : int;
        (** Offset of the first torn byte (the file size when clean) —
            what {!truncate} should cut to. *)
    ws_torn : bool;  (** A torn tail was dropped. *)
  }

  val scan : string -> scan
  (** Parse the longest valid record prefix. A record failing its
      checksum is a torn tail (dropped and reported) {e unless}
      complete valid records follow it, which is mid-log corruption —
      truncating there would silently drop later acknowledged
      operations, so it raises {!Corrupt} ([section = "wal"]) instead.
      A missing file scans as empty. *)

  val truncate : string -> int -> unit
  (** Cut the file to this many bytes and fsync it (missing file
      ignored) — how a torn tail found by {!scan} is retired. *)

  val remove : string -> unit
  (** Unlink (missing file ignored) and fsync the directory — how a
      fully rotated log is retired. *)
end
