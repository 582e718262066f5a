exception Corrupt of { section : string; reason : string }

let corrupt section fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { section; reason })) fmt

(* Refusal of a layout this code no longer reads. *)
let retired section what =
  corrupt section "%s is a retired index format; rebuild with `pti build`" what

type i64_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type u8_arr = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16_arr = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type u32_arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64_arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* An int view is either a native 63-bit array (heap-built structures,
   and u64 file sections) or a minimal-width packed section of the
   mapped file. Packed sections store [v + bias] as an unsigned
   [width]-byte integer; [bias] is 1 exactly when the section holds -1
   sentinels (separator positions in pos/doc_of arrays) and 0
   otherwise, so [get] is one load, one subtract. *)
type ints =
  | I64 of i64_arr
  | U8 of u8_arr * int (* data, bias *)
  | U16 of u16_arr * int
  | U32 of u32_arr * int

type floats = f64_arr

type bytes_view = u8_arr

module Ints = struct
  let empty : ints =
    I64 (Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0)

  let create n : ints =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill b 0;
    I64 b

  let set (b : ints) i v =
    match b with
    | I64 a -> Bigarray.Array1.set a i v
    | U8 _ | U16 _ | U32 _ ->
        invalid_arg "Pti_storage.Ints.set: packed views are read-only"

  let of_array a : ints =
    let b =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a)
    in
    Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
    I64 b

  let length (b : ints) =
    match b with
    | I64 a -> Bigarray.Array1.dim a
    | U8 (a, _) -> Bigarray.Array1.dim a
    | U16 (a, _) -> Bigarray.Array1.dim a
    | U32 (a, _) -> Bigarray.Array1.dim a

  let get (b : ints) i =
    match b with
    | I64 a -> Bigarray.Array1.get a i
    | U8 (a, bias) -> Bigarray.Array1.get a i - bias
    | U16 (a, bias) -> Bigarray.Array1.get a i - bias
    | U32 (a, bias) ->
        (Int32.to_int (Bigarray.Array1.get a i) land 0xFFFFFFFF) - bias

  let unsafe_get (b : ints) i =
    match b with
    | I64 a -> Bigarray.Array1.unsafe_get a i
    | U8 (a, bias) -> Bigarray.Array1.unsafe_get a i - bias
    | U16 (a, bias) -> Bigarray.Array1.unsafe_get a i - bias
    | U32 (a, bias) ->
        (Int32.to_int (Bigarray.Array1.unsafe_get a i) land 0xFFFFFFFF) - bias

  let to_array (b : ints) = Array.init (length b) (get b)

  let sub (b : ints) off len : ints =
    match b with
    | I64 a -> I64 (Bigarray.Array1.sub a off len)
    | U8 (a, bias) -> U8 (Bigarray.Array1.sub a off len, bias)
    | U16 (a, bias) -> U16 (Bigarray.Array1.sub a off len, bias)
    | U32 (a, bias) -> U32 (Bigarray.Array1.sub a off len, bias)

  let width (b : ints) =
    match b with I64 _ -> 8 | U8 _ -> 1 | U16 _ -> 2 | U32 _ -> 4

  let byte_size (b : ints) = width b * length b
end

module Floats = struct
  let of_array a : floats =
    let b =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Array.length a)
    in
    Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
    b

  (* Annotated so the primitives specialise to float64 loads. *)
  let length (b : floats) = Bigarray.Array1.dim b
  let get (b : floats) i = Bigarray.Array1.get b i
  let unsafe_get (b : floats) i = Bigarray.Array1.unsafe_get b i
  let to_array (b : floats) = Array.init (length b) (get b)
  let byte_size (b : floats) = 8 * length b
end

module Bits = struct
  type t = bytes_view

  let of_bytes by : t =
    let n = Bytes.length by in
    let b = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set b i (Char.code (Bytes.unsafe_get by i))
    done;
    b

  let to_bytes (b : t) =
    Bytes.init (Bigarray.Array1.dim b) (fun i ->
        Char.unsafe_chr (Bigarray.Array1.get b i))

  let byte_length (b : t) = Bigarray.Array1.dim b

  let get (b : t) j =
    Bigarray.Array1.get b (j lsr 3) land (1 lsl (j land 7)) <> 0
end

(* ------------------------------------------------------------------ *)
(* Container layout.

   The envelope (header, section table, checksums) is 64-bit
   little-endian words. Int payloads are stored at the minimal byte
   width covering the section's value range (u8/u16/u32/u64); floats
   are f64. Files with a retired magic are refused up front.

   Values are read back through [Bigarray] views; checksums work in
   native-int (63-bit) arithmetic on both sides so the write- and
   read-side computations agree bit for bit. *)

let magic = "PTI-ENGINE-4\n"
let magic_padded = magic ^ String.make (16 - String.length magic) '\000'

(* Magics of earlier formats: recognised only to say why the file is
   refused. ENGINE-2 was one Marshal stream, ENGINE-3 the same container
   with every element a 64-bit word. *)
let retired_magics = [ "PTI-ENGINE-2\n"; "PTI-ENGINE-3\n" ]

(* ENGINE-2 listing files began with the listing's own [Marshal]
   header: the magic number 0x8495A6BE, or 0x8495A6BF for big values. *)
let marshal_magics = [ "\x84\x95\xA6\xBE"; "\x84\x95\xA6\xBF" ]

let header_bytes = 48
let entry_words = 6 (* kind, offset, length, checksum, width, bias *)
let sentinel = 0x0123456789ABCDEF
let k_ints = 0
let k_floats = 1
let k_bytes = 2

let kind_name = function
  | 0 -> "ints"
  | 1 -> "floats"
  | 2 -> "bytes"
  | k -> Printf.sprintf "unknown-%d" k

let pad8 x = (x + 7) land lnot 7

(* FNV-1a over 63-bit words, seeded; wraps mod 2^63 deterministically. *)
let checksum_seed = 0x1505_7151_1505_7151
let fnv_prime = 0x100000001B3

(* ------------------------------------------------------------------ *)
(* Durable IO: EINTR-retrying, failpoint-instrumented primitives for
   the atomic save path (DESIGN.md §11). Failpoint names:
   "storage.write", "storage.fsync", "storage.rename" on the writer,
   "storage.open" on the reader. *)

let fp_write = "storage.write"
let fp_fsync = "storage.fsync"
let fp_rename = "storage.rename"
let fp_open = "storage.open"

(* Write the whole range, retrying EINTR and continuing after short
   writes — real ones or [Short_write]-injected ones. *)
let write_retry fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n =
        match
          match Pti_fault.hit fp_write with
          | Some short ->
              Unix.write fd buf off (Stdlib.min len (Stdlib.max 1 short))
          | None -> Unix.write fd buf off len
        with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n) (len - n)
    end
  in
  go off len

let rec fsync_retry fd =
  try
    ignore (Pti_fault.hit fp_fsync : int option);
    Unix.fsync fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retry fd

let rec rename_retry src dst =
  try
    ignore (Pti_fault.hit fp_rename : int option);
    Unix.rename src dst
  with Unix.Unix_error (Unix.EINTR, _, _) -> rename_retry src dst

(* Flush the directory so the rename itself survives a crash.
   Filesystems that cannot fsync a directory are tolerated (the data
   fsync already happened); real IO errors still propagate. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try fsync_retry fd
          with Unix.Unix_error ((Unix.EINVAL | Unix.EROFS), _, _) -> ())

let temp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

(* ------------------------------------------------------------------ *)

module Writer = struct
  type payload =
    | P_ints of int array
    | P_ints_ba of ints
    | P_floats of float array
    | P_floats_ba of floats
    | P_bytes of string
    | P_bits of Bits.t

  type t = {
    w_path : string;
    mutable rev_sections : (string * int * payload) list; (* name, kind, payload *)
    mutable names : string list;
  }

  let create path = { w_path = path; rev_sections = []; names = [] }

  let add w name kind payload =
    if List.mem name w.names then
      invalid_arg (Printf.sprintf "Pti_storage.Writer: duplicate section %S" name);
    if String.length name = 0 || String.length name > 255 then
      invalid_arg "Pti_storage.Writer: section name must be 1..255 bytes";
    w.names <- name :: w.names;
    w.rev_sections <- (name, kind, payload) :: w.rev_sections

  let add_ints w name a = add w name k_ints (P_ints a)
  let add_ints_ba w name a = add w name k_ints (P_ints_ba a)
  let add_floats w name a = add w name k_floats (P_floats a)
  let add_floats_ba w name a = add w name k_floats (P_floats_ba a)
  let add_bytes w name s = add w name k_bytes (P_bytes s)
  let add_bits w name b = add w name k_bytes (P_bits b)

  let payload_elems = function
    | P_ints a -> Array.length a
    | P_ints_ba a -> Ints.length a
    | P_floats a -> Array.length a
    | P_floats_ba a -> Floats.length a
    | P_bytes s -> String.length s
    | P_bits b -> Bits.byte_length b

  (* Minimal-width selection. Sections whose only negative value is the
     -1 sentinel are stored biased by +1; anything more negative (or
     large enough that the bias would overflow) falls back to raw
     64-bit words. *)
  let int_width (lo, hi) =
    if lo > hi then (1, 0) (* empty section *)
    else if lo < -1 || hi = max_int then (8, 0)
    else begin
      let bias = if lo < 0 then 1 else 0 in
      let hi = hi + bias in
      if hi < 0x100 then (1, bias)
      else if hi < 0x10000 then (2, bias)
      else if hi < 0x1_0000_0000 then (4, bias)
      else (8, 0)
    end

  let int_bounds_arr a =
    let lo = ref max_int and hi = ref min_int in
    Array.iter
      (fun v ->
        if v < !lo then lo := v;
        if v > !hi then hi := v)
      a;
    (!lo, !hi)

  let int_bounds_ba a =
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to Ints.length a - 1 do
      let v = Ints.unsafe_get a i in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    (!lo, !hi)

  (* Byte width and sentinel bias of a section, chosen from its values. *)
  let section_width = function
    | P_bytes _ | P_bits _ -> (1, 0)
    | P_floats _ | P_floats_ba _ -> (8, 0)
    | P_ints a -> int_width (int_bounds_arr a)
    | P_ints_ba a -> int_width (int_bounds_ba a)

  (* ---------------------------------------------------------------- *)
  (* Streaming emitter: fixed-size chunked writes with the per-section
     FNV checksum folded incrementally as bytes are produced, so [close]
     is O(bytes written) with O(chunk) memory — no whole-file buffer.

     The checksum is over 64-bit words of the padded payload; partial
     words accumulate little-endian in [acc]/[nacc] and fold when full.
     Sections start 8-aligned and are zero-padded to 8, so [nacc] is 0
     at every section boundary. *)

  let chunk_bytes = 1 lsl 18 (* 256 KiB, a multiple of 8 *)

  type stream = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int; (* fill of [buf] *)
    mutable h : int; (* running checksum of the current section *)
    mutable acc : int; (* partial checksum word, little-endian *)
    mutable nacc : int; (* bytes accumulated in [acc] *)
  }

  let stream fd =
    { fd; buf = Bytes.create chunk_bytes; pos = 0; h = 0; acc = 0; nacc = 0 }

  let flush st =
    if st.pos > 0 then begin
      write_retry st.fd st.buf 0 st.pos;
      st.pos <- 0
    end

  let ensure st need = if st.pos + need > chunk_bytes then flush st
  let fold st w = st.h <- (st.h lxor w) * fnv_prime

  let acc_bytes st v nbytes =
    st.acc <- st.acc lor (v lsl (8 * st.nacc));
    st.nacc <- st.nacc + nbytes;
    if st.nacc = 8 then begin
      fold st st.acc;
      st.acc <- 0;
      st.nacc <- 0
    end

  let put8 st v =
    ensure st 1;
    Bytes.unsafe_set st.buf st.pos (Char.unsafe_chr v);
    st.pos <- st.pos + 1;
    acc_bytes st v 1

  let put16 st v =
    ensure st 2;
    Bytes.set_uint16_le st.buf st.pos v;
    st.pos <- st.pos + 2;
    acc_bytes st v 2

  let put32 st v =
    ensure st 4;
    Bytes.set_int32_le st.buf st.pos (Int32.of_int v);
    st.pos <- st.pos + 4;
    acc_bytes st v 4

  (* Full words only ever start 8-aligned, so [acc] is empty here and
     the checksum word is the native int itself. *)
  let put64 st v =
    ensure st 8;
    Bytes.set_int64_le st.buf st.pos (Int64.of_int v);
    st.pos <- st.pos + 8;
    fold st v

  let put_bits64 st bits =
    ensure st 8;
    Bytes.set_int64_le st.buf st.pos bits;
    st.pos <- st.pos + 8;
    fold st (Int64.to_int bits)

  let begin_section st =
    st.h <- checksum_seed;
    st.acc <- 0;
    st.nacc <- 0

  let put_ints st ~width ~bias ~len get =
    match width with
    | 1 -> for i = 0 to len - 1 do put8 st (get i + bias) done
    | 2 -> for i = 0 to len - 1 do put16 st (get i + bias) done
    | 4 -> for i = 0 to len - 1 do put32 st (get i + bias) done
    | _ -> for i = 0 to len - 1 do put64 st (get i) done

  let put_floats st ~len get =
    for i = 0 to len - 1 do
      put_bits64 st (Int64.bits_of_float (get i))
    done

  let put_payload st ~width ~bias = function
    | P_ints a ->
        put_ints st ~width ~bias ~len:(Array.length a) (Array.unsafe_get a)
    | P_ints_ba a ->
        put_ints st ~width ~bias ~len:(Ints.length a) (Ints.unsafe_get a)
    | P_floats a -> put_floats st ~len:(Array.length a) (Array.unsafe_get a)
    | P_floats_ba a -> put_floats st ~len:(Floats.length a) (Floats.unsafe_get a)
    | P_bytes s ->
        for i = 0 to String.length s - 1 do
          put8 st (Char.code (String.unsafe_get s i))
        done
    | P_bits b ->
        for i = 0 to Bits.byte_length b - 1 do
          put8 st (Bigarray.Array1.unsafe_get b i)
        done

  let close w =
    let sections = List.rev w.rev_sections in
    (* Layout pass: choose widths, lay sections end to end. *)
    let cursor = ref header_bytes in
    let laid =
      List.map
        (fun (name, kind, payload) ->
          let width, bias = section_width payload in
          let off = !cursor in
          let len = width * payload_elems payload in
          cursor := off + pad8 len;
          (name, kind, payload, width, bias, off, len))
        sections
    in
    let table_off = !cursor in
    let entry_bytes name = 8 + pad8 (String.length name) + (8 * entry_words) in
    let table_bytes =
      List.fold_left
        (fun acc (name, _, _, _, _, _, _) -> acc + entry_bytes name)
        0 laid
    in
    let total = table_off + table_bytes + 8 (* table checksum *) in
    let emit fd =
        let st = stream fd in
        (* Header (not covered by any section checksum). *)
        let header = Bytes.make header_bytes '\000' in
        Bytes.blit_string magic_padded 0 header 0 16;
        Bytes.set_int64_le header 16 (Int64.of_int sentinel);
        Bytes.set_int64_le header 24 (Int64.of_int (List.length laid));
        Bytes.set_int64_le header 32 (Int64.of_int table_off);
        Bytes.set_int64_le header 40 (Int64.of_int total);
        Bytes.blit header 0 st.buf 0 header_bytes;
        st.pos <- header_bytes;
        (* Payloads, collecting each section's checksum as it streams. *)
        let sums =
          List.map
            (fun (_, _, payload, width, bias, _, len) ->
              begin_section st;
              put_payload st ~width ~bias payload;
              for _ = 1 to pad8 len - len do
                put8 st 0
              done;
              st.h)
            laid
        in
        (* Section table, checksummed by the same incremental fold. *)
        begin_section st;
        List.iter2
          (fun (name, kind, _, width, bias, off, len) sum ->
            put64 st (String.length name);
            String.iter (fun c -> put8 st (Char.code c)) name;
            for _ = 1 to pad8 (String.length name) - String.length name do
              put8 st 0
            done;
            put64 st kind;
            put64 st off;
            put64 st len;
            put64 st sum;
            put64 st width;
            put64 st bias)
          laid sums;
        let table_sum = st.h in
        put64 st table_sum;
        flush st
    in
    (* Atomic save: stream into a temp file in the destination
       directory, fsync it, rename over the destination, fsync the
       directory. Any failure before the rename leaves the old file
       byte-identical; a failure after it leaves the new file complete. *)
    let tmp = temp_path w.w_path in
    (try
       let fd =
         Unix.openfile tmp
           [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
           0o644
       in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           emit fd;
           fsync_retry fd);
       rename_retry tmp w.w_path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    fsync_dir w.w_path
end

(* ------------------------------------------------------------------ *)

module Reader = struct
  type section = {
    s_kind : int;
    s_off : int;
    s_len : int; (* payload bytes *)
    s_sum : int;
    s_width : int;
    s_bias : int;
    mutable s_verified : bool;
  }

  type t = {
    r_path : string;
    bytes_v : bytes_view;
    ints_v : i64_arr;
    floats_v : f64_arr;
    u16_v : u16_arr;
    u32_v : u32_arr;
    tbl : (string, section) Hashtbl.t;
    order : string list;
  }

  (* Checksum over the mapped words; must mirror the Writer's fold. *)
  let checksum_view (ints_v : i64_arr) ~off ~len =
    let h = ref checksum_seed in
    let w0 = off / 8 in
    let words = pad8 len / 8 in
    for i = 0 to words - 1 do
      h := (!h lxor Bigarray.Array1.unsafe_get ints_v (w0 + i)) * fnv_prime
    done;
    !h

  let verify_section r name s =
    if not s.s_verified then begin
      let sum = checksum_view r.ints_v ~off:s.s_off ~len:s.s_len in
      if sum <> s.s_sum then
        corrupt name "checksum mismatch (expected %x, computed %x)" s.s_sum sum;
      s.s_verified <- true
    end

  let open_file ?(verify = true) path =
    let fd =
      try
        ignore (Pti_fault.hit fp_open : int option);
        Unix.openfile path [ Unix.O_RDONLY ] 0
      with Unix.Unix_error (e, _, _) ->
        corrupt "header" "cannot open %s: %s" path (Unix.error_message e)
    in
    let size = (Unix.fstat fd).Unix.st_size in
    let map () =
      (* A retired format is named before any size check: an ENGINE-2
         stream has no reason to be a multiple of 8 bytes long. *)
      let head = Bytes.create 16 in
      let got = try Unix.read fd head 0 16 with Unix.Unix_error _ -> 0 in
      let starts m =
        got >= String.length m && Bytes.sub_string head 0 (String.length m) = m
      in
      List.iter
        (fun m -> if starts m then retired "header" (String.trim m))
        retired_magics;
      if List.exists starts marshal_magics then
        retired "header" "a marshalled PTI-ENGINE-2 index";
      if size < header_bytes + 8 then
        corrupt "header" "file is %d bytes, smaller than any index (truncated?)"
          size;
      if size mod 8 <> 0 then
        corrupt "header" "file size %d is not a multiple of 8 (truncated?)" size;
      let ga kind dim = Unix.map_file fd kind Bigarray.c_layout false [| dim |] in
      let bytes_v = Bigarray.array1_of_genarray (ga Bigarray.int8_unsigned size) in
      let ints_v = Bigarray.array1_of_genarray (ga Bigarray.int (size / 8)) in
      let floats_v =
        Bigarray.array1_of_genarray (ga Bigarray.float64 (size / 8))
      in
      let u16_v =
        Bigarray.array1_of_genarray (ga Bigarray.int16_unsigned (size / 2))
      in
      let u32_v = Bigarray.array1_of_genarray (ga Bigarray.int32 (size / 4)) in
      (bytes_v, ints_v, floats_v, u16_v, u32_v)
    in
    let bytes_v, ints_v, floats_v, u16_v, u32_v =
      Fun.protect ~finally:(fun () -> Unix.close fd) map
    in
    let matches m =
      let ok = ref true in
      for i = 0 to String.length m - 1 do
        if Bigarray.Array1.get bytes_v i <> Char.code m.[i] then ok := false
      done;
      !ok
    in
    if not (matches magic_padded) then
      corrupt "header" "bad magic (not a %s index file)" (String.trim magic);
    let word i = Bigarray.Array1.get ints_v i in
    if word 2 <> sentinel then
      corrupt "header"
        "byte-order sentinel mismatch: file written on an incompatible host \
         (big-endian or non-64-bit)";
    let n_sections = word 3 in
    let table_off = word 4 in
    let total = word 5 in
    if total <> size then
      corrupt "header"
        "file is %d bytes but the header declares %d (truncated or grown)" size
        total;
    if n_sections < 0 || table_off < header_bytes || table_off > size - 8
       || table_off mod 8 <> 0
    then corrupt "header" "section table offset %d out of bounds" table_off;
    (* Verify the table checksum before trusting any entry. *)
    let table_len = size - 8 - table_off in
    let declared_sum = word ((size / 8) - 1) in
    let sum = checksum_view ints_v ~off:table_off ~len:table_len in
    if sum <> declared_sum then
      corrupt "section-table" "checksum mismatch (index truncated or modified)";
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    let cursor = ref table_off in
    for _ = 1 to n_sections do
      if !cursor + 8 > table_off + table_len then
        corrupt "section-table" "table overruns the file";
      let name_len = word (!cursor / 8) in
      if name_len <= 0 || name_len > 255
         || !cursor + 8 + pad8 name_len + (8 * entry_words)
            > table_off + table_len
      then corrupt "section-table" "malformed entry (name length %d)" name_len;
      let name =
        String.init name_len (fun i ->
            Char.chr (Bigarray.Array1.get bytes_v (!cursor + 8 + i)))
      in
      let p = (!cursor + 8 + pad8 name_len) / 8 in
      let s_kind = word p in
      let s_off = word (p + 1) in
      let s_len = word (p + 2) in
      let s_sum = word (p + 3) in
      let s_width = word (p + 4) and s_bias = word (p + 5) in
      if s_kind < 0 || s_kind > k_bytes then
        corrupt name "unknown section kind %d" s_kind;
      if s_off < header_bytes || s_len < 0 || s_off mod 8 <> 0
         || s_off + pad8 s_len > table_off
      then corrupt name "section bounds [%d, %d) out of range" s_off (s_off + s_len);
      let width_ok =
        match s_kind with
        | 0 -> s_width = 1 || s_width = 2 || s_width = 4 || s_width = 8
        | 1 -> s_width = 8
        | _ -> s_width = 1
      in
      if not width_ok then
        corrupt name "unsupported width %d for kind %s" s_width
          (kind_name s_kind);
      if s_bias < 0 || s_bias > 1 || (s_bias = 1 && s_width = 8) then
        corrupt name "unsupported sentinel bias %d" s_bias;
      if s_len mod s_width <> 0 then
        corrupt name "section length %d is not a multiple of its width %d"
          s_len s_width;
      if Hashtbl.mem tbl name then corrupt name "duplicate section";
      Hashtbl.replace tbl name
        { s_kind; s_off; s_len; s_sum; s_width; s_bias; s_verified = false };
      order := name :: !order;
      cursor := (p + entry_words) * 8
    done;
    let r =
      {
        r_path = path;
        bytes_v;
        ints_v;
        floats_v;
        u16_v;
        u32_v;
        tbl;
        order = List.rev !order;
      }
    in
    if verify then
      List.iter (fun name -> verify_section r name (Hashtbl.find r.tbl name)) r.order;
    r

  let path r = r.r_path
  let has r name = Hashtbl.mem r.tbl name

  let kind r name =
    Option.map (fun s -> kind_name s.s_kind) (Hashtbl.find_opt r.tbl name)
  let sections r = r.order

  let find r name =
    match Hashtbl.find_opt r.tbl name with
    | Some s -> s
    | None -> corrupt name "section missing from %s" r.r_path

  let expect_kind name s kind =
    if s.s_kind <> kind then
      corrupt name "section has kind %s, expected %s" (kind_name s.s_kind)
        (kind_name kind)

  let ints r name : ints =
    let s = find r name in
    expect_kind name s k_ints;
    let elems = s.s_len / s.s_width in
    match s.s_width with
    | 1 -> U8 (Bigarray.Array1.sub r.bytes_v s.s_off elems, s.s_bias)
    | 2 -> U16 (Bigarray.Array1.sub r.u16_v (s.s_off / 2) elems, s.s_bias)
    | 4 -> U32 (Bigarray.Array1.sub r.u32_v (s.s_off / 4) elems, s.s_bias)
    | _ -> I64 (Bigarray.Array1.sub r.ints_v (s.s_off / 8) elems)

  let floats r name : floats =
    let s = find r name in
    expect_kind name s k_floats;
    Bigarray.Array1.sub r.floats_v (s.s_off / 8) (s.s_len / 8)

  let bits r name : Bits.t =
    let s = find r name in
    expect_kind name s k_bytes;
    Bigarray.Array1.sub r.bytes_v s.s_off s.s_len

  let blob r name =
    let s = find r name in
    expect_kind name s k_bytes;
    verify_section r name s;
    String.init s.s_len (fun i -> Char.chr (Bigarray.Array1.get r.bytes_v (s.s_off + i)))

  type section_info = {
    si_name : string;
    si_kind : string;
    si_width : int;
    si_bias : int;
    si_off : int;
    si_bytes : int;
    si_elems : int;
    si_checksum_ok : bool;
  }

  let table r =
    List.map
      (fun name ->
        let s = Hashtbl.find r.tbl name in
        let ok =
          s.s_verified
          || checksum_view r.ints_v ~off:s.s_off ~len:s.s_len = s.s_sum
        in
        {
          si_name = name;
          si_kind = kind_name s.s_kind;
          si_width = s.s_width;
          si_bias = s.s_bias;
          si_off = s.s_off;
          si_bytes = s.s_len;
          si_elems = (if s.s_kind = k_bytes then s.s_len else s.s_len / s.s_width);
          si_checksum_ok = ok;
        })
      r.order
end

(* ------------------------------------------------------------------ *)
(* Write-ahead log framing: a flat stream of length-prefixed,
   FNV-checksummed records, the durability layer under the segment
   store's memtable (DESIGN.md §15). One record is

     payload length   (8 bytes LE)
     FNV-1a checksum  (8 bytes LE, over the length then the payload,
                       seeded like every container checksum)
     payload          (opaque bytes)

   with no padding, so the file is valid iff it is a prefix of
   appended records plus at most one torn tail. [scan] recovers the
   longest valid prefix: a record that fails its checksum is a torn
   tail (dropped, truncation offset reported) UNLESS complete valid
   records follow it — corruption in the MIDDLE of the log cannot be
   repaired by truncation without silently dropping later acknowledged
   operations, so that raises [Corrupt] instead of guessing.
   Failpoints: "wal.append" (short writes, errno, abort mid-append),
   "wal.fsync", "wal.replay" (hit once per record scanned). *)

module Wal = struct
  let fp_append = "wal.append"
  let fp_fsync = "wal.fsync"
  let fp_replay = "wal.replay"

  let header_bytes = 16

  (* Byte-wise FNV-1a over the 8 little-endian length bytes then the
     payload; masked positive so the on-disk LE encoding is stable. *)
  let record_checksum payload =
    let h = ref checksum_seed in
    let fold b = h := (!h lxor b) * fnv_prime in
    let len = String.length payload in
    for i = 0 to 7 do
      fold ((len lsr (8 * i)) land 0xff)
    done;
    String.iter (fun c -> fold (Char.code c)) payload;
    !h land max_int

  type writer = { w_fd : Unix.file_descr; w_path : string }

  let open_writer path =
    let fd =
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    in
    { w_fd = fd; w_path = path }

  (* Write the whole record with one buffer so an O_APPEND append is a
     single write(2) in the common case; retry EINTR and continue
     after (possibly injected) short writes like [write_retry]. *)
  let append w payload =
    let len = String.length payload in
    let buf = Bytes.create (header_bytes + len) in
    Bytes.set_int64_le buf 0 (Int64.of_int len);
    Bytes.set_int64_le buf 8 (Int64.of_int (record_checksum payload));
    Bytes.blit_string payload 0 buf header_bytes len;
    let rec go off rem =
      if rem > 0 then begin
        let n =
          match
            match Pti_fault.hit fp_append with
            | Some short ->
                Unix.write w.w_fd buf off (Stdlib.min rem (Stdlib.max 1 short))
            | None -> Unix.write w.w_fd buf off rem
          with
          | n -> n
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
        in
        go (off + n) (rem - n)
      end
    in
    go 0 (header_bytes + len)

  let sync w =
    ignore (Pti_fault.hit fp_fsync : int option);
    let rec go () =
      try Unix.fsync w.w_fd
      with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

  let close w = try Unix.close w.w_fd with Unix.Unix_error _ -> ()

  type scan = {
    ws_records : string list;
    ws_valid_bytes : int;
    ws_torn : bool;
  }

  let read_whole path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))

  (* [true] iff at least one complete, checksum-valid record starts at
     [o] or can be parsed by walking claimed record boundaries from
     there — the evidence that a bad record at an earlier offset is
     middle corruption, not a torn tail. *)
  let rec valid_record_after data size o =
    if size - o < header_bytes then false
    else
      let len = Int64.to_int (String.get_int64_le data o) in
      if len < 0 || len > size - o - header_bytes then false
      else
        let sum = Int64.to_int (String.get_int64_le data (o + 8)) in
        let payload = String.sub data (o + header_bytes) len in
        record_checksum payload = sum
        || valid_record_after data size (o + header_bytes + len)

  let scan path =
    match read_whole path with
    | None -> { ws_records = []; ws_valid_bytes = 0; ws_torn = false }
    | Some data ->
        let size = String.length data in
        let rec go o acc =
          if o = size then
            { ws_records = List.rev acc; ws_valid_bytes = o; ws_torn = false }
          else begin
            ignore (Pti_fault.hit fp_replay : int option);
            let torn () =
              { ws_records = List.rev acc; ws_valid_bytes = o; ws_torn = true }
            in
            if size - o < header_bytes then torn ()
            else
              let len = Int64.to_int (String.get_int64_le data o) in
              if len < 0 || len > size - o - header_bytes then torn ()
              else
                let sum = Int64.to_int (String.get_int64_le data (o + 8)) in
                let payload = String.sub data (o + header_bytes) len in
                if record_checksum payload <> sum then
                  if valid_record_after data size (o + header_bytes + len) then
                    raise
                      (Corrupt
                         {
                           section = "wal";
                           reason =
                             Printf.sprintf
                               "%s: bad record checksum at offset %d with \
                                valid records after it — corrupt middle, \
                                refusing to truncate"
                               path o;
                         })
                  else torn ()
                else go (o + header_bytes + len) (payload :: acc)
          end
        in
        go 0 []

  let truncate path n =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.ftruncate fd n;
            let rec go () =
              try Unix.fsync fd
              with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            in
            go ())

  let remove path =
    (try Sys.remove path with Sys_error _ -> ());
    fsync_dir path
end
