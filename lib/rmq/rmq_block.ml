(** Signature block RMQ: ~4.1 bits per element, the one RMQ every
    persisted level and ladder of the engine stores (the 2n + o(n)-bit
    structure of the paper's Lemma 1).

    The array is cut into blocks of at most 31 elements. Each block
    stores two words: the push/pop signature of its max-Cartesian tree
    (at most 2·31 − 1 = 61 bits) and a mask word holding which elements
    end on the construction stack and which are prefix records (a
    31-bit mask each). The masks answer the queries a multi-block range
    makes of its end blocks — a suffix [l, end] is the first stack
    element ≥ l, a prefix [0, r] the last record ≤ r, the whole block
    the stack's bottom — with one count-trailing-zeros each. Any other
    in-block range is answered from the signature: with bit k of the
    signature +1 for a push and −1 for a pop, the leftmost maximum of
    [l, r] is the element pushed right after the last minimum of the
    prefix excess over [p_l − 1, p_r − 1], where p_e is the position of
    element e's push (the construction stack restricted to elements
    ≥ l empties exactly at those minima). The scan reads the signature
    a byte at a time through small tables, so an in-block query costs a
    handful of table lookups, and never touches the value oracle or a
    shared lookup table.

    Across blocks, per-block maxima are indexed by a recursive instance
    (so the directory above n/31 blocks costs another factor-31 less),
    falling back to a sparse table once small. The value oracle is
    consulted only to merge the ≤ 3 candidate positions of a query and
    for the recursive levels' block maxima. *)

module S = Pti_storage

let max_block = 31 (* 2·31 − 1 signature bits fit one 63-bit word *)

type top = Sparse of Rmq_sparse.t | Recurse of t

and t = {
  value : int -> float;
  len : int;
  block : int;
  sigs : S.ints; (* per block: push/pop signature, LSB first *)
  masks : S.ints;
      (* per block: final-stack mask (bits 0–30) and prefix-record mask
         reversed, record e at bit 61 − e (bits 31–61) *)
  top : top; (* RMQ over per-block maxima *)
}

(* Push/pop encoding of the max-Cartesian tree of [value base .. value
   (base+len-1)]: strictly smaller stack tops are popped, so equal
   values keep the leftmost element as ancestor, matching the
   leftmost-max rule. Bit k of the signature is the k-th event: 1 =
   push, 0 = pop. Returns the signature and the mask word: bit e set
   for each element e left on the stack, bit 61 − e for each element
   pushed onto an empty stack (a strict prefix maximum). *)
let signature value base len =
  let stack = Array.make (Stdlib.max 1 len) 0.0 in
  let index = Array.make (Stdlib.max 1 len) 0 in
  let sp = ref 0 in
  let bits = ref 0 in
  let nbits = ref 0 in
  let records = ref 0 in
  for i = 0 to len - 1 do
    let v = value (base + i) in
    while !sp > 0 && stack.(!sp - 1) < v do
      decr sp;
      incr nbits (* emit 0 *)
    done;
    if !sp = 0 then records := !records lor (1 lsl (61 - i));
    stack.(!sp) <- v;
    index.(!sp) <- i;
    incr sp;
    bits := !bits lor (1 lsl !nbits);
    incr nbits
  done;
  let on_stack = ref 0 in
  for k = 0 to !sp - 1 do
    on_stack := !on_stack lor (1 lsl index.(k))
  done;
  (!bits, !records lor !on_stack)

(* Index of the lowest set bit of a nonzero [x] < 2^31 (de Bruijn). *)
let ctz_tbl =
  let t = Bytes.make 32 '\000' in
  for i = 0 to 31 do
    Bytes.set t ((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) (Char.chr i)
  done;
  t

let ctz x =
  Char.code
    (Bytes.unsafe_get ctz_tbl ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

let stack_mask m = m land 0x7FFFFFFF

(* Byte tables for the in-block scan. [scan_tbl] holds, for each prefix
   length [len] in 1..8 of a byte [c] of signature bits (LSB first;
   index [((len - 1) lsl 8) lor c]), the minimum prefix excess of those
   bits (+ 8, bits 0–4), the ones up to that minimum's last occurrence
   (bits 5–8) and their ones (bits 9–12); [select_tbl] the position of
   the k-th one of [c] (index [(c lsl 3) lor k]). *)
let scan_tbl =
  Array.init (8 * 256) (fun ix ->
      let len = (ix lsr 8) + 1 and c = ix land 0xff in
      let cur = ref 0 and seen = ref 0 in
      let best = ref max_int and best_ones = ref 0 in
      for i = 0 to len - 1 do
        let bit = (c lsr i) land 1 in
        cur := !cur + (2 * bit) - 1;
        seen := !seen + bit;
        if !cur <= !best then begin
          best := !cur;
          best_ones := !seen
        end
      done;
      (!best + 8) lor (!best_ones lsl 5) lor (!seen lsl 9))

let select_tbl =
  let t = Bytes.make (256 * 8) '\000' in
  for c = 0 to 255 do
    let k = ref 0 in
    for i = 0 to 7 do
      if (c lsr i) land 1 = 1 then begin
        Bytes.set t ((c * 8) + !k) (Char.chr i);
        incr k
      end
    done
  done;
  t

let full_byte c = Array.unsafe_get scan_tbl (0x700 lor c)
let ones_of e = e lsr 9
let min_of e = (e land 31) - 8
let min_ones_of e = (e lsr 5) land 15
let select_in c k = Char.code (Bytes.unsafe_get select_tbl ((c lsl 3) lor k))
let malformed () = invalid_arg "Rmq_block: malformed signature"

(* Position of the k-th (0-based) one bit of a signature [sg] (bits
   0–60), broadword: per-byte popcounts, their prefix sums by one
   multiply, and a lane-parallel comparison with [k] over bytes 0–6
   find the byte holding it (byte 7 when none of them does). *)
let select sg k =
  let x = sg - ((sg lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  let prefix = (x * 0x0101010101010101) land 0x00FFFFFFFFFFFFFF in
  let above =
    ((prefix lor 0x0080808080808080) - ((k + 1) * 0x0001010101010101))
    land 0x0080808080808080
  in
  let byte = 7 - (((above lsr 7) * 0x0001010101010101) lsr 48) land 0xff in
  let before = if byte = 0 then 0 else (prefix lsr ((byte - 1) * 8)) land 0xff in
  (byte * 8) + select_in ((sg lsr (byte * 8)) land 0xff) (k - before)

(* The scan behind [decode]: [s] holds the unread bits, [need] the
   pushes still to pass before r's, [cur] the excess so far, [best] the
   lowest excess seen (last occurrence) and [best_ones] the pushes up
   to it, [seen] the pushes read. *)
let rec scan s need cur best best_ones seen =
  let c = s land 0xff in
  let e = full_byte c in
  let k = ones_of e in
  if k > need then begin
    (* r's push is in this byte: only the bits before it count *)
    let len = select_in c need in
    if len = 0 then best_ones
    else
      let e = Array.unsafe_get scan_tbl (((len - 1) lsl 8) lor c) in
      if cur + min_of e <= best then seen + min_ones_of e else best_ones
  end
  else if s = 0 then malformed ()
  else begin
    let m = cur + min_of e in
    let cur' = cur + (2 * k) - 8 in
    if m <= best then
      scan (s lsr 8) (need - k) cur' m (seen + min_ones_of e) (seen + k)
    else scan (s lsr 8) (need - k) cur' best best_ones (seen + k)
  end

(* Leftmost argmax of in-block range [l, r] (local offsets): scan the
   bits from l's push up to, not including, r's push, with the excess
   relative to just before l's push; the answer is l plus the pushes up
   to the last minimum (the initial 0 counts, so l wins when it is
   never popped). *)
let decode sg ~l ~r =
  if l = r then l
  else l + scan (if l = 0 then sg else sg lsr select sg l) (r - l) 0 0 0 0

let signature_argmax t b ~l ~r = decode (S.Ints.get t.sigs b) ~l ~r
let in_block t b ~l ~r = (b * t.block) + signature_argmax t b ~l ~r

(* Leftmost maxima of block [b] from its masks: of its suffix from
   [l], of its prefix up to [r], of the whole block. *)
let suffix_max t b l =
  (b * t.block) + ctz (stack_mask (S.Ints.get t.masks b) land (-1 lsl l))

let prefix_max t b r =
  (b * t.block) + 30 - ctz ((S.Ints.get t.masks b lsr 31) land (-1 lsl (30 - r)))

let argmax_of ~block masks b = (b * block) + ctz (stack_mask (S.Ints.get masks b))
let block_argmax t b = argmax_of ~block:t.block t.masks b

(* The value oracle of the structure over per-block maxima. *)
let top_value ~value ~block ~masks b = value (argmax_of ~block masks b)

let sparse_cutoff = 2048
let n_blocks ~block ~len = if len = 0 then 0 else (len + block - 1) / block

let rec build_oracle ~block ~value ~len =
  if block < 2 || block > max_block then
    invalid_arg
      (Printf.sprintf "Rmq_block: block size %d not in [2,%d]" block max_block);
  let nblocks = n_blocks ~block ~len in
  let sigs = S.Ints.create nblocks and masks = S.Ints.create nblocks in
  for b = 0 to nblocks - 1 do
    let base = b * block in
    let sg, m = signature value base (Stdlib.min block (len - base)) in
    S.Ints.set sigs b sg;
    S.Ints.set masks b m
  done;
  let top_value = top_value ~value ~block ~masks in
  let top =
    if nblocks <= sparse_cutoff then
      Sparse (Rmq_sparse.build_oracle ~value:top_value ~len:nblocks)
    else Recurse (build_oracle ~block ~value:top_value ~len:nblocks)
  in
  { value; len; block; sigs; masks; top }

let build ?(block = max_block) a =
  let a = Array.copy a in
  build_oracle ~block ~value:(fun i -> a.(i)) ~len:(Array.length a)

let rec with_oracle t ~value =
  let top_value = top_value ~value ~block:t.block ~masks:t.masks in
  let top =
    match t.top with
    | Sparse s -> Sparse { s with Rmq_sparse.value = top_value }
    | Recurse s -> Recurse (with_oracle s ~value:top_value)
  in
  { t with value; top }

let length t = t.len
let rec query t ~l ~r =
  if l < 0 || r >= t.len || l > r then
    invalid_arg
      (Printf.sprintf "Rmq_block.query: [%d,%d] not in [0,%d)" l r t.len);
  let bl = l / t.block and br = r / t.block in
  let lo = l - (bl * t.block) and hi = r - (br * t.block) in
  if l = r then l
  else if bl = br then
    (* the maximum of the block's suffix from l, or of its prefix up to
       r, answers [l, r] when it falls inside it *)
    let s = suffix_max t bl lo in
    if s <= r then s
    else
      let p = prefix_max t bl hi in
      if p >= l then p else in_block t bl ~l:lo ~r:hi
  else begin
    let left = suffix_max t bl lo in
    let right = prefix_max t br hi in
    let pick a b =
      let va = t.value a and vb = t.value b in
      if vb > va then b else if va > vb then a else Stdlib.min a b
    in
    let best = pick left right in
    if br - bl >= 2 then begin
      let mid_block =
        match t.top with
        | Sparse s -> Rmq_sparse.query s ~l:(bl + 1) ~r:(br - 1)
        | Recurse s -> query s ~l:(bl + 1) ~r:(br - 1)
      in
      pick best (block_argmax t mid_block)
    end
    else best
  end

let rec size_words t =
  let top_words =
    match t.top with
    | Sparse s -> Rmq_sparse.size_words s
    | Recurse s -> size_words s
  in
  S.Ints.length t.sigs + S.Ints.length t.masks + top_words + 4

let rec size_bytes t =
  let top_bytes =
    match t.top with
    | Sparse s -> Rmq_sparse.size_bytes s
    | Recurse s -> size_bytes s
  in
  S.Ints.byte_size t.sigs + S.Ints.byte_size t.masks + top_bytes + 32

(* Persistence. [prefix ^ ".kind"] = [kind tag; len] heads every
   persisted RMQ. Tag 3 is this structure; tags 0–2 named the naive
   scan, the sparse table and the Fischer–Heun block structure that
   earlier containers could hold. Under it: ".meta" = [block; top tag],
   ".sig" the signatures, ".msk" the mask words, and the top
   structure under [prefix ^ ".top"]. *)
let kind_tag = 3

let rec save_level w ~prefix t =
  let top_tag = match t.top with Sparse _ -> 0 | Recurse _ -> 1 in
  S.Writer.add_ints w (prefix ^ ".meta") [| t.block; top_tag |];
  S.Writer.add_ints_ba w (prefix ^ ".sig") t.sigs;
  S.Writer.add_ints_ba w (prefix ^ ".msk") t.masks;
  match t.top with
  | Sparse s -> Rmq_sparse.save_parts w ~prefix:(prefix ^ ".top") s
  | Recurse s -> save_level w ~prefix:(prefix ^ ".top") s

let save_parts w ~prefix t =
  S.Writer.add_ints w (prefix ^ ".kind") [| kind_tag; t.len |];
  save_level w ~prefix t

let rec open_level r ~prefix ~value ~len =
  let fail reason = raise (S.Corrupt { section = prefix ^ ".meta"; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 2 then fail "block RMQ meta has wrong arity";
  let block = S.Ints.get meta 0 in
  let top_tag = S.Ints.get meta 1 in
  if block < 2 || block > max_block then fail "block RMQ block size out of range";
  let nblocks = n_blocks ~block ~len in
  let per_block name =
    let a = S.Reader.ints r (prefix ^ name) in
    if S.Ints.length a <> nblocks then
      raise
        (S.Corrupt
           {
             section = prefix ^ name;
             reason =
               Printf.sprintf "block RMQ has %d entries, expected %d for len %d"
                 (S.Ints.length a) nblocks len;
           });
    a
  in
  let sigs = per_block ".sig" and masks = per_block ".msk" in
  let top_value = top_value ~value ~block ~masks in
  let top =
    match top_tag with
    | 0 ->
        Sparse
          (Rmq_sparse.open_parts r ~prefix:(prefix ^ ".top") ~value:top_value
             ~len:nblocks)
    | 1 ->
        Recurse
          (open_level r ~prefix:(prefix ^ ".top") ~value:top_value ~len:nblocks)
    | k -> fail (Printf.sprintf "unknown top structure tag %d" k)
  in
  { value; len; block; sigs; masks; top }

let open_parts r ~prefix ~value =
  let section = prefix ^ ".kind" in
  let fail reason = raise (S.Corrupt { section; reason }) in
  let meta = S.Reader.ints r section in
  if S.Ints.length meta <> 2 then fail "RMQ meta has wrong arity";
  let len = S.Ints.get meta 1 in
  (match S.Ints.get meta 0 with
  | k when k = kind_tag -> ()
  | 0 -> S.retired section "a naive-scan RMQ"
  | 1 -> S.retired section "a sparse-table RMQ"
  | 2 -> S.retired section "a Fischer–Heun RMQ"
  | k -> fail (Printf.sprintf "unknown RMQ kind tag %d" k));
  if len < 0 then fail "negative RMQ length";
  open_level r ~prefix ~value ~len
