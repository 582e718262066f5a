module S = Pti_storage

let bits_per_word = 63

(* Both arrays are storage views: heap-backed right after [create], a
   mapped container section after [open_parts] — rank/select run
   directly against the file with no rebuild at open. *)
type t = {
  len : int;
  words : S.ints; (* 63 bits per entry *)
  cum : S.ints; (* cum.(w) = number of set bits in words 0 .. w-1 *)
}

(* Constant-time SWAR popcount, per 32-bit half because the 64-bit masks
   do not fit OCaml's 63-bit immediates. On the rank hot path. *)
let popcount x =
  let pc32 v =
    let v = v - ((v lsr 1) land 0x55555555) in
    let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
    let v = (v + (v lsr 4)) land 0x0F0F0F0F in
    (* no 32-bit truncation in OCaml: mask the byte-sum (≤ 32) *)
    ((v * 0x01010101) lsr 24) land 0x3F
  in
  pc32 (x land 0xFFFFFFFF) + pc32 ((x lsr 32) land 0x7FFFFFFF)

let nwords_for len = Stdlib.max 1 ((len + bits_per_word - 1) / bits_per_word)

let create len f =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  let words = Array.make (nwords_for len) 0 in
  for i = 0 to len - 1 do
    if f i then begin
      let w = i / bits_per_word and b = i mod bits_per_word in
      words.(w) <- words.(w) lor (1 lsl b)
    end
  done;
  let cum = Array.make (Array.length words + 1) 0 in
  Array.iteri (fun w x -> cum.(w + 1) <- cum.(w) + popcount x) words;
  { len; words = S.Ints.of_array words; cum = S.Ints.of_array cum }

let of_bools a = create (Array.length a) (fun i -> a.(i))

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get: out of range";
  (S.Ints.unsafe_get t.words (i / bits_per_word) lsr (i mod bits_per_word))
  land 1
  = 1

let rank1 t i =
  if i < 0 || i > t.len then invalid_arg "Bitvec.rank1: out of range";
  let w = i / bits_per_word and b = i mod bits_per_word in
  let partial =
    if b = 0 then 0
    else popcount (S.Ints.unsafe_get t.words w land ((1 lsl b) - 1))
  in
  S.Ints.unsafe_get t.cum w + partial

let rank0 t i = i - rank1 t i
let count1 t = rank1 t t.len

(* Smallest i with rank (i+1) = k, by binary search over the cumulative
   word ranks then a word scan. [rank_word w] must be the number of
   qualifying bits strictly before word w. *)
let select_gen t k qualifying rank_before =
  if k < 1 then invalid_arg "Bitvec.select: k < 1";
  let nwords = S.Ints.length t.words in
  (* binary search for the word containing the k-th qualifying bit *)
  let lo = ref 0 and hi = ref nwords in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if rank_before (mid + 1) < k then lo := mid + 1 else hi := mid
  done;
  let w = !lo in
  if w >= nwords then invalid_arg "Bitvec.select: not enough bits";
  let need = k - rank_before w in
  let seen = ref 0 in
  let res = ref (-1) in
  let base = w * bits_per_word in
  let limit = Stdlib.min bits_per_word (t.len - base) in
  let word = S.Ints.unsafe_get t.words w in
  (try
     for b = 0 to limit - 1 do
       if qualifying ((word lsr b) land 1 = 1) then begin
         incr seen;
         if !seen = need then begin
           res := base + b;
           raise Exit
         end
       end
     done
   with Exit -> ());
  if !res < 0 then invalid_arg "Bitvec.select: not enough bits";
  !res

let select1 t k =
  select_gen t k (fun bit -> bit) (fun w -> S.Ints.unsafe_get t.cum w)

let select0 t k =
  (* clamp to [len]: padding bits of the final word are not zeros *)
  select_gen t k
    (fun bit -> not bit)
    (fun w -> Stdlib.min (w * bits_per_word) t.len - S.Ints.unsafe_get t.cum w)

let size_words t = S.Ints.length t.words + S.Ints.length t.cum + 2
let size_bytes t = S.Ints.byte_size t.words + S.Ints.byte_size t.cum + 16

(* Sections under [prefix]: ".meta" = [len], ".words" the packed bits
   (63 per stored word), ".cum" the per-word rank directory. *)
let save_parts w ~prefix t =
  S.Writer.add_ints w (prefix ^ ".meta") [| t.len |];
  S.Writer.add_ints_ba w (prefix ^ ".words") t.words;
  S.Writer.add_ints_ba w (prefix ^ ".cum") t.cum

let open_parts r ~prefix =
  let fail section reason = raise (S.Corrupt { section; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 1 then
    fail (prefix ^ ".meta") "bitvec meta has wrong arity";
  let len = S.Ints.get meta 0 in
  if len < 0 then fail (prefix ^ ".meta") "negative bitvec length";
  let words = S.Reader.ints r (prefix ^ ".words") in
  let cum = S.Reader.ints r (prefix ^ ".cum") in
  if S.Ints.length words <> nwords_for len then
    fail (prefix ^ ".words")
      (Printf.sprintf "bitvec has %d words, expected %d for %d bits"
         (S.Ints.length words) (nwords_for len) len);
  if S.Ints.length cum <> S.Ints.length words + 1 then
    fail (prefix ^ ".cum") "bitvec rank directory length mismatch";
  { len; words; cum }
