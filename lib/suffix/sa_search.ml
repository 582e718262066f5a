(* Compare [pattern] against the suffix starting at [pos]:
   -1 / 0 / +1 as the suffix is lexicographically smaller than / prefixed
   by / greater than the pattern. *)
let compare_suffix ~text ~pattern pos =
  let n = Array.length text and m = Array.length pattern in
  let rec go off =
    if off = m then 0
    else if pos + off >= n then -1 (* suffix ended: smaller than pattern *)
    else begin
      let c = compare text.(pos + off) pattern.(off) in
      if c <> 0 then c else go (off + 1)
    end
  in
  go 0

let range_naive ~text ~sa ~pattern =
  let n = Array.length sa in
  if n = 0 then None
  else if Array.length pattern = 0 then Some (0, n - 1)
  else begin
    (* lo = first suffix >= pattern (i.e. not smaller), scanning for the
       first position where compare >= 0 *)
    let lo =
      let l = ref 0 and r = ref n in
      while !l < !r do
        let mid = (!l + !r) / 2 in
        if compare_suffix ~text ~pattern sa.(mid) < 0 then l := mid + 1
        else r := mid
      done;
      !l
    in
    (* hi = first suffix strictly greater than every pattern-prefixed
       suffix: first position with compare > 0 *)
    let hi =
      let l = ref lo and r = ref n in
      while !l < !r do
        let mid = (!l + !r) / 2 in
        if compare_suffix ~text ~pattern sa.(mid) <= 0 then l := mid + 1
        else r := mid
      done;
      !l
    in
    if lo >= hi then None
    else if compare_suffix ~text ~pattern sa.(lo) = 0 then Some (lo, hi - 1)
    else None
  end

module type ARR = sig
  type t

  val length : t -> int
  val get : t -> int -> int
end

(* The q-gram bucket table. Every symbol that occurs in the text gets a
   digit 1..used in symbol order, and "the text ended" is digit 0, so
   the q symbols at a text position, padded with 0s past the end, read
   as a base-(used + 1) number — the position's cell — and cells order
   suffixes the way the suffix array does. [start.(c)] is the first
   suffix-array slot whose cell is >= c: the suffixes of cell c fill
   slots [start.(c), start.(c + 1)). Derived from the text alone, by
   counting cells and summing the counts, since the suffix array is
   sorted. *)
module Qgram = struct
  type t = {
    q : int;
    base : int;
    rank : int array; (* symbol -> digit; 0 when absent from the text *)
    pow : int array; (* pow.(j) = base^j, j = 0..q *)
    start : int array; (* cells + 1 slots; start.(cells) = n *)
    nonempty : int;
  }

  let q t = t.q
  let cells t = Array.length t.start - 1
  let nonempty t = t.nonempty
  let size_words t =
    Array.length t.rank + Array.length t.pow + Array.length t.start

  (* Symbols the dense remap covers; a text with a symbol outside
     [0, max_symbol] keeps one bucket (q = 0). *)
  let max_symbol = 1 lsl 16

  (* The largest q with base^q <= n / 8: about eight suffixes per cell,
     so the table stays an eighth of the suffix array. *)
  let choose_q ~n ~base =
    if base < 2 then 0
    else begin
      let rec go q cells =
        if cells * base <= n / 8 then go (q + 1) (cells * base) else q
      in
      go 0 1
    end

  let create ~n ~get =
    (* the symbols in use, marked in one pass *)
    let seen = Bytes.make (max_symbol + 1) '\000' in
    let hi = ref 0 and ok = ref true in
    for i = 0 to n - 1 do
      let s = get i in
      if s < 0 || s > max_symbol then ok := false
      else begin
        Bytes.unsafe_set seen s '\001';
        if s > !hi then hi := s
      end
    done;
    let rank =
      if not !ok then [||]
      else begin
        let used = ref 0 in
        Array.init (!hi + 1) (fun s ->
            if Bytes.get seen s = '\000' then 0
            else begin
              incr used;
              !used
            end)
      end
    in
    let base = 1 + Array.fold_left Stdlib.max 0 rank in
    let q = if Array.length rank = 0 then 0 else choose_q ~n ~base in
    let pow = Array.make (q + 1) 1 in
    for j = 1 to q do
      pow.(j) <- pow.(j - 1) * base
    done;
    let cells = pow.(q) in
    (* start.(c + 1) counts the suffixes of cell c, then prefix sums *)
    let start = Array.make (cells + 1) 0 in
    if q = 0 then start.(1) <- n
    else begin
      let digit pos = if pos < n then rank.(get pos) else 0 in
      (* [ring] holds the digits of the current cell, oldest at [k] *)
      let ring = Array.init q digit in
      let top = pow.(q - 1) and c = ref 0 and k = ref 0 in
      Array.iter (fun d -> c := (!c * base) + d) ring;
      (* cell(pos + 1) = (cell(pos) - digit(pos) * base^(q-1)) * base
         + digit(pos + q) *)
      for pos = 0 to n - 1 do
        start.(!c + 1) <- start.(!c + 1) + 1;
        let d = digit (pos + q) in
        c := ((!c - (ring.(!k) * top)) * base) + d;
        ring.(!k) <- d;
        k := if !k + 1 = q then 0 else !k + 1
      done
    end;
    let nonempty = ref 0 in
    for c = 1 to cells do
      if start.(c) > 0 then incr nonempty;
      start.(c) <- start.(c) + start.(c - 1)
    done;
    { q; base; rank; pow; start; nonempty = !nonempty }

  let describe t =
    Printf.sprintf "q=%d cells=%d nonempty=%d" t.q (cells t) t.nonempty
end

module type S = sig
  type text
  type sa

  val range : text:text -> sa:sa -> pattern:int array -> (int * int) option
  val qgram : text -> Qgram.t

  val range_in :
    Qgram.t -> text:text -> sa:sa -> pattern:int array -> (int * int) option

  val range_two_search :
    text:text -> sa:sa -> pattern:int array -> (int * int) option

  val count : text:text -> sa:sa -> pattern:int array -> int
end

module Make (Text : ARR) (Sa : ARR) = struct
  type text = Text.t
  type sa = Sa.t

  (* One boundary search over slots [l0, r0), allocation-free: every
     probe compares the pattern with the suffix at [Sa.get sa mid],
     resuming at symbol min(llcp, rlcp), in a loop over local refs (no
     closure, no result tuple). Returns the first slot whose suffix is
     not smaller than the pattern ([stop_le = false]) or greater than
     every pattern-prefixed suffix ([stop_le = true]); [r0] if none.

     Manber–Myers accelerated binary search: [llcp] ([rlcp]) lower-bounds
     the lcp of the pattern with the suffix just outside the left (right)
     end of the live range. Any suffix inside the range sits between the
     two fences lexicographically, so its lcp with the pattern is at
     least min(llcp, rlcp) and the comparison can resume there. Every
     suffix in [l0, r0) shares the pattern's first [lcp0] symbols (a
     q-gram bucket), so both bounds start there. On a text with long
     repeats this drops the per-probe cost from O(m) to O(fresh
     symbols), O(m + log n) total per boundary in practice. *)
  let search_boundary ~text ~sa ~pattern ~l0 ~r0 ~lcp0 ~stop_le =
    let tn = Text.length text and m = Array.length pattern in
    let l = ref l0 and r = ref r0 and llcp = ref lcp0 and rlcp = ref lcp0 in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      let pos = Sa.get sa mid in
      (* c: -1 / 0 / +1 as the suffix is smaller than / prefixed by /
         greater than the pattern *)
      let h = ref (Stdlib.min !llcp !rlcp) and c = ref 2 in
      while !c = 2 do
        if !h = m then c := 0
        else if pos + !h >= tn then c := -1
        else begin
          let a = Text.get text (pos + !h) and b = pattern.(!h) in
          if a < b then c := -1 else if a > b then c := 1 else incr h
        end
      done;
      if !c < 0 || (stop_le && !c = 0) then begin
        l := mid + 1;
        llcp := !h
      end
      else begin
        r := mid;
        rlcp := !h
      end
    done;
    !l

  (* Whether the suffix at [pos], known to share the pattern's first
     [from] symbols, starts with [pattern]. *)
  let prefixed ~text ~pattern ~from pos =
    let tn = Text.length text and m = Array.length pattern in
    let i = ref from in
    while !i < m && pos + !i < tn && Text.get text (pos + !i) = pattern.(!i) do
      incr i
    done;
    !i = m

  (* The suffix range of a non-empty pattern inside slots [b0, b1),
     whose suffixes all share the pattern's first [lcp0] symbols. The
     lower boundary comes first: every occurrence would start there, so
     a suffix at [lo] that does not start with the pattern means none
     does. The upper boundary is then galloped to from [lo], in
     O(log range) probes. *)
  let search_in ~text ~sa ~pattern ~b0 ~b1 ~lcp0 =
    let lo =
      search_boundary ~text ~sa ~pattern ~l0:b0 ~r0:b1 ~lcp0 ~stop_le:false
    in
    if lo = b1 || not (prefixed ~text ~pattern ~from:lcp0 (Sa.get sa lo)) then
      None
    else begin
      (* [a] is the last slot known to be prefixed; [b] = lo + 2^k *)
      let a = ref lo and b = ref (lo + 1) in
      while !b < b1 && prefixed ~text ~pattern ~from:lcp0 (Sa.get sa !b) do
        a := !b;
        b := lo + (2 * (!b - lo))
      done;
      let hi =
        search_boundary ~text ~sa ~pattern ~l0:(!a + 1)
          ~r0:(Stdlib.min !b b1) ~lcp0 ~stop_le:true
      in
      Some (lo, hi - 1)
    end

  let range ~text ~sa ~pattern =
    let n = Sa.length sa in
    if n = 0 then None
    else if Array.length pattern = 0 then Some (0, n - 1)
    else search_in ~text ~sa ~pattern ~b0:0 ~b1:n ~lcp0:0

  let qgram text = Qgram.create ~n:(Text.length text) ~get:(Text.get text)

  (* The pattern's first min(m, q) symbols pick a run of cells: one cell
     when m >= q, all cells that extend the pattern when m < q. A symbol
     absent from the text has no digit, so no suffix can match. *)
  let range_in (tb : Qgram.t) ~text ~sa ~pattern =
    let n = Sa.length sa and m = Array.length pattern in
    if n = 0 then None
    else if m = 0 then Some (0, n - 1)
    else begin
      let k = Stdlib.min m tb.q and nr = Array.length tb.rank in
      let c = ref 0 and i = ref 0 in
      while !i < k do
        let s = pattern.(!i) in
        let d = if s >= 0 && s < nr then tb.rank.(s) else 0 in
        if d = 0 then begin
          c := -1;
          i := k
        end
        else begin
          c := (!c * tb.base) + d;
          incr i
        end
      done;
      if !c < 0 then None
      else begin
        let span = tb.pow.(tb.q - k) in
        let b0 = tb.start.(!c * span) and b1 = tb.start.((!c + 1) * span) in
        if b0 = b1 then None
        else if m <= tb.q then Some (b0, b1 - 1)
        else search_in ~text ~sa ~pattern ~b0 ~b1 ~lcp0:tb.q
      end
    end

  (* Two full binary searches, then the occurrence check: the order the
     search had before, kept as [bench abl_range]'s baseline. *)
  let range_two_search ~text ~sa ~pattern =
    let n = Sa.length sa in
    if n = 0 then None
    else if Array.length pattern = 0 then Some (0, n - 1)
    else begin
      let lo =
        search_boundary ~text ~sa ~pattern ~l0:0 ~r0:n ~lcp0:0 ~stop_le:false
      in
      let hi =
        search_boundary ~text ~sa ~pattern ~l0:lo ~r0:n ~lcp0:0 ~stop_le:true
      in
      if lo < hi && prefixed ~text ~pattern ~from:0 (Sa.get sa lo) then
        Some (lo, hi - 1)
      else None
    end

  let count ~text ~sa ~pattern =
    match range ~text ~sa ~pattern with
    | None -> 0
    | Some (sp, ep) -> ep - sp + 1
end

module Heap_arr = struct
  type t = int array

  let length = Array.length
  let get a i = a.(i)
end

module Ba_arr = struct
  type t = Pti_storage.ints

  let length = Pti_storage.Ints.length
  let get = Pti_storage.Ints.get
end

module Heap = Make (Heap_arr) (Heap_arr)
module Ba = Make (Ba_arr) (Ba_arr)

let range = Heap.range
let count = Heap.count
