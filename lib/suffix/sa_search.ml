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

module Make (Text : ARR) (Sa : ARR) = struct
  (* One boundary search, allocation-free: every probe compares the
     pattern with the suffix at [Sa.get sa mid], resuming at symbol
     min(llcp, rlcp), in a loop over local refs (no closure, no result
     tuple), and leaves the symbols matched — a lower bound on
     lcp(pattern, suffix) — in [h].

     Manber–Myers accelerated binary search: [llcp] ([rlcp]) lower-bounds
     the lcp of the pattern with the suffix just outside the left (right)
     end of the live range. Any suffix inside the range sits between the
     two fences lexicographically, so its lcp with the pattern is at
     least min(llcp, rlcp) and the comparison can resume there. On a
     text with long repeats this drops the per-probe cost from O(m) to
     O(fresh symbols), O(m + log n) total per boundary in practice. *)
  let search_boundary ~text ~sa ~pattern ~from ~stop_le =
    let n = Sa.length sa
    and tn = Text.length text
    and m = Array.length pattern in
    let l = ref from and r = ref n and llcp = ref 0 and rlcp = ref 0 in
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

  (* Whether the suffix at [pos] starts with [pattern]. *)
  let prefixed ~text ~pattern pos =
    let tn = Text.length text and m = Array.length pattern in
    let i = ref 0 in
    while !i < m && pos + !i < tn && Text.get text (pos + !i) = pattern.(!i) do
      incr i
    done;
    !i = m

  let range ~text ~sa ~pattern =
    let n = Sa.length sa in
    if n = 0 then None
    else if Array.length pattern = 0 then Some (0, n - 1)
    else begin
      (* lo = first suffix >= pattern; hi = first suffix > every
         pattern-prefixed suffix *)
      let lo = search_boundary ~text ~sa ~pattern ~from:0 ~stop_le:false in
      let hi = search_boundary ~text ~sa ~pattern ~from:lo ~stop_le:true in
      if lo < hi && prefixed ~text ~pattern (Sa.get sa lo) then Some (lo, hi - 1)
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
