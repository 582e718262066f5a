module S = Pti_storage

type t = {
  n : int;
  sigma : int;
  nlevels : int;
  levels : Bitvec.t array; (* levels.(k): bit (nlevels-1-k) of each symbol *)
}

let ceil_log2 v =
  let rec go acc x = if x >= v then acc else go (acc + 1) (2 * x) in
  go 0 1

let nlevels_for sigma = Stdlib.max 1 (ceil_log2 sigma)

let build ~sigma seq =
  if sigma < 1 then invalid_arg "Wavelet.build: sigma < 1";
  Array.iter
    (fun s ->
      if s < 0 || s >= sigma then
        invalid_arg (Printf.sprintf "Wavelet.build: symbol %d not in [0,%d)" s sigma))
    seq;
  let n = Array.length seq in
  let nlevels = nlevels_for sigma in
  (* Levelwise construction: [cur] holds the node-ordered sequence of
     level [k] (stably sorted by the top k bits); each node is a maximal
     run of equal top-k-bit prefixes, stably partitioned by the next bit
     into [next]. Two O(n) scratch arrays, no per-node allocation. *)
  let cur = ref (Array.copy seq) in
  let next = ref (Array.make n 0) in
  let levels =
    Array.init nlevels (fun level ->
        let a = !cur and b = !next in
        let shift = nlevels - 1 - level in
        let bv = Bitvec.create n (fun i -> (a.(i) lsr shift) land 1 = 1) in
        let i = ref 0 in
        while !i < n do
          let node = a.(!i) lsr (shift + 1) in
          let j = ref !i in
          while !j < n && a.(!j) lsr (shift + 1) = node do
            incr j
          done;
          let p = ref !i in
          for k = !i to !j - 1 do
            if (a.(k) lsr shift) land 1 = 0 then begin
              b.(!p) <- a.(k);
              incr p
            end
          done;
          for k = !i to !j - 1 do
            if (a.(k) lsr shift) land 1 = 1 then begin
              b.(!p) <- a.(k);
              incr p
            end
          done;
          i := !j
        done;
        cur := b;
        next := a;
        bv)
  in
  { n; sigma; nlevels; levels }

let length t = t.n
let sigma t = t.sigma

let access t i =
  if i < 0 || i >= t.n then invalid_arg "Wavelet.access: out of range";
  let st = ref 0 and en = ref t.n and p = ref i and sym = ref 0 in
  for level = 0 to t.nlevels - 1 do
    let lvl = t.levels.(level) in
    let ones_node = Bitvec.rank1 lvl !en - Bitvec.rank1 lvl !st in
    let z = !en - !st - ones_node in
    let ones_to_p = Bitvec.rank1 lvl !p - Bitvec.rank1 lvl !st in
    if Bitvec.get lvl !p then begin
      sym := (!sym lsl 1) lor 1;
      p := !st + z + ones_to_p;
      st := !st + z
    end
    else begin
      sym := !sym lsl 1;
      p := !st + (!p - !st - ones_to_p);
      en := !st + z
    end
  done;
  !sym

let rank t ~sym i =
  if i < 0 || i > t.n then invalid_arg "Wavelet.rank: out of range";
  if sym < 0 || sym >= t.sigma then 0
  else begin
    let st = ref 0 and en = ref t.n and p = ref i in
    (try
       for level = 0 to t.nlevels - 1 do
         let lvl = t.levels.(level) in
         let r_st = Bitvec.rank1 lvl !st in
         let ones_node = Bitvec.rank1 lvl !en - r_st in
         let z = !en - !st - ones_node in
         let ones_to_p = Bitvec.rank1 lvl !p - r_st in
         if (sym lsr (t.nlevels - 1 - level)) land 1 = 1 then begin
           p := !st + z + ones_to_p;
           st := !st + z
         end
         else begin
           p := !st + (!p - !st - ones_to_p);
           en := !st + z
         end;
         if !st >= !en then raise Exit
       done
     with Exit -> ());
    !p - !st
  end

(* Fused two-position rank: both positions descend the same symbol
   path, so the node boundaries (and their ranks) are computed once —
   4 bit-vector ranks per level instead of the 6 two [rank] calls
   would spend. This is the FM backward-search hot path, which ranks
   the same symbol at both ends of the current range every step. *)
let rank2 t ~sym i j =
  if i < 0 || i > t.n || j < 0 || j > t.n then
    invalid_arg "Wavelet.rank2: out of range";
  if sym < 0 || sym >= t.sigma then (0, 0)
  else begin
    let st = ref 0 and en = ref t.n and pi = ref i and pj = ref j in
    (try
       for level = 0 to t.nlevels - 1 do
         let lvl = t.levels.(level) in
         let r_st = Bitvec.rank1 lvl !st in
         let ones_node = Bitvec.rank1 lvl !en - r_st in
         let z = !en - !st - ones_node in
         let ones_i = Bitvec.rank1 lvl !pi - r_st in
         let ones_j = Bitvec.rank1 lvl !pj - r_st in
         if (sym lsr (t.nlevels - 1 - level)) land 1 = 1 then begin
           pi := !st + z + ones_i;
           pj := !st + z + ones_j;
           st := !st + z
         end
         else begin
           pi := !st + (!pi - !st - ones_i);
           pj := !st + (!pj - !st - ones_j);
           en := !st + z
         end;
         if !st >= !en then raise Exit
       done
     with Exit -> ());
    (!pi - !st, !pj - !st)
  end

let count t ~sym = rank t ~sym t.n

let select t ~sym k =
  if k < 1 then invalid_arg "Wavelet.select: k < 1";
  if sym < 0 || sym >= t.sigma || count t ~sym < k then
    invalid_arg "Wavelet.select: not enough occurrences";
  (* descend recording each level's node start and branch bit *)
  let path = Array.make t.nlevels (0, false) in
  let st = ref 0 and en = ref t.n in
  for level = 0 to t.nlevels - 1 do
    let lvl = t.levels.(level) in
    let ones_node = Bitvec.rank1 lvl !en - Bitvec.rank1 lvl !st in
    let z = !en - !st - ones_node in
    let bit = (sym lsr (t.nlevels - 1 - level)) land 1 = 1 in
    path.(level) <- (!st, bit);
    if bit then st := !st + z else en := !st + z
  done;
  (* ascend: convert the (k-1)-th leaf offset into parent offsets *)
  let off = ref (k - 1) in
  for level = t.nlevels - 1 downto 0 do
    let lvl = t.levels.(level) in
    let node_st, bit = path.(level) in
    let abs =
      if bit then Bitvec.select1 lvl (Bitvec.rank1 lvl node_st + !off + 1)
      else Bitvec.select0 lvl (Bitvec.rank0 lvl node_st + !off + 1)
    in
    off := abs - node_st
  done;
  !off

let size_words t =
  Array.fold_left (fun acc b -> acc + Bitvec.size_words b) 4 t.levels

let size_bytes t =
  Array.fold_left (fun acc b -> acc + Bitvec.size_bytes b) 32 t.levels

(* Sections under [prefix]: ".meta" = [n; sigma], one bit vector per
   level under ".l<k>" (level bit vectors all have length n; the level
   count is a pure function of sigma). *)
let save_parts w ~prefix t =
  S.Writer.add_ints w (prefix ^ ".meta") [| t.n; t.sigma |];
  Array.iteri
    (fun k bv ->
      Bitvec.save_parts w ~prefix:(Printf.sprintf "%s.l%d" prefix k) bv)
    t.levels

let open_parts r ~prefix =
  let fail reason = raise (S.Corrupt { section = prefix ^ ".meta"; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 2 then fail "wavelet meta has wrong arity";
  let n = S.Ints.get meta 0 and sigma = S.Ints.get meta 1 in
  if n < 0 || sigma < 1 then fail "wavelet meta out of range";
  let nlevels = nlevels_for sigma in
  let levels =
    Array.init nlevels (fun k ->
        let bv =
          Bitvec.open_parts r ~prefix:(Printf.sprintf "%s.l%d" prefix k)
        in
        if Bitvec.length bv <> n then
          fail (Printf.sprintf "level %d has %d bits, expected %d" k
                  (Bitvec.length bv) n);
        bv)
  in
  { n; sigma; nlevels; levels }
