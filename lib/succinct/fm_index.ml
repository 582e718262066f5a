(* The BWT is taken over text·$ where $ = 0 is the unique smallest
   sentinel; the suffix array with the sentinel is the plain suffix
   array shifted by one slot (the sentinel suffix sorts first and the
   relative order of real suffixes is unchanged), so ranges convert by
   subtracting 1. *)

module S = Pti_storage

type t = {
  n : int; (* length of the original text *)
  wt : Wavelet.t; (* wavelet tree of the BWT (length n + 1) *)
  c : S.ints; (* c.(s) = number of BWT symbols < s *)
}

let create ?sa text =
  let n = Array.length text in
  Array.iter
    (fun s -> if s < 1 then invalid_arg "Fm_index.create: symbol < 1")
    text;
  let sa = match sa with Some sa -> sa | None -> Pti_suffix.Sais.suffix_array text in
  if Array.length sa <> n then invalid_arg "Fm_index.create: bad suffix array";
  let maxc = Array.fold_left Stdlib.max 0 text in
  (* bwt.(0) corresponds to the sentinel suffix (text position n): its
     predecessor is text.(n-1); bwt.(i+1) = predecessor of suffix sa.(i),
     the sentinel 0 when sa.(i) = 0. *)
  let bwt = Array.make (n + 1) 0 in
  if n > 0 then bwt.(0) <- text.(n - 1);
  for i = 0 to n - 1 do
    bwt.(i + 1) <- (if sa.(i) = 0 then 0 else text.(sa.(i) - 1))
  done;
  let counts = Array.make (maxc + 2) 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) bwt;
  let c = Array.make (maxc + 2) 0 in
  for s = 1 to maxc + 1 do
    c.(s) <- c.(s - 1) + counts.(s - 1)
  done;
  { n; wt = Wavelet.build ~sigma:(maxc + 1) bwt; c = S.Ints.of_array c }

let length t = t.n

let range t ~pattern =
  let m = Array.length pattern in
  if t.n = 0 then None
  else if m = 0 then Some (0, t.n - 1)
  else begin
    (* backward search over the sentinel-inclusive coordinate space
       [0, n]; start from the last pattern symbol *)
    let rec go k sp ep =
      if sp > ep || k < 0 then (sp, ep)
      else begin
        let s = pattern.(k) in
        if s >= Wavelet.sigma t.wt || s < 1 then (1, 0)
        else begin
          let cs = S.Ints.get t.c s in
          let r_sp, r_ep = Wavelet.rank2 t.wt ~sym:s sp (ep + 1) in
          go (k - 1) (cs + r_sp) (cs + r_ep - 1)
        end
      end
    in
    let sp, ep = go (m - 1) 0 t.n in
    if sp > ep then None
    else
      (* drop the sentinel coordinate: plain-SA slot = slot - 1 (the
         sentinel suffix occupies slot 0 and never matches a pattern) *)
      Some (sp - 1, ep - 1)
  end

let count t ~pattern =
  match range t ~pattern with None -> 0 | Some (sp, ep) -> ep - sp + 1

let size_words t = Wavelet.size_words t.wt + S.Ints.length t.c + 2
let size_bytes t = Wavelet.size_bytes t.wt + S.Ints.byte_size t.c + 16

(* {2 Persistence} *)

(* Sections under [prefix]: ".meta" = [n], ".c" the cumulative symbol
   counts, and the BWT wavelet tree under [prefix ^ ".wt"]. *)
let save_parts w ~prefix t =
  S.Writer.add_ints w (prefix ^ ".meta") [| t.n |];
  S.Writer.add_ints_ba w (prefix ^ ".c") t.c;
  Wavelet.save_parts w ~prefix:(prefix ^ ".wt") t.wt

let open_parts r ~prefix =
  let fail section reason = raise (S.Corrupt { section; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 1 then
    fail (prefix ^ ".meta") "FM meta has wrong arity";
  let n = S.Ints.get meta 0 in
  if n < 0 then fail (prefix ^ ".meta") "negative FM length";
  let c = S.Reader.ints r (prefix ^ ".c") in
  let wt = Wavelet.open_parts r ~prefix:(prefix ^ ".wt") in
  if Wavelet.length wt <> n + 1 then
    fail (prefix ^ ".wt.meta")
      (Printf.sprintf "BWT wavelet tree has %d symbols, expected %d"
         (Wavelet.length wt) (n + 1));
  if S.Ints.length c < 2 then fail (prefix ^ ".c") "C array too short";
  { n; wt; c }
