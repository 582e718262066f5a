(* Tests for Pti_succinct: bit vector rank/select, wavelet tree, and the
   FM-index (which must agree with suffix-array binary search on every
   pattern) — both heap-built and reopened as zero-copy views of a
   PTI-ENGINE-4 container, where bit flips and truncation must surface
   as typed [Corrupt] errors naming the damaged section. *)

module S = Pti_storage
module Bv = Pti_succinct.Bitvec
module Wt = Pti_succinct.Wavelet
module Fm = Pti_succinct.Fm_index
module Sais = Pti_suffix.Sais
module Sa_search = Pti_suffix.Sa_search
module H = Pti_test_helpers

let with_tmp f =
  let path = Filename.temp_file "pti_succinct_test" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let flip_bit path off =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  write_file path (Bytes.to_string b)

let corrupt_section f =
  try
    ignore (f ());
    None
  with S.Corrupt { section; _ } -> Some section

let test_bitvec_exhaustive () =
  let rng = H.rng_of_seed 111 in
  for _ = 1 to 100 do
    let n = Random.State.int rng 300 in
    let bools = Array.init n (fun _ -> Random.State.bool rng) in
    let bv = Bv.of_bools bools in
    Alcotest.(check int) "length" n (Bv.length bv);
    let r1 = ref 0 in
    for i = 0 to n do
      Alcotest.(check int) "rank1" !r1 (Bv.rank1 bv i);
      Alcotest.(check int) "rank0" (i - !r1) (Bv.rank0 bv i);
      if i < n then begin
        Alcotest.(check bool) "get" bools.(i) (Bv.get bv i);
        if bools.(i) then incr r1
      end
    done;
    Alcotest.(check int) "count1" !r1 (Bv.count1 bv);
    let ones = ref 0 and zeros = ref 0 in
    Array.iteri
      (fun i b ->
        if b then begin
          incr ones;
          Alcotest.(check int) "select1" i (Bv.select1 bv !ones)
        end
        else begin
          incr zeros;
          Alcotest.(check int) "select0" i (Bv.select0 bv !zeros)
        end)
      bools
  done

let test_bitvec_edges () =
  let bv = Bv.of_bools [||] in
  Alcotest.(check int) "empty rank" 0 (Bv.rank1 bv 0);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "select on empty" true (raises (fun () -> ignore (Bv.select1 bv 1)));
  let all1 = Bv.create 130 (fun _ -> true) in
  Alcotest.(check int) "all ones rank" 130 (Bv.rank1 all1 130);
  Alcotest.(check int) "all ones select" 129 (Bv.select1 all1 130);
  Alcotest.(check bool) "select0 none" true (raises (fun () -> ignore (Bv.select0 all1 1)));
  (* word-boundary sizes *)
  List.iter
    (fun n ->
      let bv = Bv.create n (fun i -> i mod 2 = 0) in
      Alcotest.(check int) "alternating rank" ((n + 1) / 2) (Bv.rank1 bv n))
    [ 62; 63; 64; 126; 127 ]

let test_wavelet_matches_naive () =
  let rng = H.rng_of_seed 112 in
  for _ = 1 to 60 do
    let n = Random.State.int rng 150 in
    let sigma = 1 + Random.State.int rng 50 in
    let seq = Array.init n (fun _ -> Random.State.int rng sigma) in
    let wt = Wt.build ~sigma seq in
    Alcotest.(check int) "length" n (Wt.length wt);
    for i = 0 to n - 1 do
      Alcotest.(check int) "access" seq.(i) (Wt.access wt i)
    done;
    for sym = 0 to sigma - 1 do
      let cnt = ref 0 in
      for i = 0 to n do
        Alcotest.(check int) "rank" !cnt (Wt.rank wt ~sym i);
        if i < n && seq.(i) = sym then begin
          incr cnt;
          Alcotest.(check int) "select" i (Wt.select wt ~sym !cnt)
        end
      done;
      Alcotest.(check int) "count" !cnt (Wt.count wt ~sym)
    done
  done

let test_wavelet_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "symbol out of range" true
    (raises (fun () -> ignore (Wt.build ~sigma:4 [| 0; 4 |])));
  Alcotest.(check bool) "select too many" true
    (raises (fun () -> ignore (Wt.select (Wt.build ~sigma:2 [| 0; 1 |]) ~sym:0 2)))

let test_fm_matches_binary_search () =
  let rng = H.rng_of_seed 113 in
  for _ = 1 to 150 do
    let n = 1 + Random.State.int rng 120 in
    let k = 1 + Random.State.int rng 5 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng k) in
    let sa = Sais.suffix_array text in
    let fm = Fm.create ~sa text in
    Alcotest.(check int) "length" n (Fm.length fm);
    for _ = 1 to 25 do
      let m = 1 + Random.State.int rng 8 in
      (* include symbols slightly outside the alphabet *)
      let pat = Array.init m (fun _ -> 1 + Random.State.int rng (k + 1)) in
      Alcotest.(check bool) "range agrees" true
        (Fm.range fm ~pattern:pat = Sa_search.range ~text ~sa ~pattern:pat);
      Alcotest.(check int) "count agrees"
        (Sa_search.count ~text ~sa ~pattern:pat)
        (Fm.count fm ~pattern:pat)
    done;
    Alcotest.(check bool) "empty pattern" true
      (Fm.range fm ~pattern:[||] = Some (0, n - 1))
  done

let test_fm_without_sa () =
  let text = Array.map Char.code (Array.init 11 (String.get "abracadabra")) in
  let fm = Fm.create text in
  Alcotest.(check int) "abra twice" 2 (Fm.count fm ~pattern:(Array.map Char.code [| 'a'; 'b'; 'r'; 'a' |]))

(* The engine produces identical answers with either range-search
   backend (also covered by the config cross-product in test_core). *)
let test_fm_in_engine () =
  let rng = H.rng_of_seed 114 in
  for _ = 1 to 40 do
    let u = H.random_ustring rng (5 + Random.State.int rng 30) 4 3 in
    let binary = Pti_core.General_index.build ~tau_min:0.1 u in
    let fm =
      Pti_core.General_index.build
        ~backend:Pti_core.Engine.Succinct ~tau_min:0.1 u
    in
    let pat = H.random_pattern rng u 8 in
    let tau = 0.1 +. Random.State.float rng 0.6 in
    Alcotest.(check (list int)) "fm = binary"
      (H.sorted_fst (Pti_core.General_index.query binary ~pattern:pat ~tau))
      (H.sorted_fst (Pti_core.General_index.query fm ~pattern:pat ~tau))
  done

let test_wavelet_rank2 () =
  let rng = H.rng_of_seed 115 in
  for _ = 1 to 40 do
    let n = Random.State.int rng 200 in
    let sigma = 1 + Random.State.int rng 60 in
    let seq = Array.init n (fun _ -> Random.State.int rng sigma) in
    let wt = Wt.build ~sigma seq in
    for _ = 1 to 50 do
      let sym = Random.State.int rng (sigma + 1) (* may be out of range *) in
      let i = Random.State.int rng (n + 1) in
      let j = Random.State.int rng (n + 1) in
      Alcotest.(check (pair int int))
        "rank2 = (rank, rank)"
        (Wt.rank wt ~sym i, Wt.rank wt ~sym j)
        (Wt.rank2 wt ~sym i j)
    done
  done

(* Alphabet extremes: a 1-symbol tree still has one level (all-zero
   bits), and a full-byte alphabet exercises all 8 levels. *)
let test_wavelet_alphabet_extremes () =
  let n = 97 in
  let wt1 = Wt.build ~sigma:1 (Array.make n 0) in
  for i = 0 to n do
    Alcotest.(check int) "sigma=1 rank" i (Wt.rank wt1 ~sym:0 i);
    if i < n then Alcotest.(check int) "sigma=1 access" 0 (Wt.access wt1 i)
  done;
  Alcotest.(check int) "sigma=1 select" 42 (Wt.select wt1 ~sym:0 43);
  let rng = H.rng_of_seed 116 in
  let seq =
    Array.init 500 (fun i ->
        (* force both alphabet edges to be present *)
        if i = 0 then 0 else if i = 1 then 255 else Random.State.int rng 256)
  in
  let wt = Wt.build ~sigma:256 seq in
  let counts = Array.make 256 0 in
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "sigma=256 access" s (Wt.access wt i);
      counts.(s) <- counts.(s) + 1)
    seq;
  for sym = 0 to 255 do
    Alcotest.(check int) "sigma=256 count" counts.(sym) (Wt.count wt ~sym)
  done

(* ------------------------------------------------------------------ *)
(* Persistence: structures saved as container sections must reopen as
   mapped views answering identically to the heap originals — across
   the 63-bit word and rank-directory block boundaries. *)

let test_bitvec_mmap_roundtrip () =
  let rng = H.rng_of_seed 117 in
  List.iter
    (fun n ->
      let bools = Array.init n (fun _ -> Random.State.bool rng) in
      let bv = Bv.of_bools bools in
      with_tmp (fun path ->
          let w = S.Writer.create path in
          Bv.save_parts w ~prefix:"bv" bv;
          S.Writer.close w;
          let bv' = Bv.open_parts (S.Reader.open_file path) ~prefix:"bv" in
          Alcotest.(check int)
            (Printf.sprintf "n=%d length" n)
            n (Bv.length bv');
          for i = 0 to n do
            Alcotest.(check int)
              (Printf.sprintf "n=%d rank1 %d" n i)
              (Bv.rank1 bv i) (Bv.rank1 bv' i);
            if i < n then
              Alcotest.(check bool)
                (Printf.sprintf "n=%d get %d" n i)
                (Bv.get bv i) (Bv.get bv' i)
          done;
          for k = 1 to Bv.count1 bv do
            Alcotest.(check int)
              (Printf.sprintf "n=%d select1 %d" n k)
              (Bv.select1 bv k) (Bv.select1 bv' k)
          done;
          for k = 1 to n - Bv.count1 bv do
            Alcotest.(check int)
              (Printf.sprintf "n=%d select0 %d" n k)
              (Bv.select0 bv k) (Bv.select0 bv' k)
          done))
    (* around the 63-bit word boundary and multi-word sizes *)
    [ 0; 1; 62; 63; 64; 125; 126; 127; 189; 311 ]

let test_wavelet_fm_mmap_roundtrip () =
  let rng = H.rng_of_seed 118 in
  for _ = 1 to 10 do
    let n = 30 + Random.State.int rng 200 in
    let k = 1 + Random.State.int rng 6 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng k) in
    let fm = Fm.create text in
    with_tmp (fun path ->
        let w = S.Writer.create path in
        Fm.save_parts w ~prefix:"fm" fm;
        S.Writer.close w;
        let fm' = Fm.open_parts (S.Reader.open_file path) ~prefix:"fm" in
        Alcotest.(check int) "length" n (Fm.length fm');
        for _ = 1 to 40 do
          let m = 1 + Random.State.int rng 8 in
          let pat = Array.init m (fun _ -> 1 + Random.State.int rng (k + 1)) in
          Alcotest.(check bool) "mapped FM range agrees" true
            (Fm.range fm ~pattern:pat = Fm.range fm' ~pattern:pat)
        done)
  done;
  (* the wavelet tree alone, on a full-byte alphabet *)
  let seq = Array.init 300 (fun i -> (i * 37) land 0xFF) in
  let wt = Wt.build ~sigma:256 seq in
  with_tmp (fun path ->
      let w = S.Writer.create path in
      Wt.save_parts w ~prefix:"wt" wt;
      S.Writer.close w;
      let wt' = Wt.open_parts (S.Reader.open_file path) ~prefix:"wt" in
      Array.iteri
        (fun i s ->
          Alcotest.(check int) "mapped access" s (Wt.access wt' i);
          ignore i)
        seq;
      for sym = 0 to 255 do
        Alcotest.(check int) "mapped rank" (Wt.count wt ~sym)
          (Wt.rank wt' ~sym (Array.length seq))
      done)

(* Bit flips and truncation in a container holding succinct sections
   must be rejected with the damaged section named — the same
   discipline test_storage.ml enforces for the engine sections. *)
let test_succinct_corruption () =
  let build path =
    let text = Array.init 400 (fun i -> 1 + ((i * 7) mod 5)) in
    let w = S.Writer.create path in
    Fm.save_parts w ~prefix:"fm" (Fm.create text);
    S.Writer.close w
  in
  let offsets =
    with_tmp (fun path ->
        build path;
        let r = S.Reader.open_file path in
        List.map
          (fun i -> (i.S.Reader.si_name, i.S.Reader.si_off, i.S.Reader.si_bytes))
          (S.Reader.table r))
  in
  (* every section of the succinct layout is covered: fm.meta, fm.c,
     fm.wt.meta and per-level fm.wt.l<k>.{meta,words,cum} *)
  Alcotest.(check bool) "layout has per-level sections" true
    (List.exists (fun (n, _, _) -> n = "fm.wt.l0.words") offsets
    && List.exists (fun (n, _, _) -> n = "fm.wt.l2.cum") offsets);
  List.iter
    (fun (name, off, bytes) ->
      if bytes > 0 then
        List.iter
          (fun at ->
            with_tmp (fun path ->
                build path;
                flip_bit path at;
                Alcotest.(check (option string))
                  (Printf.sprintf "%s flip at %d" name at)
                  (Some name)
                  (corrupt_section (fun () -> S.Reader.open_file path))))
          [ off; off + bytes - 1 ])
    offsets;
  with_tmp (fun path ->
      build path;
      let full = read_file path in
      List.iter
        (fun keep ->
          with_tmp (fun p2 ->
              write_file p2 (String.sub full 0 keep);
              Alcotest.(check bool)
                (Printf.sprintf "truncated to %d rejected" keep)
                true
                (corrupt_section (fun () -> S.Reader.open_file p2) <> None)))
        [ 48; String.length full / 2; String.length full - 8 ])

(* Structurally inconsistent (but checksum-clean) sections are caught
   by the open_parts validators, naming the offending section. *)
let test_succinct_shape_validation () =
  let check name expect write =
    with_tmp (fun path ->
        let w = S.Writer.create path in
        write w;
        S.Writer.close w;
        Alcotest.(check (option string))
          name (Some expect)
          (corrupt_section (fun () ->
               Bv.open_parts (S.Reader.open_file path) ~prefix:"bv")))
  in
  check "bitvec meta arity" "bv.meta" (fun w ->
      S.Writer.add_ints w "bv.meta" [| 10; 99 |];
      S.Writer.add_ints w "bv.words" [| 0 |];
      S.Writer.add_ints w "bv.cum" [| 0; 0 |]);
  check "bitvec word count" "bv.words" (fun w ->
      S.Writer.add_ints w "bv.meta" [| 100 |];
      S.Writer.add_ints w "bv.words" [| 0 |];
      S.Writer.add_ints w "bv.cum" [| 0; 0 |]);
  check "bitvec rank directory" "bv.cum" (fun w ->
      S.Writer.add_ints w "bv.meta" [| 10 |];
      S.Writer.add_ints w "bv.words" [| 0 |];
      S.Writer.add_ints w "bv.cum" [| 0 |]);
  (* a wavelet level of the wrong length *)
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "wt.meta" [| 5; 2 |];
      let bv = Bv.of_bools [| true; false; true |] in
      Bv.save_parts w ~prefix:"wt.l0" bv;
      S.Writer.close w;
      Alcotest.(check (option string))
        "wavelet level length" (Some "wt.meta")
        (corrupt_section (fun () ->
             Wt.open_parts (S.Reader.open_file path) ~prefix:"wt")))

let prop_bitvec =
  QCheck2.Test.make ~name:"bitvec rank1 = naive (qcheck)" ~count:300
    QCheck2.Gen.(
      let* n = int_range 0 200 in
      let* bools = array_repeat n bool in
      let* i = int_range 0 n in
      return (bools, i))
    (fun (bools, i) ->
      let want = ref 0 in
      for j = 0 to i - 1 do
        if bools.(j) then incr want
      done;
      Bv.rank1 (Bv.of_bools bools) i = !want)

let () =
  Alcotest.run "pti_succinct"
    [
      ( "bitvec",
        [
          Alcotest.test_case "rank/select vs naive" `Quick test_bitvec_exhaustive;
          Alcotest.test_case "edges" `Quick test_bitvec_edges;
          QCheck_alcotest.to_alcotest prop_bitvec;
        ] );
      ( "wavelet",
        [
          Alcotest.test_case "access/rank/select vs naive" `Quick
            test_wavelet_matches_naive;
          Alcotest.test_case "validation" `Quick test_wavelet_validation;
          Alcotest.test_case "rank2 = two ranks" `Quick test_wavelet_rank2;
          Alcotest.test_case "1-symbol and full-byte alphabets" `Quick
            test_wavelet_alphabet_extremes;
        ] );
      ( "mmap",
        [
          Alcotest.test_case "bitvec roundtrip at word boundaries" `Quick
            test_bitvec_mmap_roundtrip;
          Alcotest.test_case "wavelet and FM roundtrip" `Quick
            test_wavelet_fm_mmap_roundtrip;
          Alcotest.test_case "bit flips name succinct sections" `Quick
            test_succinct_corruption;
          Alcotest.test_case "shape validation names the section" `Quick
            test_succinct_shape_validation;
        ] );
      ( "fm_index",
        [
          Alcotest.test_case "ranges = binary search" `Quick
            test_fm_matches_binary_search;
          Alcotest.test_case "builds own SA" `Quick test_fm_without_sa;
          Alcotest.test_case "engine backend equivalence" `Quick test_fm_in_engine;
        ] );
    ]
