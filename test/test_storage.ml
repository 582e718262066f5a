(* Tests for the PTI-ENGINE-4 container (Pti_storage) and the
   zero-copy engine persistence built on it:

   - container roundtrips and typed [Corrupt] rejection of truncated,
     wrong-magic and bit-flipped files, with the offending section
     named;
   - minimal-width packing: u8/u16/u32 boundary values and -1
     sentinels through packed views and packed-section corruption;
   - heap-built vs reopened-mmap engines answering byte-identically
     across the full configuration matrix (metric × backend × ladder,
     with and without correlations), including
     batched queries on a 4-domain pool;
   - retired formats (ENGINE-2/ENGINE-3 magics, suffix-tree and
     marshalled-FM sections, pre-backend meta) refused with a typed
     [Corrupt] that says to rebuild. *)

module S = Pti_storage
module U = Pti_ustring.Ustring
module G = Pti_core.General_index
module Sp = Pti_core.Special_index
module L = Pti_core.Listing_index
module Engine = Pti_core.Engine
module H = Pti_test_helpers

let with_tmp f =
  let path = Filename.temp_file "pti_storage_test" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Flip one bit of the byte at [off]. *)
let flip_bit path off =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  write_file path (Bytes.to_string b)

let corrupt_section f =
  try
    ignore (f ());
    None
  with S.Corrupt { section; _ } -> Some section

(* ------------------------------------------------------------------ *)
(* Container layer *)

let test_container_roundtrip () =
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "xs" [| 1; -2; 3; max_int; min_int |];
      S.Writer.add_floats w "fs" [| 1.5; -2.5; 0.0; Float.neg_infinity |];
      S.Writer.add_bytes w "blob" "hello world";
      S.Writer.add_ints w "empty" [||];
      S.Writer.close w;
      let r = S.Reader.open_file path in
      Alcotest.(check (list string))
        "sections in write order"
        [ "xs"; "fs"; "blob"; "empty" ]
        (S.Reader.sections r);
      Alcotest.(check bool) "has" true (S.Reader.has r "xs");
      Alcotest.(check bool) "has not" false (S.Reader.has r "nope");
      Alcotest.(check (array int))
        "ints roundtrip"
        [| 1; -2; 3; max_int; min_int |]
        (S.Ints.to_array (S.Reader.ints r "xs"));
      Alcotest.(check (array (float 0.0)))
        "floats roundtrip"
        [| 1.5; -2.5; 0.0; Float.neg_infinity |]
        (S.Floats.to_array (S.Reader.floats r "fs"));
      Alcotest.(check string) "blob roundtrip" "hello world"
        (S.Reader.blob r "blob");
      Alcotest.(check int) "empty section" 0
        (S.Ints.length (S.Reader.ints r "empty"));
      (* wrong-kind and missing accesses raise Corrupt, not segfault *)
      Alcotest.(check (option string))
        "kind mismatch" (Some "xs")
        (corrupt_section (fun () -> S.Reader.floats r "xs"));
      Alcotest.(check (option string))
        "missing section" (Some "nope")
        (corrupt_section (fun () -> S.Reader.ints r "nope")))

let test_container_writer_rejects () =
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "a" [| 1 |];
      Alcotest.(check bool) "duplicate name" true
        (try
           S.Writer.add_floats w "a" [| 1.0 |];
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "empty name" true
        (try
           S.Writer.add_ints w "" [| 1 |];
           false
         with Invalid_argument _ -> true))

(* Bit flips in a container with a known v4 packed layout: header is 48
   bytes, then "xs" (5 u8 bytes at 48, padded to 56), "fs" (2 float64
   words at 56), "blob" (11 bytes at 72, padded to 88), then the section
   table at 88. The reported section must be the one actually hit. *)
let test_container_bitflip () =
  let build path =
    let w = S.Writer.create path in
    S.Writer.add_ints w "xs" [| 1; 2; 3; 4; 5 |];
    S.Writer.add_floats w "fs" [| 1.5; -2.5 |];
    S.Writer.add_bytes w "blob" "hello world";
    S.Writer.close w
  in
  let check_flip off want =
    with_tmp (fun path ->
        build path;
        flip_bit path off;
        Alcotest.(check (option string))
          (Printf.sprintf "flip at %d" off)
          (Some want)
          (corrupt_section (fun () -> S.Reader.open_file path)))
  in
  check_flip 3 "header" (* magic *);
  check_flip 14 "header" (* magic zero padding *);
  check_flip 17 "header" (* sentinel *);
  check_flip 41 "header" (* declared total size *);
  check_flip 50 "xs";
  check_flip 54 "xs" (* alignment padding is checksummed too *);
  check_flip 58 "fs";
  check_flip 74 "blob";
  check_flip 84 "blob" (* blob padding *);
  check_flip 100 "section-table";
  (* with ~verify:false array sections are trusted at open time, but
     blobs are still verified before deserialization *)
  with_tmp (fun path ->
      build path;
      flip_bit path 74;
      let r = S.Reader.open_file ~verify:false path in
      Alcotest.(check (array int))
        "arrays readable unverified" [| 1; 2; 3; 4; 5 |]
        (S.Ints.to_array (S.Reader.ints r "xs"));
      Alcotest.(check (option string))
        "blob verified lazily" (Some "blob")
        (corrupt_section (fun () -> S.Reader.blob r "blob")))

let test_container_truncation () =
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "xs" (Array.init 100 (fun i -> i));
      S.Writer.close w;
      let full = read_file path in
      let n = String.length full in
      List.iter
        (fun keep ->
          with_tmp (fun p2 ->
              write_file p2 (String.sub full 0 keep);
              Alcotest.(check bool)
                (Printf.sprintf "truncated to %d bytes rejected" keep)
                true
                (corrupt_section (fun () -> S.Reader.open_file p2) <> None)))
        [ 0; 1; 16; 47; 48; 56; n / 2; n - 8; n - 1 ];
      (* garbage with the wrong magic *)
      with_tmp (fun p2 ->
          write_file p2 (String.make 256 'x');
          Alcotest.(check (option string))
            "wrong magic" (Some "header")
            (corrupt_section (fun () -> S.Reader.open_file p2))))

(* ------------------------------------------------------------------ *)
(* Width-adaptive packing: values at the u8/u16/u32 boundaries (and -1
   sentinels) must pick the expected representation and roundtrip
   exactly through the packed views. *)

let section_info r name =
  List.find (fun i -> i.S.Reader.si_name = name) (S.Reader.table r)

let test_packed_widths () =
  let cases =
    [
      ("u8.top", [| 0; 255 |], 1, 0);
      ("u16.bot", [| 0; 256 |], 2, 0);
      ("u16.top", [| 7; 65535 |], 2, 0);
      ("u32.bot", [| 65536 |], 4, 0);
      ("u32.top", [| 0xFFFFFFFF |], 4, 0);
      ("u64.bot", [| 0x1_0000_0000 |], 8, 0);
      ("sent.u8", [| -1; 254 |], 1, 1);
      ("sent.u8.edge", [| -1; 255 |], 2, 1) (* 255 + bias needs u16 *);
      ("sent.u16", [| -1; 65534 |], 2, 1);
      ("sent.u32", [| -1; 0xFFFFFFFE |], 4, 1);
      ("sent.u64", [| -1; 0xFFFFFFFF |], 8, 0) (* bias would overflow u32 *);
      ("neg", [| -2; 5 |], 8, 0) (* only -1 sentinels are biased *);
      ("extremes", [| max_int; min_int |], 8, 0);
      ("empty", [||], 1, 0);
    ]
  in
  with_tmp (fun path ->
      let w = S.Writer.create path in
      List.iter (fun (name, a, _, _) -> S.Writer.add_ints w name a) cases;
      S.Writer.close w;
      let r = S.Reader.open_file path in
      Alcotest.(check string) "magic" S.magic
        (String.sub (read_file path) 0 (String.length S.magic));
      List.iter
        (fun (name, a, width, bias) ->
          let i = section_info r name in
          Alcotest.(check int) (name ^ " width") width i.S.Reader.si_width;
          Alcotest.(check int) (name ^ " bias") bias i.S.Reader.si_bias;
          Alcotest.(check bool) (name ^ " checksum") true i.S.Reader.si_checksum_ok;
          let v = S.Reader.ints r name in
          Alcotest.(check int) (name ^ " view width") width (S.Ints.width v);
          Alcotest.(check int)
            (name ^ " byte_size")
            (width * Array.length a)
            (S.Ints.byte_size v);
          Alcotest.(check (array int)) (name ^ " roundtrip") a (S.Ints.to_array v);
          (* element accessors and sub-views agree with the array *)
          Array.iteri
            (fun j x ->
              Alcotest.(check int) (name ^ " get") x (S.Ints.get v j);
              Alcotest.(check int)
                (name ^ " sub.get")
                x
                (S.Ints.get (S.Ints.sub v j (Array.length a - j)) 0))
            a)
        cases)

(* Random int arrays drawn across all width classes roundtrip exactly. *)
let test_packed_roundtrip_prop () =
  let gen =
    QCheck.Gen.(
      array_size (int_range 0 64)
        (oneof
           [
             int_range (-1) 300;
             int_range 0 70000;
             int_range 0 0x1_0000_0000;
             oneofl [ -1; 0; 255; 256; 65535; 65536; 0xFFFFFFFF; max_int; min_int ];
           ]))
  in
  let prop a =
    with_tmp (fun path ->
        let w = S.Writer.create path in
        S.Writer.add_ints w "a" a;
        S.Writer.close w;
        let r = S.Reader.open_file path in
        S.Ints.to_array (S.Reader.ints r "a") = a)
  in
  let cell =
    QCheck.Test.make ~count:200 ~name:"packed arrays roundtrip"
      (QCheck.make ~print:QCheck.Print.(array int) gen)
      prop
  in
  QCheck.Test.check_exn cell

(* Bit flips inside packed payloads are caught by the incremental
   checksums and name the right section; offsets come from the section
   table, not hardcoded layout. *)
let test_packed_corruption () =
  let build path =
    let w = S.Writer.create path in
    S.Writer.add_ints w "bytes8" (Array.init 11 (fun i -> i * 20));
    S.Writer.add_ints w "words16" (Array.init 7 (fun i -> 300 + i));
    S.Writer.add_ints w "words32" (Array.init 5 (fun i -> 70000 + i));
    S.Writer.add_ints w "sentinels" (Array.init 9 (fun i -> i - 1));
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
  List.iter
    (fun (name, off, bytes) ->
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
  (* truncating a packed container is still rejected *)
  with_tmp (fun path ->
      build path;
      let full = read_file path in
      with_tmp (fun p2 ->
          write_file p2 (String.sub full 0 (String.length full - 16));
          Alcotest.(check bool) "truncated packed container rejected" true
            (corrupt_section (fun () -> S.Reader.open_file p2) <> None)))

(* A packed container re-saved from its mapped views (as [Engine.save]
   does on a loaded index) must be byte-identical. *)
let test_packed_resave () =
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "xs" (Array.init 300 (fun i -> i - 1));
      S.Writer.add_floats w "fs" [| 0.125; 8.5 |];
      S.Writer.close w;
      let original = read_file path in
      let r = S.Reader.open_file path in
      with_tmp (fun path2 ->
          let w2 = S.Writer.create path2 in
          S.Writer.add_ints_ba w2 "xs" (S.Reader.ints r "xs");
          S.Writer.add_floats_ba w2 "fs" (S.Reader.floats r "fs");
          S.Writer.close w2;
          Alcotest.(check bool) "resaved packed container byte-identical" true
            (String.equal original (read_file path2))))

(* ------------------------------------------------------------------ *)
(* Engine files: any single-bit flip must surface as [Corrupt] — never
   a segfault, never an unmarshalling crash. Bit flips that land in
   regions the envelope validates structurally may instead be caught as
   a missing/odd section, which [Corrupt] also covers. *)

let test_engine_bitflip () =
  let rng = H.rng_of_seed 71 in
  let u = H.random_ustring rng 60 4 3 in
  let g = G.build ~tau_min:0.1 u in
  let pat = H.random_pattern rng u 6 in
  with_tmp (fun path ->
      G.save g path;
      let original = read_file path in
      let n = String.length original in
      let offsets = List.init 24 (fun i -> i * n / 24) in
      List.iter
        (fun off ->
          write_file path original;
          flip_bit path off;
          let outcome =
            try
              let g' = G.load path in
              (* a flip the checksums cannot see (there is none in the
                 current layout, but keep the test robust) must at least
                 leave answers intact *)
              if G.query g' ~pattern:pat ~tau:0.3 = G.query g ~pattern:pat ~tau:0.3
              then `Harmless
              else `Wrong_answers
            with S.Corrupt _ -> `Detected
            (* EXPECTATION CHANGE: a flip inside the magic is a bad
               header, refused up front like any other; no file is taken
               for an older format any more *)
          in
          if outcome = `Wrong_answers then
            Alcotest.failf "bit flip at offset %d silently changed answers" off)
        offsets)

let test_engine_truncation () =
  let u = H.random_ustring (H.rng_of_seed 72) 40 4 3 in
  let g = G.build ~tau_min:0.1 u in
  with_tmp (fun path ->
      G.save g path;
      let full = read_file path in
      let n = String.length full in
      List.iter
        (fun keep ->
          with_tmp (fun p2 ->
              write_file p2 (String.sub full 0 keep);
              Alcotest.(check bool)
                (Printf.sprintf "truncated engine (%d bytes) rejected" keep)
                true
                (try
                   ignore (G.load p2);
                   false
                 with S.Corrupt _ -> true)))
        [ 16; 48; n / 4; n / 2; n - 8 ];
      (* EXPECTATION CHANGE: below the magic length the file is refused
         by the header check, not handed to another loader *)
      with_tmp (fun p2 ->
          write_file p2 (String.sub full 0 8);
          Alcotest.(check (option string)) "sub-magic prefix rejected"
            (Some "header")
            (corrupt_section (fun () -> G.load p2))))

(* ------------------------------------------------------------------ *)
(* Roundtrips: a reopened mmap twin must answer exactly like the
   heap-built original — same positions, bit-identical probabilities —
   across the whole configuration matrix. *)

let patterns_for rng u k =
  List.init k (fun _ ->
      (H.random_pattern rng u 8, 0.1 +. Random.State.float rng 0.6))

let check_same_answers name g g' queries =
  List.iter
    (fun (pat, tau) ->
      let a = G.query g ~pattern:pat ~tau and b = G.query g' ~pattern:pat ~tau in
      if a <> b then Alcotest.failf "%s: mmap twin diverged" name)
    queries

let test_roundtrip_matrix () =
  let rng = H.rng_of_seed 73 in
  List.iter
    (fun correlated ->
      let u = H.random_ustring rng 45 4 3 in
      let u =
        if correlated then
          Pti_workload.Dataset.add_random_correlations rng u ~count:4
        else u
      in
      let queries = patterns_for rng u 8 in
      List.iter
        (fun backend ->
          List.iter
            (fun ladder ->
              let config = { Engine.default_config with ladder } in
              let name =
                Printf.sprintf "corr=%b backend=%s ladder=%d" correlated
                  (Engine.backend_to_string backend)
                  (match ladder with
                  | Engine.Ladder_geometric -> 0
                  | Engine.Ladder_full -> 1
                  | Engine.Ladder_none -> 2)
              in
              let g = G.build ~config ~backend ~tau_min:0.1 u in
              with_tmp (fun path ->
                  G.save g path;
                  check_same_answers name g (G.load path) queries))
            [ Engine.Ladder_geometric; Engine.Ladder_full; Engine.Ladder_none ])
        [ Engine.Packed; Engine.Succinct ])
    [ false; true ]

(* The succinct backend: built heap-side, saved as FM/wavelet/rank
   sections, reopened as mapped views — answers must match the packed
   twin byte-for-byte, the container header must record the backend,
   and flips inside the succinct sections must name them. Neither
   backend writes the construction artefacts (lcp, tr.logs). *)
let test_roundtrip_succinct_backend () =
  let rng = H.rng_of_seed 78 in
  for _ = 1 to 6 do
    let u = H.random_ustring rng (30 + Random.State.int rng 60) 4 3 in
    let packed = G.build ~tau_min:0.1 u in
    let succ = G.build ~backend:Engine.Succinct ~tau_min:0.1 u in
    Alcotest.(check bool) "built backend recorded" true
      (Engine.backend (G.engine succ) = Engine.Succinct);
    let queries = patterns_for rng u 8 in
    check_same_answers "succinct heap = packed heap" packed succ queries;
    with_tmp (fun path ->
        G.save succ path;
        let succ' = G.load path in
        Alcotest.(check bool) "loaded backend recorded" true
          (Engine.backend (G.engine succ') = Engine.Succinct);
        check_same_answers "succinct mmap twin" succ succ' queries;
        Alcotest.(check bool) "FM persisted as sections" true
          (S.Reader.has (S.Reader.open_file path) "fm.meta"));
    List.iter
      (fun (name, g) ->
        with_tmp (fun path ->
            G.save g path;
            let r = S.Reader.open_file path in
            Alcotest.(check bool) (name ^ ": no lcp section") false
              (S.Reader.has r "lcp");
            Alcotest.(check bool) (name ^ ": no tr.logs section") false
              (S.Reader.has r "tr.logs")))
      [ ("packed", packed); ("succinct", succ) ]
  done

let test_succinct_engine_corruption () =
  let rng = H.rng_of_seed 79 in
  let u = H.random_ustring rng 60 4 3 in
  let g = G.build ~backend:Engine.Succinct ~tau_min:0.1 u in
  with_tmp (fun path ->
      G.save g path;
      let targets =
        let r = S.Reader.open_file path in
        List.filter_map
          (fun i ->
            let n = i.S.Reader.si_name in
            if
              i.S.Reader.si_bytes > 0
              && (String.length n >= 3 && String.sub n 0 3 = "fm."
                 || String.length n >= 4 && String.sub n 0 4 = "rmq.")
            then Some (n, i.S.Reader.si_off)
            else None)
          (S.Reader.table r)
      in
      Alcotest.(check bool) "succinct sections present" true
        (List.length targets >= 3);
      let original = read_file path in
      List.iter
        (fun (name, off) ->
          write_file path original;
          flip_bit path off;
          Alcotest.(check (option string))
            (Printf.sprintf "flip in %s" name)
            (Some name)
            (corrupt_section (fun () -> ignore (G.load path))))
        targets)

(* Saving an engine opened from a container writes the container it
   came from, byte for byte, for both backends and both metrics: every
   section is written from what was read, and nothing the reader
   skipped is needed. *)
let test_roundtrip_resave () =
  let rng = H.rng_of_seed 80 in
  let u = H.random_ustring rng 50 4 3 in
  let docs = List.init 4 (fun _ -> H.random_ustring rng 15 3 2) in
  let resaved save resave =
    with_tmp (fun path ->
        save path;
        with_tmp (fun path2 ->
            resave path path2;
            String.equal (read_file path) (read_file path2)))
  in
  List.iter
    (fun backend ->
      let g = G.build ~backend ~tau_min:0.1 u in
      Alcotest.(check bool)
        (Engine.backend_to_string backend ^ " general re-saved byte-identical")
        true
        (resaved (G.save g) (fun src -> G.save (G.load src)));
      let l = L.build ~backend ~relevance:L.Rel_or ~tau_min:0.1 docs in
      Alcotest.(check bool)
        (Engine.backend_to_string backend ^ " listing re-saved byte-identical")
        true
        (resaved (L.save l) (fun src -> L.save (L.load src))))
    [ Engine.Packed; Engine.Succinct ]

(* The Or metric keeps per-level stored-value arrays instead of dead
   bitmaps; exercise both relevance metrics through the listing index,
   with and without correlations. *)
let test_roundtrip_listing () =
  let rng = H.rng_of_seed 74 in
  List.iter
    (fun correlated ->
      List.iter
        (fun relevance ->
          List.iter
            (fun backend ->
              List.iter
                (fun ladder ->
                  let docs =
                    List.init (3 + Random.State.int rng 3) (fun _ ->
                        let d =
                          H.random_ustring rng (4 + Random.State.int rng 12) 3 2
                        in
                        if correlated then
                          Pti_workload.Dataset.add_random_correlations rng d
                            ~count:2
                        else d)
                  in
                  let l = L.build ~backend ~ladder ~relevance ~tau_min:0.1 docs in
                  with_tmp (fun path ->
                      L.save l path;
                      let l' = L.load path in
                      Alcotest.(check int) "n_docs" (L.n_docs l) (L.n_docs l');
                      Alcotest.(check bool) "relevance" true
                        (L.relevance l = L.relevance l');
                      for k = 0 to L.n_docs l - 1 do
                        Alcotest.(check bool) "docs preserved" true
                          (L.doc l k = L.doc l' k)
                      done;
                      for _ = 1 to 8 do
                        let d0 =
                          List.nth docs (Random.State.int rng (List.length docs))
                        in
                        let pat = H.random_pattern rng d0 5 in
                        let tau = 0.1 +. Random.State.float rng 0.5 in
                        if L.query l ~pattern:pat ~tau <> L.query l' ~pattern:pat ~tau
                        then Alcotest.failf "listing mmap twin diverged"
                      done))
                [ Engine.Ladder_geometric; Engine.Ladder_none ])
            [ Engine.Packed; Engine.Succinct ])
        [ L.Rel_max; L.Rel_or ])
    [ false; true ]

let test_roundtrip_special () =
  let rng = H.rng_of_seed 75 in
  for _ = 1 to 10 do
    let u =
      U.make
        (Array.init
           (5 + Random.State.int rng 40)
           (fun _ ->
             [|
               {
                 U.sym = Char.code 'A' + Random.State.int rng 4;
                 prob = 0.2 +. Random.State.float rng 0.8;
               };
             |]))
    in
    let sp = Sp.build u in
    with_tmp (fun path ->
        Sp.save sp path;
        let sp' = Sp.load path in
        for _ = 1 to 10 do
          let pat = H.random_pattern rng u 8 in
          let tau = Random.State.float rng 0.9 in
          Alcotest.(check bool) "special mmap twin answers identically" true
            (Sp.query sp ~pattern:pat ~tau = Sp.query sp' ~pattern:pat ~tau)
        done)
  done

(* Batched queries on the reopened index: the mapped sections are read
   concurrently by the domain pool (PTI_DOMAINS=4). *)
let test_roundtrip_batch_domains () =
  Unix.putenv "PTI_DOMAINS" "4";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PTI_DOMAINS" "")
    (fun () ->
      let rng = H.rng_of_seed 76 in
      let u = H.random_ustring rng 120 4 3 in
      let g = G.build ~tau_min:0.1 u in
      let patterns = Array.of_list (patterns_for rng u 40) in
      with_tmp (fun path ->
          G.save g path;
          let g' = G.load path in
          let a = G.query_batch g ~patterns in
          let b = G.query_batch g' ~patterns in
          Alcotest.(check bool) "batched answers identical on 4 domains" true
            (a = b));
      let docs = List.init 6 (fun _ -> H.random_ustring rng 20 3 2) in
      let l = L.build ~relevance:L.Rel_or ~tau_min:0.1 docs in
      let patterns =
        Array.init 30 (fun _ ->
            let d0 = List.nth docs (Random.State.int rng 6) in
            (H.random_pattern rng d0 5, 0.1 +. Random.State.float rng 0.5))
      in
      with_tmp (fun path ->
          L.save l path;
          let l' = L.load path in
          Alcotest.(check bool) "listing batch identical on 4 domains" true
            (L.query_batch l ~patterns = L.query_batch l' ~patterns)))

(* ------------------------------------------------------------------ *)
(* Retired formats are refused with a typed error that says what to do,
   never read. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let refusal path =
  let section f =
    match f () with
    | () -> Alcotest.failf "%s: a retired file was opened" path
    | exception S.Corrupt { section; reason } ->
        if not (contains reason "rebuild") then
          Alcotest.failf "%s: reason %S does not say to rebuild" path reason;
        section
  in
  let s = section (fun () -> ignore (G.load path)) in
  Alcotest.(check string) "listing load names the same section" s
    (section (fun () -> ignore (L.load path)));
  s

(* A bare 16-byte header is enough: the magic is checked before the
   file's size or anything after it. *)
let test_retired_magics () =
  List.iter
    (fun m ->
      with_tmp (fun path ->
          write_file path (m ^ String.make (16 - String.length m) '\000');
          Alcotest.(check string) (String.trim m ^ " refused") "header"
            (refusal path);
          Alcotest.(check (option string)) (String.trim m ^ " reader")
            (Some "header")
            (corrupt_section (fun () -> S.Reader.open_file path))))
    [ "PTI-ENGINE-2\n"; "PTI-ENGINE-3\n" ]

(* ENGINE-2 listing files began with an OCaml [Marshal] header (magic
   0x8495A6BE, or 0x8495A6BF for big values), not with a PTI magic. *)
let test_retired_marshal_header () =
  List.iter
    (fun (name, head) ->
      with_tmp (fun path ->
          write_file path (head ^ String.make (16 - String.length head) '\000');
          Alcotest.(check string) (name ^ " refused") "header" (refusal path)))
    [
      ("small marshal header", "\x84\x95\xA6\xBE\x00\x00\x01\x2c");
      ("big marshal header", "\x84\x95\xA6\xBF\x00\x00\x00\x00");
    ]

(* A container whose level RMQ is the Fischer–Heun structure (kind tag
   2), hand-written with valid checksums from a current one, is refused
   by its RMQ's kind section. *)
let test_retired_fischer_heun () =
  let rng = H.rng_of_seed 83 in
  let docs = List.init 4 (fun _ -> H.random_ustring rng 20 3 2) in
  let l = L.build ~tau_min:0.1 docs in
  with_tmp (fun path ->
      L.save l path;
      H.rewrite_container ~src:path ~dst:path (H.fischer_heun_kind path);
      Alcotest.(check string) "tag 2 refused" "rmq.level.1.kind" (refusal path))

(* Engine layouts that are gone: a suffix-tree "st" section, an "fm"
   Marshal blob, a two-element "meta", a marshalled "cfg" record, and
   the marshalled transform record of a bytes "tr.meta". The cfg and
   listing blobs are garbage, so the refusal must come before anything
   is decoded. The same holds for the listing's own marshalled
   "listing.meta" and for the corpus encodings that went with them: a
   format-1 MANIFEST (marshalled config and segment blobs) and a WAL
   of marshalled records. *)
let test_retired_engine_layouts () =
  List.iter
    (fun (section, add) ->
      with_tmp (fun path ->
          let w = S.Writer.create path in
          S.Writer.add_bytes w "cfg" "not a marshalled config";
          S.Writer.add_ints w "listing.doc_of" [| 0 |];
          S.Writer.add_bytes w "listing.meta" "not a marshalled pair";
          add w;
          S.Writer.close w;
          Alcotest.(check string) (section ^ " refused") section (refusal path)))
    [
      ( "st",
        fun w ->
          S.Writer.add_ints w "meta" [| 1; 1; 0 |];
          S.Writer.add_bytes w "st" "suffix tree" );
      ( "fm",
        fun w ->
          S.Writer.add_ints w "meta" [| 1; 1; 1 |];
          S.Writer.add_bytes w "fm" "fm index" );
      ("meta", fun w -> S.Writer.add_ints w "meta" [| 1; 1 |]);
      ("cfg", fun w -> S.Writer.add_ints w "meta" [| 1; 1; 0 |]);
    ];
  (* a bytes "tr.meta" behind an otherwise current engine meta *)
  with_tmp (fun path ->
      let w = S.Writer.create path in
      S.Writer.add_ints w "listing.doc_of" [| 0 |];
      S.Writer.add_ints w "meta" [| 1; 1; 0; 0; 0 |];
      S.Writer.add_bytes w "tr.meta" "not a marshalled transform record";
      S.Writer.add_bytes w "tr.source" "not a marshalled string";
      S.Writer.close w;
      Alcotest.(check string) "tr.meta refused" "tr.meta" (refusal path));
  (* a current listing whose "listing.meta" is the marshalled pair *)
  let rng = H.rng_of_seed 84 in
  let l = L.build ~tau_min:0.1 (List.init 3 (fun _ -> H.random_ustring rng 20 3 2)) in
  with_tmp (fun path ->
      L.save l path;
      H.rewrite_container ~src:path ~dst:path (function
        | "listing.meta" -> Some (H.Bytes "not a marshalled pair")
        | "listing.docs" -> Some (H.Bytes "not encoded documents")
        | _ -> None);
      let section f =
        match f () with
        | _ -> Alcotest.fail "a marshalled listing.meta was opened"
        | exception S.Corrupt { section; reason } ->
            if not (contains reason "rebuild") then
              Alcotest.failf "reason %S does not say to rebuild" reason;
            section
      in
      Alcotest.(check string) "listing.meta refused" "listing.meta"
        (section (fun () -> ignore (L.load path))));
  let module Store = Pti_segment.Segment_store in
  let corpus_refusal dir =
    match Store.open_dir ~read_only:true dir with
    | _ -> Alcotest.failf "%s: a retired corpus was opened" dir
    | exception S.Corrupt { section; reason } ->
        if not (contains reason "rebuild") then
          Alcotest.failf "reason %S does not say to rebuild" reason;
        section
  in
  (* a format-1 MANIFEST: its config and segment list were blobs *)
  H.with_tmpdir (fun dir ->
      ignore (Store.create dir : Store.t);
      let m = Filename.concat dir Store.manifest_name in
      H.rewrite_container ~src:m ~dst:m (function
        | "corpus.meta" -> Some (H.Ints [| 1; 0; 0; 0 |])
        | "corpus.config" -> Some (H.Bytes "not a marshalled config")
        | "corpus.segments" -> Some (H.Bytes "not marshalled names")
        | _ -> None);
      Alcotest.(check string) "format-1 manifest refused" "corpus.meta"
        (corpus_refusal dir));
  (* a WAL whose record is a Marshal payload *)
  H.with_tmpdir (fun dir ->
      ignore (Store.create dir : Store.t);
      let w = S.Wal.open_writer (Filename.concat dir "wal-000000.log") in
      S.Wal.append w (Marshal.to_string (0, "a marshalled insert") []);
      S.Wal.close w;
      Alcotest.(check string) "marshalled WAL record refused" "wal"
        (corpus_refusal dir))

(* ------------------------------------------------------------------ *)
(* Crash-safe saves under injected faults: whatever fails and wherever,
   the destination file is either the old container byte-identical or
   the new one complete — never a torn hybrid. *)

module F = Pti_fault

let with_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

(* Two different engines over the same alphabet, and the source of the
   first; [g_old] is what the destination must still hold after a
   failed overwrite by [g_new]. *)
let make_engines () =
  let rng = H.rng_of_seed 1234 in
  let u1 = H.random_ustring rng 80 4 3 in
  let u2 = H.random_ustring rng 110 4 3 in
  (u1, G.build ~tau_min:0.1 u1, G.build ~tau_min:0.1 u2)

let no_temp_left path =
  Alcotest.(check bool) "temp file unlinked" false
    (Sys.file_exists (S.temp_path path))

let test_fault_save_keeps_old () =
  let u_old, g_old, g_new = make_engines () in
  let cases =
    [
      ("write enospc", "storage.write:enospc@1");
      ("file fsync eio", "storage.fsync:eio@1");
      ("rename eio", "storage.rename:eio@1");
    ]
  in
  List.iter
    (fun (label, spec) ->
      with_tmp (fun path ->
          G.save g_old path;
          let old_bytes = read_file path in
          with_faults (fun () ->
              F.arm_spec spec;
              (match G.save g_new path with
              | () -> Alcotest.failf "%s: save should have failed" label
              | exception Unix.Unix_error _ -> ()));
          Alcotest.(check bool)
            (label ^ ": destination byte-identical to the old container")
            true
            (read_file path = old_bytes);
          no_temp_left path;
          (* and the old container still opens checksum-clean *)
          let g' = G.load path in
          let rng = H.rng_of_seed 5 in
          let pat = H.random_pattern rng u_old 6 in
          Alcotest.(check bool) (label ^ ": old index still answers") true
            (G.query g_old ~pattern:pat ~tau:0.3
            = G.query g' ~pattern:pat ~tau:0.3)))
    cases

(* ENOSPC in the middle of a multi-chunk stream: the writer flushes in
   256 KiB chunks, so a big enough container issues several write
   calls; failing the 3rd lands mid-stream, right at a chunk
   boundary. *)
let test_fault_enospc_chunk_boundary () =
  let _, g_old, _ = make_engines () in
  let rng = H.rng_of_seed 4321 in
  let g_big = G.build ~tau_min:0.1 (H.random_ustring rng 3000 4 3) in
  with_tmp (fun path ->
      G.save g_old path;
      let old_bytes = read_file path in
      with_faults (fun () ->
          (* count the clean save's writes first: the boundary case is
             only meaningful if the container really spans chunks *)
          F.arm "storage.write" F.Noop F.Always;
          with_tmp (fun scratch -> G.save g_big scratch);
          let writes = F.hit_count "storage.write" in
          Alcotest.(check bool) "container spans several chunked writes"
            true (writes >= 3);
          F.disarm_all ();
          F.arm "storage.write" (F.Raise Unix.ENOSPC) (F.Nth 3);
          match G.save g_big path with
          | () -> Alcotest.fail "mid-stream ENOSPC should surface"
          | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      Alcotest.(check bool)
        "destination byte-identical after mid-stream ENOSPC" true
        (read_file path = old_bytes);
      no_temp_left path;
      ignore (G.load path : G.t))

(* A fault *after* the rename (the directory fsync) surfaces the error
   but must leave the new container complete and valid. *)
let test_fault_after_rename_leaves_new () =
  let _, g_old, g_new = make_engines () in
  with_tmp (fun path ->
      G.save g_old path;
      with_faults (fun () ->
          (* hit 1 = data-file fsync (passes), hit 2 = directory fsync *)
          F.arm "storage.fsync" (F.Raise Unix.EIO) (F.Nth 2);
          match G.save g_new path with
          | () -> Alcotest.fail "dir-fsync fault should surface"
          | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
      no_temp_left path;
      let expected = with_tmp (fun p2 -> G.save g_new p2; read_file p2) in
      Alcotest.(check bool) "destination is the complete new container" true
        (read_file path = expected);
      ignore (G.load path : G.t))

(* Short writes and EINTR are not failures: the writer resumes and the
   result is byte-identical to an unfaulted save. *)
let test_fault_short_write_resumes () =
  let _, _, g = make_engines () in
  let clean = with_tmp (fun p -> G.save g p; read_file p) in
  List.iter
    (fun (label, spec) ->
      with_tmp (fun path ->
          with_faults (fun () ->
              F.arm_spec spec;
              G.save g path;
              Alcotest.(check bool) (label ^ ": writes were instrumented")
                true
                (F.hit_count "storage.write" > 0));
          Alcotest.(check bool) (label ^ ": byte-identical to clean save")
            true
            (read_file path = clean)))
    [
      ("short 64", "storage.write:short:64");
      ("short 1 every 3rd", "storage.write:short:1@every:3");
      ("eintr every 2nd", "storage.write:eintr@every:2");
    ]

(* Crash mid-save: re-exec this test binary as a child that arms an
   abort-on-write failpoint (the hook below) and dies inside the save
   via Unix._exit 70 — no unwinding, no buffers flushed, as close to
   kill -9 as a test gets. (A plain fork is off the table: the domain
   pool's domains are already running by the time this suite runs.)
   The parent then proves the destination never changed. *)
let abort_child_env = "PTI_TEST_ABORT_CHILD"

let test_fault_abort_mid_save () =
  let _, g_old, _ = make_engines () in
  with_tmp (fun path ->
      G.save g_old path;
      let old_bytes = read_file path in
      let env =
        Array.append (Unix.environment ())
          [| abort_child_env ^ "=" ^ path |]
      in
      let exe = Sys.executable_name in
      let child =
        Unix.create_process_env exe [| exe |] env Unix.stdin Unix.stdout
          Unix.stderr
      in
      let rec wait () =
        try Unix.waitpid [] child
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      match wait () with
      | _, Unix.WEXITED 70 ->
          (* the crashed save's temp file carries the child's pid *)
          let orphan = Printf.sprintf "%s.tmp.%d" path child in
          if Sys.file_exists orphan then Sys.remove orphan;
          Alcotest.(check bool)
            "destination byte-identical after mid-save crash" true
            (read_file path = old_bytes);
          ignore (G.load path : G.t)
      | _, status ->
          let s =
            match status with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
          in
          Alcotest.failf "child should _exit 70 at the failpoint, got %s" s)

(* The child half of the abort test: runs before Alcotest when the env
   marker is set, arms the failpoint, and attempts the overwrite that
   must die mid-write. *)
let () =
  match Sys.getenv_opt abort_child_env with
  | None -> ()
  | Some path ->
      F.arm "storage.write" F.Abort (F.Nth 1);
      let _, _, g_new = make_engines () in
      (try G.save g_new path with _ -> ());
      exit 9 (* only reached if the failpoint did not abort *)

(* The pattern -> suffix-range step allocates nothing per probe, on a
   packed memory-mapped engine and on the heap-built one alike: a
   served query pays for it on every request. Each call may allocate a
   few words (the [Some (sp, ep)] answer); the bound leaves room for
   those, not for a block per binary-search or gallop step or a boxed
   table lookup, which cost hundreds of words a call. *)
let test_suffix_range_allocation () =
  let rng = H.rng_of_seed 91 in
  let u = H.random_ustring rng 3000 4 3 in
  let g = G.build ~tau_min:0.1 u in
  with_tmp (fun path ->
      G.save g path;
      let e = G.engine (G.load path) in
      let patterns =
        Array.init 200 (fun i ->
            if i mod 4 = 0 then H.random_letters rng 4 (1 + (i mod 9))
            else H.random_pattern rng u 24)
      in
      (* the packed engine answers exactly as the heap-built one *)
      Array.iter
        (fun pattern ->
          Alcotest.(check (option (pair int int)))
            "same range as the heap engine"
            (Engine.suffix_range (G.engine g) ~pattern)
            (Engine.suffix_range e ~pattern))
        patterns;
      List.iter
        (fun (what, e) ->
          let w0 = Gc.minor_words () in
          Array.iter (fun pattern -> ignore (Engine.suffix_range e ~pattern)) patterns;
          let per_call =
            (Gc.minor_words () -. w0) /. float_of_int (Array.length patterns)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.1f minor words per suffix_range" what per_call)
            true (per_call <= 16.0))
        [ ("mapped", e); ("heap", G.engine g) ])

(* [Engine.suffix_range] of heap-built and mapped packed engines, both
   running the bucketed search, against the restart-every-probe oracle
   over the engine's own transformed text and suffix array. Uncertain
   strings over 1–40 symbols, with codes above 255 in half the cases;
   the transformed text separates its factors with separator runs.
   Patterns: substrings of the text shorter than, as long as and longer
   than q, perturbed ones, ones with a symbol the text lacks, and text
   suffixes run past the text's end. *)
let prop_engine_suffix_range =
  QCheck2.Test.make ~name:"engine suffix_range = naive (qcheck)" ~count:20
    QCheck2.Gen.(triple (int_range 1 40) bool int)
    (fun (sigma, high, seed) ->
      let module Sa_search = Pti_suffix.Sa_search in
      let rng = Random.State.make [| seed |] in
      let code i = if high then 250 + (7 * i) else 2 + i in
      let sym () =
        code (Stdlib.min (Random.State.int rng sigma) (Random.State.int rng sigma))
      in
      let u =
        U.make
          (Array.init (200 + Random.State.int rng 1200) (fun _ ->
               let c = 1 + Random.State.int rng (Stdlib.min 3 sigma) in
               let syms = ref [] in
               while List.length !syms < c do
                 let s = sym () in
                 if not (List.mem s !syms) then syms := s :: !syms
               done;
               Array.of_list
                 (List.map (fun s -> { U.sym = s; prob = 1.0 /. float_of_int c }) !syms)))
      in
      let g = G.build ~tau_min:0.1 u in
      with_tmp (fun path ->
          G.save g path;
          let gm = G.load path in
          let text = Pti_transform.Transform.text (G.transform g) in
          let sa = Pti_suffix.Sais.suffix_array text in
          let n = Array.length text in
          let q = Sa_search.Qgram.q (Sa_search.Heap.qgram text) in
          let sub m =
            let m = Stdlib.min m n in
            Array.sub text (Random.State.int rng (n - m + 1)) m
          in
          let pats = ref [] in
          let add p = pats := p :: !pats in
          List.iter
            (fun m ->
              for _ = 1 to 4 do
                add (sub m);
                let p = sub m in
                p.(Array.length p - 1) <- sym ();
                add p;
                let p = sub m in
                p.(Random.State.int rng (Array.length p)) <- code sigma;
                add p
              done)
            [ 1; 2; Stdlib.max 1 (q - 1); q; q + 1; q + 3; 12; 25 ];
          add (Array.append (Array.sub text (n - 2) 2) [| sym () |]);
          add (Array.append (sub (1 + Random.State.int rng 30)) [| sym (); sym () |]);
          let valid p =
            Array.length p > 0
            && not (Array.exists (fun s -> s = Pti_ustring.Sym.separator) p)
          in
          List.for_all
            (fun pattern ->
              let want = Sa_search.range_naive ~text ~sa ~pattern in
              Engine.suffix_range (G.engine g) ~pattern = want
              && Engine.suffix_range (G.engine gm) ~pattern = want)
            (List.filter valid !pats)))

let () =
  Alcotest.run "pti_storage"
    [
      ( "container",
        [
          Alcotest.test_case "roundtrip" `Quick test_container_roundtrip;
          Alcotest.test_case "writer rejects bad sections" `Quick
            test_container_writer_rejects;
          Alcotest.test_case "bit flips name the section" `Quick
            test_container_bitflip;
          Alcotest.test_case "truncation rejected" `Quick
            test_container_truncation;
        ] );
      ( "packed",
        [
          Alcotest.test_case "width boundaries and sentinels" `Quick
            test_packed_widths;
          Alcotest.test_case "random arrays roundtrip" `Quick
            test_packed_roundtrip_prop;
          Alcotest.test_case "packed sections detect corruption" `Quick
            test_packed_corruption;
          Alcotest.test_case "mapped views re-save byte-identical" `Quick
            test_packed_resave;
          Alcotest.test_case "suffix_range allocation-free" `Quick
            test_suffix_range_allocation;
          QCheck_alcotest.to_alcotest prop_engine_suffix_range;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "engine survives any bit flip" `Quick
            test_engine_bitflip;
          Alcotest.test_case "engine truncation rejected" `Quick
            test_engine_truncation;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "general config matrix" `Slow test_roundtrip_matrix;
          Alcotest.test_case "succinct backend" `Quick
            test_roundtrip_succinct_backend;
          Alcotest.test_case "succinct sections detect corruption" `Quick
            test_succinct_engine_corruption;
          Alcotest.test_case "mapped engines re-save byte-identical" `Quick
            test_roundtrip_resave;
          Alcotest.test_case "listing metrics and correlations" `Slow
            test_roundtrip_listing;
          Alcotest.test_case "special index" `Quick test_roundtrip_special;
          Alcotest.test_case "query_batch on 4 domains" `Quick
            test_roundtrip_batch_domains;
        ] );
      ( "retired",
        [
          Alcotest.test_case "magics refused up front" `Quick
            test_retired_magics;
          Alcotest.test_case "marshal headers refused up front" `Quick
            test_retired_marshal_header;
          Alcotest.test_case "Fischer-Heun RMQ refused" `Quick
            test_retired_fischer_heun;
          Alcotest.test_case "engine layouts refused before unmarshalling"
            `Quick test_retired_engine_layouts;
        ] );
      ( "fault",
        [
          Alcotest.test_case "failed save keeps old container" `Quick
            test_fault_save_keeps_old;
          Alcotest.test_case "ENOSPC at a chunk boundary" `Quick
            test_fault_enospc_chunk_boundary;
          Alcotest.test_case "post-rename fault leaves new container" `Quick
            test_fault_after_rename_leaves_new;
          Alcotest.test_case "short writes and EINTR resume" `Quick
            test_fault_short_write_resumes;
          Alcotest.test_case "abort mid-save (fork)" `Quick
            test_fault_abort_mid_save;
        ] );
    ]
