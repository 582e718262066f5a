(* Tests for Listing_index (§6, Problem 2), both relevance metrics,
   against per-document oracle computation. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Oracle = Pti_ustring.Oracle
module Logp = Pti_prob.Logp
module L = Pti_core.Listing_index
module H = Pti_test_helpers

(* Oracle Rel_max per document. *)
let want_max docs pat tau =
  List.concat
    (List.mapi
       (fun k d ->
         if Logp.to_prob (Oracle.relevance_max d ~pattern:pat) > tau then [ k ]
         else [])
       docs)

(* Oracle Rel_or restricted to occurrences visible at construction
   (probability >= tau_min); see the mli note on Rel_or semantics. *)
let rel_or_visible d pat tau_min =
  let m = Array.length pat in
  let sum = ref 0.0 and prod = ref 1.0 and any = ref false in
  for pos = 0 to U.length d - m do
    let p = Logp.to_prob (Oracle.occurrence_logp d ~pattern:pat ~pos) in
    if p >= tau_min -. 1e-12 then begin
      any := true;
      sum := !sum +. p;
      prod := !prod *. p
    end
  done;
  if !any then Float.max 0.0 (Float.min 1.0 (!sum -. !prod)) else 0.0

let want_or docs pat tau_min tau =
  List.concat
    (List.mapi
       (fun k d -> if rel_or_visible d pat tau_min > tau then [ k ] else [])
       docs)

let random_docs rng =
  let nd = 2 + Random.State.int rng 5 in
  List.init nd (fun _ -> H.random_ustring rng (2 + Random.State.int rng 15) 3 2)

let pattern_from_docs rng docs maxm =
  let d = List.nth docs (Random.State.int rng (List.length docs)) in
  H.random_pattern rng d maxm

let test_rel_max_random () =
  let rng = H.rng_of_seed 71 in
  for _ = 1 to 150 do
    let docs = random_docs rng in
    let tau_min = 0.05 +. Random.State.float rng 0.2 in
    let tau = tau_min +. Random.State.float rng (0.7 -. tau_min) in
    let l = L.build ~tau_min docs in
    let pat = pattern_from_docs rng docs 8 in
    let got = L.query l ~pattern:pat ~tau in
    Alcotest.(check (list int)) "docs" (want_max docs pat tau) (H.sorted_fst got);
    H.check_sorted_desc "listing" got;
    (* reported relevance equals the oracle Rel_max *)
    List.iter
      (fun (k, lp) ->
        let w = Oracle.relevance_max (List.nth docs k) ~pattern:pat in
        if not (Logp.approx_equal ~eps:1e-9 lp w) then
          Alcotest.failf "rel_max value mismatch doc %d" k)
      got
  done

let test_rel_or_random () =
  let rng = H.rng_of_seed 72 in
  for _ = 1 to 120 do
    let docs = random_docs rng in
    let tau_min = 0.05 +. Random.State.float rng 0.2 in
    let tau = tau_min +. Random.State.float rng (0.7 -. tau_min) in
    let l = L.build ~relevance:L.Rel_or ~tau_min docs in
    let pat = pattern_from_docs rng docs 6 in
    Alcotest.(check (list int)) "docs (or)"
      (want_or docs pat tau_min tau)
      (H.sorted_fst (L.query l ~pattern:pat ~tau))
  done

let test_figure2_example () =
  (* Figure 2: D = {d1, d2, d3}; query ("BF", 0.1) returns exactly d1.
     d1 = A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5
     d2 = A:.6,C:.4 | B:.5,F:.3,J:.2 | B:.4,C:.3,E:.2,F:.1
     d3 = A:.4,F:.4,P:.2 | I:.3,L:.3,F:.1,T:.3 | A:1 *)
  let d1 = U.parse "A:.4,B:.3,F:.3 B:.3,L:.3,F:.3,J:.1 F:.5,J:.5" in
  let d2 = U.parse "A:.6,C:.4 B:.5,F:.3,J:.2 B:.4,C:.3,E:.2,F:.1" in
  let d3 = U.parse "A:.4,F:.4,P:.2 I:.3,L:.3,F:.1,T:.3 A" in
  let l = L.build ~tau_min:0.04 [ d1; d2; d3 ] in
  Alcotest.(check (list int)) "only d1" [ 0 ]
    (H.sorted_fst (L.query_string l ~pattern:"BF" ~tau:0.1));
  (* d1's relevance: BF at 0 = .3*.3 = .09 <= .1; BF at 1 = .3*.5 = .15 > .1 *)
  (match L.query_string l ~pattern:"BF" ~tau:0.1 with
  | [ (0, p) ] -> Alcotest.(check (float 1e-9)) "rel" 0.15 (Logp.to_prob p)
  | _ -> Alcotest.fail "expected exactly d1");
  (* at tau = 0.05, d2 (max .15) and d3 (.4*.1=.04 no) — d2's BF: .5*...?
     d2 BF at 1: F at 2 = .1 -> .5*.1 = .05; not > .05. BF at 0? B not at 0.
     So tau=.049: d1 and d2. *)
  Alcotest.(check (list int)) "tau .049" [ 0; 1 ]
    (H.sorted_fst (L.query_string l ~pattern:"BF" ~tau:0.049))

let test_or_vs_max_differ () =
  (* a document whose individual occurrences are below tau but whose OR
     combination exceeds it: listed by Rel_or, not by Rel_max *)
  let d = U.parse "B:.5 F:.5 B:.5 F:.5 B:.5 F:.5" in
  (* BF occurs at 0, 2, 4 each with .25; OR = .75 - .015625 = .734 *)
  let other = U.parse "A B C" in
  let lm = L.build ~tau_min:0.1 [ d; other ] in
  let lo = L.build ~relevance:L.Rel_or ~tau_min:0.1 [ d; other ] in
  let pat = Sym.of_string "BF" in
  Alcotest.(check (list int)) "max misses" []
    (H.sorted_fst (L.query lm ~pattern:pat ~tau:0.5));
  Alcotest.(check (list int)) "or lists" [ 0 ]
    (H.sorted_fst (L.query lo ~pattern:pat ~tau:0.5));
  (match L.query lo ~pattern:pat ~tau:0.5 with
  | [ (0, p) ] ->
      Alcotest.(check (float 1e-9)) "or value" (0.75 -. 0.015625) (Logp.to_prob p)
  | _ -> Alcotest.fail "expected d0")

let test_long_patterns () =
  let rng = H.rng_of_seed 73 in
  for _ = 1 to 40 do
    let docs =
      List.init (2 + Random.State.int rng 3) (fun _ ->
          H.random_ustring rng (20 + Random.State.int rng 15) 3 2)
    in
    let tau_min = 0.02 in
    let lm = L.build ~tau_min docs in
    let lo = L.build ~relevance:L.Rel_or ~tau_min docs in
    let e = L.engine lm in
    let m = Pti_core.Engine.max_short e + 1 + Random.State.int rng 5 in
    let d0 = List.hd docs in
    if m <= U.length d0 then begin
      let start = Random.State.int rng (U.length d0 - m + 1) in
      let pat = H.pattern_at rng d0 ~start ~m in
      let tau = tau_min +. Random.State.float rng 0.2 in
      Alcotest.(check (list int)) "long max"
        (want_max docs pat tau)
        (H.sorted_fst (L.query lm ~pattern:pat ~tau));
      Alcotest.(check (list int)) "long or"
        (want_or docs pat tau_min tau)
        (H.sorted_fst (L.query lo ~pattern:pat ~tau))
    end
  done

let test_build_validation () =
  Alcotest.(check bool) "empty collection" true
    (try
       ignore (L.build ~tau_min:0.1 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty document" true
    (try
       ignore (L.build ~tau_min:0.1 [ U.of_string "A"; U.make [||] ]);
       false
     with Invalid_argument _ -> true)

let test_accessors () =
  let docs = [ U.of_string "ABC"; U.of_string "DEF" ] in
  let l = L.build ~tau_min:0.1 docs in
  Alcotest.(check int) "n_docs" 2 (L.n_docs l);
  Alcotest.(check bool) "doc access" true (U.length (L.doc l 1) = 3);
  Alcotest.(check bool) "relevance default" true (L.relevance l = L.Rel_max);
  Alcotest.(check bool) "size" true (L.size_words l > 0)

let test_count_matches_query () =
  let rng = H.rng_of_seed 74 in
  for _ = 1 to 40 do
    let docs = random_docs rng in
    let l = L.build ~tau_min:0.1 docs in
    let pat = pattern_from_docs rng docs 5 in
    Alcotest.(check int) "count = |query|"
      (List.length (L.query l ~pattern:pat ~tau:0.15))
      (L.count l ~pattern:pat ~tau:0.15)
  done

let prop_listing =
  QCheck2.Test.make ~name:"listing rel_max = oracle (qcheck)" ~count:80
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* tau_min = float_range 0.05 0.25 in
      let* tau_off = float_range 0.0 0.4 in
      return (seed, tau_min, tau_off))
    (fun (seed, tau_min, tau_off) ->
      let rng = H.rng_of_seed seed in
      let docs = random_docs rng in
      let tau = Float.min 0.9 (tau_min +. tau_off) in
      let pat = pattern_from_docs rng docs 6 in
      let l = L.build ~tau_min docs in
      H.sorted_fst (L.query l ~pattern:pat ~tau) = want_max docs pat tau)

(* ------------------------------------------------------------------ *)
(* Persisted documents: a saved listing's documents decode to the very
   strings it was built from, and damaged document encodings
   (bit-flipped, truncated or random, checksums valid) decode to a value
   or raise a typed Corrupt, never another exception. Each container
   carries [per_file] independently damaged documents, which [doc]
   decodes one by one; every fifth container also damages the offsets
   that delimit them. *)

let test_docs_fuzz () =
  let module S = Pti_storage in
  let rng = H.rng_of_seed 93 in
  let fresh () =
    Pti_workload.Dataset.add_random_correlations rng
      (H.random_ustring rng (3 + Random.State.int rng 10) 3 3)
      ~count:2
  in
  let docs = List.init 4 (fun _ -> fresh ()) in
  let pool = Array.init 32 (fun _ -> U.encode (fresh ())) in
  let path = Filename.temp_file "pti_listing_docs" ".idx" in
  let pristine = path ^ ".pristine" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; pristine ])
    (fun () ->
      L.save (L.build ~tau_min:0.1 docs) pristine;
      let l = L.load pristine in
      List.iteri
        (fun k d -> Alcotest.(check bool) "document preserved" true (L.doc l k = d))
        docs;
      let per_file = 100 in
      let decoded = ref 0 and refused = ref 0 in
      for file = 1 to 120 do
        let enc =
          Array.init per_file (fun _ ->
              H.mangle rng pool.(Random.State.int rng (Array.length pool)))
        in
        let offsets = Array.make (per_file + 1) 0 in
        Array.iteri (fun k e -> offsets.(k + 1) <- offsets.(k) + String.length e) enc;
        if file mod 5 = 0 then begin
          let i = Random.State.int rng (per_file + 1) in
          offsets.(i) <-
            (if Random.State.bool rng then Random.State.full_int rng max_int
             else offsets.(i) + Random.State.int rng 7 - 3)
        end;
        H.rewrite_container ~src:pristine ~dst:path (function
          | "listing.meta" -> Some (H.Ints [| L.relevance_tag L.Rel_max; per_file |])
          | "listing.docs" -> Some (H.Bytes (String.concat "" (Array.to_list enc)))
          | "listing.doc_offsets" -> Some (H.Ints offsets)
          | _ -> None);
        let each f =
          match f () with
          | () -> incr decoded
          | exception S.Corrupt _ -> incr refused
          | exception e ->
              Alcotest.failf "container %d: %s escaped the document decoder" file
                (Printexc.to_string e)
        in
        match L.load ~verify:false path with
        | l -> for k = 0 to per_file - 1 do each (fun () -> ignore (L.doc l k : U.t)) done
        | exception S.Corrupt _ -> incr refused
      done;
      Alcotest.(check bool) "10 000 documents decoded or refused" true
        (!decoded + !refused >= 10_000);
      Alcotest.(check bool) "some documents decode" true (!decoded > 0);
      Alcotest.(check bool) "some documents are refused" true (!refused > 0))

let () =
  Alcotest.run "pti_listing"
    [
      ( "rel_max",
        [
          Alcotest.test_case "random vs oracle" `Quick test_rel_max_random;
          Alcotest.test_case "figure 2 worked example" `Quick test_figure2_example;
          Alcotest.test_case "count" `Quick test_count_matches_query;
          QCheck_alcotest.to_alcotest prop_listing;
        ] );
      ( "rel_or",
        [
          Alcotest.test_case "random vs oracle" `Quick test_rel_or_random;
          Alcotest.test_case "or lists what max misses" `Quick test_or_vs_max_differ;
        ] );
      ( "long_patterns",
        [ Alcotest.test_case "both metrics" `Quick test_long_patterns ] );
      ( "api",
        [
          Alcotest.test_case "build validation" `Quick test_build_validation;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "persisted documents fuzzed" `Quick test_docs_fuzz;
        ] );
    ]
