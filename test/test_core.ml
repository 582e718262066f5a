(* Tests for the exact indexes: General_index (§5), Special_index (§4),
   Simple_index (§4.1). Ground truth is the index-free Oracle. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Oracle = Pti_ustring.Oracle
module Logp = Pti_prob.Logp
module Engine = Pti_core.Engine
module G = Pti_core.General_index
module Sp = Pti_core.Special_index
module Si = Pti_core.Simple_index
module H = Pti_test_helpers

let oracle_positions u pat tau =
  H.sorted_fst (Oracle.occurrences u ~pattern:pat ~tau:(Logp.of_prob tau))

let check_against_oracle ?config u ~tau_min ~tau ~pat =
  let g = G.build ?config ~tau_min u in
  let got = G.query g ~pattern:pat ~tau in
  let want = oracle_positions u pat tau in
  Alcotest.(check (list int)) "positions" want (H.sorted_fst got);
  H.check_sorted_desc "general" got;
  List.iter
    (fun (p, lp) ->
      let w = Oracle.occurrence_logp u ~pattern:pat ~pos:p in
      if not (Logp.approx_equal ~eps:1e-9 lp w) then
        Alcotest.failf "prob mismatch at %d: %s vs %s" p (Logp.to_string lp)
          (Logp.to_string w))
    got

let test_general_random () =
  let rng = H.rng_of_seed 51 in
  for _ = 1 to 250 do
    let n = 2 + Random.State.int rng 35 in
    let u = H.random_ustring rng n 4 3 in
    let tau_min = 0.05 +. Random.State.float rng 0.25 in
    let tau = tau_min +. Random.State.float rng (0.9 -. tau_min) in
    let pat = H.random_pattern rng u 12 in
    check_against_oracle u ~tau_min ~tau ~pat
  done

let test_general_long_patterns () =
  (* patterns beyond the log N short-pattern boundary take the blocking
     path *)
  let rng = H.rng_of_seed 52 in
  for _ = 1 to 60 do
    let n = 25 + Random.State.int rng 25 in
    let u = H.random_ustring rng n 3 2 in
    let tau_min = 0.02 in
    let g = G.build ~tau_min u in
    let m = Engine.max_short (G.engine g) + 1 + Random.State.int rng 8 in
    if m <= n then begin
      let start = Random.State.int rng (n - m + 1) in
      let pat = H.pattern_at rng u ~start ~m in
      let tau = tau_min +. Random.State.float rng 0.2 in
      let got = G.query g ~pattern:pat ~tau in
      Alcotest.(check (list int))
        "long pattern positions"
        (oracle_positions u pat tau)
        (H.sorted_fst got)
    end
  done

let test_general_absent_pattern () =
  let u = H.random_ustring (H.rng_of_seed 53) 20 3 2 in
  let g = G.build ~tau_min:0.1 u in
  (* symbol outside the alphabet of the string *)
  Alcotest.(check (list int)) "no match" []
    (H.sorted_fst (G.query g ~pattern:[| Char.code 'z' |] ~tau:0.2))

let test_general_tau_equals_tau_min () =
  let rng = H.rng_of_seed 54 in
  for _ = 1 to 60 do
    let u = H.random_ustring rng (2 + Random.State.int rng 25) 4 3 in
    let tau_min = 0.1 +. Random.State.float rng 0.2 in
    let g = G.build ~tau_min u in
    let pat = H.random_pattern rng u 8 in
    Alcotest.(check (list int)) "tau = tau_min"
      (oracle_positions u pat tau_min)
      (H.sorted_fst (G.query g ~pattern:pat ~tau:tau_min))
  done

let test_general_correlated () =
  let rng = H.rng_of_seed 55 in
  for _ = 1 to 80 do
    let n = 4 + Random.State.int rng 15 in
    let u = H.random_ustring rng n 3 3 in
    let u = Pti_workload.Dataset.add_random_correlations rng u ~count:3 in
    let tau_min = 0.05 +. Random.State.float rng 0.2 in
    let tau = tau_min +. Random.State.float rng (0.8 -. tau_min) in
    let pat = H.random_pattern rng u 8 in
    check_against_oracle u ~tau_min ~tau ~pat
  done

let test_config_variants_agree () =
  let rng = H.rng_of_seed 56 in
  let configs =
    List.concat_map
      (fun backend ->
        List.map
          (fun ladder -> (backend, { Engine.default_config with ladder }))
          [ Engine.Ladder_geometric; Engine.Ladder_full; Engine.Ladder_none ])
      [ Engine.Packed; Engine.Succinct ]
  in
  for _ = 1 to 25 do
    let u = H.random_ustring rng (5 + Random.State.int rng 25) 3 3 in
    let tau_min = 0.1 in
    let pat = H.random_pattern rng u 20 in
    let tau = 0.1 +. Random.State.float rng 0.5 in
    let want = oracle_positions u pat tau in
    List.iter
      (fun (backend, config) ->
        let g = G.build ~config ~backend ~tau_min u in
        Alcotest.(check (list int))
          "config variant agrees" want
          (H.sorted_fst (G.query g ~pattern:pat ~tau)))
      configs
  done

let test_invalid_queries () =
  let u = H.random_ustring (H.rng_of_seed 57) 10 3 2 in
  let g = G.build ~tau_min:0.2 u in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "tau below tau_min" true
    (raises (fun () -> ignore (G.query g ~pattern:[| Char.code 'A' |] ~tau:0.1)));
  Alcotest.(check bool) "tau > 1" true
    (raises (fun () -> ignore (G.query g ~pattern:[| Char.code 'A' |] ~tau:1.5)));
  Alcotest.(check bool) "empty pattern" true
    (raises (fun () -> ignore (G.query g ~pattern:[||] ~tau:0.5)));
  Alcotest.(check bool) "separator in pattern" true
    (raises (fun () -> ignore (G.query g ~pattern:[| Sym.separator |] ~tau:0.5)));
  Alcotest.(check bool) "empty string rejected at build" true
    (raises (fun () -> ignore (G.build ~tau_min:0.2 (U.make [||]))))

(* Special index (§4): arbitrary τ, no transformation. *)

let random_special rng n =
  U.make
    (Array.init n (fun _ ->
         [|
           {
             U.sym = Char.code 'A' + Random.State.int rng 4;
             prob = 0.2 +. Random.State.float rng 0.8;
           };
         |]))

let test_special_random () =
  let rng = H.rng_of_seed 58 in
  for _ = 1 to 200 do
    let n = 2 + Random.State.int rng 50 in
    let u = random_special rng n in
    let sp = Sp.build u in
    let pat = H.random_pattern rng u 15 in
    (* arbitrary tau, including below any sensible tau_min *)
    let tau = Random.State.float rng 0.9 in
    let got = Sp.query sp ~pattern:pat ~tau in
    Alcotest.(check (list int)) "special positions"
      (oracle_positions u pat tau)
      (H.sorted_fst got);
    H.check_sorted_desc "special" got
  done

let test_special_figure5 () =
  (* Figure 5: X = (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6); query ("ana", .3)
     must output exactly position 3 (0-based; the figure's position 4 is
     1-based) with probability .8*.9*.6 = .432. *)
  let x = U.parse "b:.4 a:.7 n:.5 a:.8 n:.9 a:.6" in
  let sp = Sp.build x in
  let got = Sp.query_string sp ~pattern:"ana" ~tau:0.3 in
  Alcotest.(check (list int)) "position" [ 3 ] (List.map fst got);
  Alcotest.(check (float 1e-9)) "probability" 0.432
    (Logp.to_prob (snd (List.hd got)));
  (* lowering tau surfaces position 1 too (.7*.5*.8 = .28) *)
  Alcotest.(check (list int)) "lower tau" [ 1; 3 ]
    (H.sorted_fst (Sp.query_string sp ~pattern:"ana" ~tau:0.2))

let test_special_rejects_general () =
  Alcotest.(check bool) "general string rejected" true
    (try
       ignore (Sp.build (U.parse "A:.5,B:.5"));
       false
     with Invalid_argument _ -> true)

(* Simple index baseline must agree with the efficient index
   everywhere. *)
let test_simple_agrees () =
  let rng = H.rng_of_seed 59 in
  for _ = 1 to 120 do
    let n = 2 + Random.State.int rng 30 in
    let u = H.random_ustring rng n 4 3 in
    let tau_min = 0.05 +. Random.State.float rng 0.25 in
    let tau = tau_min +. Random.State.float rng (0.9 -. tau_min) in
    let pat = H.random_pattern rng u 10 in
    let g = G.build ~tau_min u in
    let si = Si.build ~tau_min u in
    Alcotest.(check (list int))
      "simple = efficient"
      (H.sorted_fst (G.query g ~pattern:pat ~tau))
      (H.sorted_fst (Si.query si ~pattern:pat ~tau))
  done

let test_simple_special () =
  let rng = H.rng_of_seed 60 in
  for _ = 1 to 60 do
    let u = random_special rng (2 + Random.State.int rng 40) in
    let si = Si.build_special u in
    let pat = H.random_pattern rng u 10 in
    let tau = Random.State.float rng 0.8 in
    Alcotest.(check (list int)) "simple special = oracle"
      (oracle_positions u pat tau)
      (H.sorted_fst (Si.query si ~pattern:pat ~tau))
  done

let test_range_size () =
  let u = U.of_string "AAAAAAAAAA" in
  let si = Si.build_special u in
  Alcotest.(check int) "range covers all suffixes" 10
    (Si.range_size si ~pattern:[| Char.code 'A' |])

(* stream and top-k agree with query and stop early *)
let test_stream_topk () =
  let rng = H.rng_of_seed 62 in
  for _ = 1 to 80 do
    let n = 2 + Random.State.int rng 35 in
    let u = H.random_ustring rng n 4 3 in
    let tau_min = 0.05 +. Random.State.float rng 0.2 in
    let tau = tau_min +. Random.State.float rng (0.8 -. tau_min) in
    let g = G.build ~tau_min u in
    let pat = H.random_pattern rng u 10 in
    let full = G.query g ~pattern:pat ~tau in
    Alcotest.(check bool) "stream = query" true
      (List.of_seq (G.stream g ~pattern:pat ~tau) = full);
    let k = Random.State.int rng 5 in
    let topk = G.query_top_k g ~pattern:pat ~tau ~k in
    Alcotest.(check bool) "top-k is a prefix of query" true
      (topk = List.filteri (fun i _ -> i < k) full)
  done;
  (* k = 0 and oversized k *)
  let u = H.random_ustring (H.rng_of_seed 63) 20 3 2 in
  let g = G.build ~tau_min:0.1 u in
  let pat = H.random_pattern (H.rng_of_seed 64) u 3 in
  Alcotest.(check (list (pair int H.logp_testable))) "k=0" []
    (G.query_top_k g ~pattern:pat ~tau:0.1 ~k:0);
  Alcotest.(check bool) "huge k = full" true
    (G.query_top_k g ~pattern:pat ~tau:0.1 ~k:10_000
    = G.query g ~pattern:pat ~tau:0.1)

(* top-k edges survive persistence: k=0, k beyond the answer set, and
   tie-break order must all be identical between the freshly built
   engine and its mmap-loaded copy (ordering may not depend on which
   representation backs the arrays) *)
let test_topk_mmap_stability () =
  (* a uniform string produces many exactly-tied answer probabilities *)
  let mono = U.parse "A:.9 A:.9 A:.9 A:.9 A:.9 A:.9 A:.9 A:.9" in
  let rng = H.rng_of_seed 67 in
  let cases = [ mono; H.random_ustring rng 40 4 3 ] in
  List.iter
    (fun u ->
      let g = G.build ~tau_min:0.1 u in
      let path = Filename.temp_file "pti_topk" ".idx" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          G.save g path;
          let g' = G.load path in
          for _ = 1 to 25 do
            let m = 1 + Random.State.int rng 4 in
            let pat = H.random_pattern rng u m in
            let tau = 0.1 +. Random.State.float rng 0.6 in
            let full = G.query g ~pattern:pat ~tau in
            List.iter
              (fun k ->
                let heap = G.query_top_k g ~pattern:pat ~tau ~k in
                let mmapd = G.query_top_k g' ~pattern:pat ~tau ~k in
                Alcotest.(check bool)
                  (Printf.sprintf "heap/mmap top-%d identical (ties too)" k)
                  true (heap = mmapd);
                Alcotest.(check bool) "prefix of the full ranking" true
                  (heap = List.filteri (fun i _ -> i < k) full))
              [ 0; 1; 2; 3; List.length full; List.length full + 50 ]
          done))
    cases

let test_stream_lazy () =
  (* consuming only the head of the stream must not visit the rest:
     check it returns the single most probable answer *)
  let u = U.parse "A:.9,B:.1 A:.9,B:.1 A:.9,B:.1 A:.9,B:.1 A:.9,B:.1" in
  let g = G.build ~tau_min:0.1 u in
  (match (G.stream g ~pattern:[| Char.code 'A' |] ~tau:0.1) () with
  | Seq.Cons ((_, p), _) ->
      Alcotest.(check (float 1e-9)) "head is max" 0.9 (Logp.to_prob p)
  | Seq.Nil -> Alcotest.fail "empty stream")

let test_engine_introspection () =
  let u = H.random_ustring (H.rng_of_seed 61) 20 3 2 in
  let g = G.build ~tau_min:0.1 u in
  let e = G.engine g in
  Alcotest.(check bool) "size positive" true (Engine.size_words e > 0);
  Alcotest.(check bool) "stats nonempty" true (String.length (Engine.stats e) > 0);
  Alcotest.(check bool) "max_short sane" true (Engine.max_short e >= 1);
  (match Engine.suffix_range e ~pattern:(H.random_pattern (H.rng_of_seed 1) u 3) with
  | Some (l, r) -> Alcotest.(check bool) "range ordered" true (l <= r)
  | None -> ());
  Alcotest.(check bool) "space pretty printing" true
    (String.length (Pti_core.Space.to_string (Engine.size_words e)) > 0)

(* degenerate and boundary inputs *)
let test_edge_cases () =
  (* single-position string *)
  let u1 = U.parse "A:.7,B:.3" in
  let g1 = G.build ~tau_min:0.1 u1 in
  Alcotest.(check (list int)) "single pos hit" [ 0 ]
    (H.sorted_fst (G.query g1 ~pattern:[| Char.code 'A' |] ~tau:0.5));
  Alcotest.(check (list int)) "single pos miss" []
    (H.sorted_fst (G.query g1 ~pattern:[| Char.code 'B' |] ~tau:0.5));
  (* tau = 1.0: strict comparison, so even certain matches are excluded *)
  let det = U.of_string "ABCABC" in
  let gd = G.build ~tau_min:0.5 det in
  Alcotest.(check (list int)) "tau=1 excludes certainty" []
    (H.sorted_fst (G.query gd ~pattern:(Pti_ustring.Sym.of_string "ABC") ~tau:1.0));
  Alcotest.(check (list int)) "just below 1" [ 0; 3 ]
    (H.sorted_fst
       (G.query gd ~pattern:(Pti_ustring.Sym.of_string "ABC") ~tau:0.999));
  (* pattern = the entire string *)
  let u = U.parse "A:.9 B:.8 C:.9" in
  let g = G.build ~tau_min:0.1 u in
  Alcotest.(check (list int)) "whole string" [ 0 ]
    (H.sorted_fst (G.query g ~pattern:(Pti_ustring.Sym.of_string "ABC") ~tau:0.5));
  (* unary alphabet with repeats: heavy duplicate elimination *)
  let mono = U.parse "A:.9 A:.9 A:.9 A:.9 A:.9 A:.9" in
  let gm = G.build ~tau_min:0.1 mono in
  List.iter
    (fun (m, tau, want) ->
      Alcotest.(check (list int))
        (Printf.sprintf "mono m=%d tau=%g" m tau)
        want
        (H.sorted_fst
           (G.query gm ~pattern:(Array.make m (Char.code 'A')) ~tau)))
    [
      (1, 0.5, [ 0; 1; 2; 3; 4; 5 ]);
      (2, 0.8, [ 0; 1; 2; 3; 4 ]);
      (* 0.9^2 = .81 > .8 *)
      (2, 0.81, []);
      (6, 0.5, [ 0 ]);
      (* 0.9^6 = .531 *)
      (6, 0.54, []);
    ]

(* save/load roundtrips: identical answers, bad headers rejected *)
let test_persistence () =
  let rng = H.rng_of_seed 65 in
  for _ = 1 to 20 do
    let u = H.random_ustring rng (5 + Random.State.int rng 30) 4 3 in
    let g = G.build ~tau_min:0.1 u in
    let path = Filename.temp_file "pti_test" ".idx" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        G.save g path;
        let g' = G.load path in
        for _ = 1 to 10 do
          let pat = H.random_pattern rng u 8 in
          let tau = 0.1 +. Random.State.float rng 0.6 in
          Alcotest.(check bool) "loaded index answers identically" true
            (G.query g ~pattern:pat ~tau = G.query g' ~pattern:pat ~tau)
        done)
  done;
  (* a file without the magic header is rejected *)
  let path = Filename.temp_file "pti_test" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let oc = open_out path in
      output_string oc "not an index";
      close_out oc;
      (* EXPECTATION CHANGE: refused by the container header check *)
      Alcotest.(check bool) "bad magic rejected" true
        (try
           ignore (G.load path);
           false
         with Pti_storage.Corrupt { section = "header"; _ } -> true))

let test_persistence_listing () =
  let rng = H.rng_of_seed 66 in
  for _ = 1 to 10 do
    let docs =
      List.init (2 + Random.State.int rng 4) (fun _ ->
          H.random_ustring rng (3 + Random.State.int rng 15) 3 2)
    in
    let l = Pti_core.Listing_index.build ~tau_min:0.1 docs in
    let path = Filename.temp_file "pti_test" ".idx" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        Pti_core.Listing_index.save l path;
        let l' = Pti_core.Listing_index.load path in
        Alcotest.(check int) "docs preserved"
          (Pti_core.Listing_index.n_docs l)
          (Pti_core.Listing_index.n_docs l');
        for _ = 1 to 10 do
          let d0 = List.nth docs (Random.State.int rng (List.length docs)) in
          let pat = H.random_pattern rng d0 6 in
          let tau = 0.1 +. Random.State.float rng 0.5 in
          Alcotest.(check bool) "loaded listing answers identically" true
            (Pti_core.Listing_index.query l ~pattern:pat ~tau
            = Pti_core.Listing_index.query l' ~pattern:pat ~tau)
        done)
  done

let prop_general_matches_oracle =
  QCheck2.Test.make ~name:"general index = oracle (qcheck)" ~count:150
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 25 in
      let* tau_min = float_range 0.05 0.3 in
      let* tau_off = float_range 0.0 0.5 in
      return (seed, n, tau_min, tau_off))
    (fun (seed, n, tau_min, tau_off) ->
      let rng = H.rng_of_seed seed in
      let u = H.random_ustring rng n 4 3 in
      let tau = Float.min 0.95 (tau_min +. tau_off) in
      let pat = H.random_pattern rng u 8 in
      let g = G.build ~tau_min u in
      H.sorted_fst (G.query g ~pattern:pat ~tau) = oracle_positions u pat tau)

(* [max_range]: a suffix range over the budget raises Over_budget, for
   short and long patterns and for top-k alike; within it the answer is
   the unbudgeted one. *)
let test_work_budget () =
  let rng = H.rng_of_seed 57 in
  for _ = 1 to 300 do
    let u = H.random_ustring rng (20 + Random.State.int rng 60) 3 3 in
    let tau_min = 0.05 +. Random.State.float rng 0.2 in
    let g = G.build ~tau_min u in
    let tau = tau_min +. Random.State.float rng (0.9 -. tau_min) in
    let pat = H.random_pattern rng u 14 in
    let budget = Random.State.int rng 12 in
    let size =
      match Engine.suffix_range (G.engine g) ~pattern:pat with
      | None -> 0
      | Some (l, r) -> r - l + 1
    in
    let within f unbudgeted =
      match f () with
      | got ->
          Alcotest.(check bool) "within budget" true (size <= budget);
          Alcotest.(check bool) "same answer" true (got = unbudgeted)
      | exception Engine.Over_budget ->
          Alcotest.(check bool) "over budget" true (size > budget)
    in
    within (fun () -> G.query ~max_range:budget g ~pattern:pat ~tau)
      (G.query g ~pattern:pat ~tau);
    within (fun () -> G.query_top_k ~max_range:budget g ~pattern:pat ~tau ~k:3)
      (G.query_top_k g ~pattern:pat ~tau ~k:3)
  done

let () =
  Alcotest.run "pti_core"
    [
      ( "general",
        [
          Alcotest.test_case "random vs oracle" `Quick test_general_random;
          Alcotest.test_case "long patterns (blocking)" `Quick test_general_long_patterns;
          Alcotest.test_case "absent pattern" `Quick test_general_absent_pattern;
          Alcotest.test_case "tau = tau_min boundary" `Quick test_general_tau_equals_tau_min;
          Alcotest.test_case "with correlations" `Quick test_general_correlated;
          Alcotest.test_case "all configs agree" `Slow test_config_variants_agree;
          Alcotest.test_case "invalid queries" `Quick test_invalid_queries;
          Alcotest.test_case "work budget" `Quick test_work_budget;
          QCheck_alcotest.to_alcotest prop_general_matches_oracle;
        ] );
      ( "special",
        [
          Alcotest.test_case "random vs oracle" `Quick test_special_random;
          Alcotest.test_case "figure 5 worked example" `Quick test_special_figure5;
          Alcotest.test_case "rejects general strings" `Quick test_special_rejects_general;
        ] );
      ( "simple_baseline",
        [
          Alcotest.test_case "agrees with efficient index" `Quick test_simple_agrees;
          Alcotest.test_case "special variant vs oracle" `Quick test_simple_special;
          Alcotest.test_case "range size" `Quick test_range_size;
        ] );
      ( "introspection",
        [ Alcotest.test_case "stats and sizes" `Quick test_engine_introspection ] );
      ( "stream",
        [
          Alcotest.test_case "stream/top-k agree with query" `Quick test_stream_topk;
          Alcotest.test_case "top-k edges stable heap vs mmap" `Quick
            test_topk_mmap_stability;
          Alcotest.test_case "lazy head" `Quick test_stream_lazy;
        ] );
      ( "edges",
        [ Alcotest.test_case "degenerate inputs" `Quick test_edge_cases ] );
      ( "persistence",
        [
          Alcotest.test_case "general save/load roundtrip" `Quick test_persistence;
          Alcotest.test_case "listing save/load roundtrip" `Quick
            test_persistence_listing;
        ] );
    ]
