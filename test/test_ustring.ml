(* Tests for Pti_ustring: the uncertain string model, parser, possible
   worlds, correlations, and the exact matching oracle. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Correlation = Pti_ustring.Correlation
module Worlds = Pti_ustring.Worlds
module Oracle = Pti_ustring.Oracle
module Logp = Pti_prob.Logp
module H = Pti_test_helpers

let check_float = Alcotest.(check (float 1e-9))

(* Figure 1(a): S[1]={a .3, b .4, d .3}, S[2]={a .6, c .4}, S[3]={d 1},
   S[4]={a .5, c .5}, S[5]={a 1}. *)
let figure1 = U.parse "a:.3,b:.4,d:.3 a:.6,c:.4 d a:.5,c:.5 a"

let test_sym () =
  Alcotest.(check char) "roundtrip" 'Q' (Sym.to_char (Sym.of_char 'Q'));
  Alcotest.(check char) "separator prints as $" '$' (Sym.to_char Sym.separator);
  Alcotest.(check bool) "is_separator" true (Sym.is_separator Sym.separator);
  Alcotest.(check string) "of_string/to_string" "HELLO"
    (Sym.to_string (Sym.of_string "HELLO"));
  Alcotest.(check bool) "reserved code rejected" true
    (try
       ignore (Sym.of_char '\001');
       false
     with Invalid_argument _ -> true)

let test_parse_figure1 () =
  Alcotest.(check int) "length" 5 (U.length figure1);
  check_float "pr(a@0)" 0.3 (U.prob figure1 ~pos:0 ~sym:(Sym.of_char 'a'));
  check_float "pr(b@0)" 0.4 (U.prob figure1 ~pos:0 ~sym:(Sym.of_char 'b'));
  check_float "pr(d@2)" 1.0 (U.prob figure1 ~pos:2 ~sym:(Sym.of_char 'd'));
  check_float "pr(absent)" 0.0 (U.prob figure1 ~pos:2 ~sym:(Sym.of_char 'z'));
  Alcotest.(check int) "total choices" 9 (U.n_choices figure1);
  Alcotest.(check int) "max choices" 3 (U.max_choices figure1);
  Alcotest.(check bool) "validates" true (U.validate figure1 = Ok ())

let test_parse_roundtrip () =
  let u = U.parse (U.to_text figure1) in
  Alcotest.(check int) "length" (U.length figure1) (U.length u);
  for i = 0 to U.length figure1 - 1 do
    Array.iter
      (fun (c : U.choice) ->
        check_float "prob preserved" c.prob (U.prob u ~pos:i ~sym:c.sym))
      (U.choices figure1 i)
  done

let test_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (try
           ignore (U.parse s);
           false
         with Invalid_argument _ -> true))
    [ ""; "A:"; "AB"; "A:1.5"; "A:0"; "A:-0.2"; "A:.6,A:.4"; "A:.6,B:.6" ]

let test_special_deterministic () =
  let det = U.of_string "HELLO" in
  Alcotest.(check bool) "det is special" true (U.is_special det);
  Alcotest.(check bool) "det is deterministic" true (U.is_deterministic det);
  let special = U.parse "A:.5 B:.9 C" in
  (* positions summing to < 1 are allowed by make but fail validate *)
  Alcotest.(check bool) "special" true (U.is_special special);
  Alcotest.(check bool) "not deterministic" false (U.is_deterministic special);
  Alcotest.(check bool) "figure1 not special" false (U.is_special figure1);
  Alcotest.(check bool) "sum<1 fails validate" true
    (match U.validate special with Error _ -> true | Ok () -> false)

(* Figure 1(b): the 12 possible worlds of Figure 1(a) and the two probed
   probabilities. *)
let test_possible_worlds_figure1 () =
  let worlds = Worlds.enumerate figure1 in
  Alcotest.(check int) "count" 12 (List.length worlds);
  Alcotest.(check int) "count function" 12 (Worlds.count figure1);
  let prob_of w =
    match List.assoc_opt (Sym.of_string w) (List.map (fun (a, p) -> (a, p)) worlds) with
    | Some p -> Logp.to_prob p
    | None -> Alcotest.failf "world %s missing" w
  in
  check_float "aadaa" 0.09 (prob_of "aadaa");
  (* the paper's Figure 1(b) lists "badca" three times with different
     probabilities (copy-paste typos); the true value is
     .4 * .6 * 1 * .5 * 1 = 0.12 *)
  check_float "badca" 0.12 (prob_of "badca");
  check_float "dcdca" 0.06 (prob_of "dcdca");
  (* all worlds sum to 1 *)
  let total =
    List.fold_left (fun acc (_, p) -> acc +. Logp.to_prob p) 0.0 worlds
  in
  check_float "sum to 1" 1.0 total

let prop_worlds_sum_to_one =
  QCheck2.Test.make ~name:"possible worlds sum to 1" ~count:100
    (H.gen_ustring ~max_n:8 ~k:3 ~maxc:3 ())
    (fun u ->
      let total =
        List.fold_left
          (fun acc (_, p) -> acc +. Logp.to_prob p)
          0.0 (Worlds.enumerate u)
      in
      Float.abs (total -. 1.0) < 1e-9)

(* §3.2 worked example: in the Figure 3 string, "SFPQ" matches at
   position 1 with probability .7 * 1 * 1 * .5 = .35, and "AT" matches
   at 6 with .4*.3=.12 and at 8 with 1*.5=.5. *)
let figure3 =
  U.parse
    "P S:.7,F:.3 F P Q:.5,T:.5 P A:.4,F:.4,P:.2 I:.3,L:.3,F:.1,T:.3 A S:.5,T:.5 A"

let test_figure3_queries () =
  check_float "SFPQ@1" 0.35
    (Logp.to_prob
       (Oracle.occurrence_logp figure3 ~pattern:(Sym.of_string "SFPQ") ~pos:1));
  check_float "AT@6" 0.12
    (Logp.to_prob (Oracle.occurrence_logp figure3 ~pattern:(Sym.of_string "AT") ~pos:6));
  check_float "AT@8" 0.5
    (Logp.to_prob (Oracle.occurrence_logp figure3 ~pattern:(Sym.of_string "AT") ~pos:8));
  (* the motivating query (AT, 0.4) reports only position 8 *)
  Alcotest.(check (list int)) "(AT, .4)" [ 8 ]
    (List.map fst
       (Oracle.occurrences figure3 ~pattern:(Sym.of_string "AT")
          ~tau:(Logp.of_prob 0.4)))

let test_oracle_vs_worlds () =
  (* occurrence probability at pos 0 for a full-length pattern equals the
     world's probability *)
  let rng = H.rng_of_seed 21 in
  for _ = 1 to 50 do
    let u = H.random_ustring rng (1 + Random.State.int rng 6) 3 3 in
    List.iter
      (fun (w, p) ->
        let q = Oracle.occurrence_logp u ~pattern:w ~pos:0 in
        if not (Logp.approx_equal ~eps:1e-12 p q) then
          Alcotest.failf "world prob mismatch")
      (Worlds.enumerate u)
  done

let test_matched_strings_at () =
  let tau = Logp.of_prob 0.1 in
  let got = Worlds.matched_strings_at figure1 ~pos:0 ~len:2 ~tau in
  (* strings of length 2 at pos 0 with prob > .1:
     aa=.18 ac=.12 ba=.24 bc=.16 da=.18 dc=.12 *)
  Alcotest.(check int) "all six" 6 (List.length got);
  List.iter
    (fun (w, p) ->
      let direct = Oracle.occurrence_logp figure1 ~pattern:w ~pos:0 in
      if not (Logp.approx_equal p direct) then Alcotest.fail "prob mismatch";
      if Logp.(p <= tau) then Alcotest.fail "below threshold reported")
    got;
  (* raising the threshold prunes *)
  Alcotest.(check int) "tau=.17" 3
    (List.length (Worlds.matched_strings_at figure1 ~pos:0 ~len:2 ~tau:(Logp.of_prob 0.17)))

(* Correlation semantics (§3.3, Figure 4): S[1]={e .6, f .4}, S[2]={q 1},
   S[3]={z: e1 => .3, not e1 => .4}. *)
let figure4 =
  let rules =
    [
      {
        Correlation.dep_pos = 2;
        dep_sym = Sym.of_char 'z';
        src_pos = 0;
        src_sym = Sym.of_char 'e';
        p_present = 0.3;
        p_absent = 0.4;
      };
    ]
  in
  (* marginal of z at 2 = .6*.3 + .4*.4 = .34 *)
  U.make ~correlations:rules
    [|
      [| { U.sym = Sym.of_char 'e'; prob = 0.6 }; { U.sym = Sym.of_char 'f'; prob = 0.4 } |];
      [| { U.sym = Sym.of_char 'q'; prob = 1.0 } |];
      [| { U.sym = Sym.of_char 'z'; prob = 0.34 } |];
    |]

let test_correlation_figure4 () =
  (* eqz: source inside window and matched: pr(z) = .3 *)
  check_float "eqz" (0.6 *. 1.0 *. 0.3)
    (Logp.to_prob (Oracle.occurrence_logp figure4 ~pattern:(Sym.of_string "eqz") ~pos:0));
  (* fqz: source inside window, not matched: pr(z) = .4 *)
  check_float "fqz" (0.4 *. 1.0 *. 0.4)
    (Logp.to_prob (Oracle.occurrence_logp figure4 ~pattern:(Sym.of_string "fqz") ~pos:0));
  (* qz: source outside window: pr(z3) = .6*.3 + .4*.4 = .34 *)
  check_float "qz" (1.0 *. 0.34)
    (Logp.to_prob (Oracle.occurrence_logp figure4 ~pattern:(Sym.of_string "qz") ~pos:1));
  (* marginal variant ignores the rule *)
  check_float "qz marginal" 0.34
    (Logp.to_prob
       (Oracle.occurrence_logp_marginal figure4 ~pattern:(Sym.of_string "qz") ~pos:1))

let test_correlation_validation () =
  let rule dep_pos src_pos =
    {
      Correlation.dep_pos;
      dep_sym = Sym.of_char 'z';
      src_pos;
      src_sym = Sym.of_char 'e';
      p_present = 0.3;
      p_absent = 0.4;
    }
  in
  Alcotest.(check bool) "self correlation rejected" true
    (try
       ignore (Correlation.of_rules [ rule 1 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate target rejected" true
    (try
       ignore (Correlation.of_rules [ rule 2 0; rule 2 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "chain rejected" true
    (try
       ignore
         (Correlation.of_rules
            [
              rule 2 1;
              {
                Correlation.dep_pos = 1;
                dep_sym = Sym.of_char 'e';
                src_pos = 0;
                src_sym = Sym.of_char 'e';
                p_present = 0.5;
                p_absent = 0.5;
              };
            ]);
       false
     with Invalid_argument _ -> true);
  (* inconsistent marginal rejected by Ustring.make *)
  Alcotest.(check bool) "inconsistent marginal rejected" true
    (try
       ignore
         (U.make
            ~correlations:
              [
                {
                  Correlation.dep_pos = 1;
                  dep_sym = Sym.of_char 'b';
                  src_pos = 0;
                  src_sym = Sym.of_char 'a';
                  p_present = 0.9;
                  p_absent = 0.9;
                };
              ]
            [|
              [| { U.sym = Sym.of_char 'a'; prob = 1.0 } |];
              [| { U.sym = Sym.of_char 'b'; prob = 0.5 } |];
            |]);
       false
     with Invalid_argument _ -> true)

let test_marginal_mixture () =
  let r =
    {
      Correlation.dep_pos = 2;
      dep_sym = Sym.of_char 'z';
      src_pos = 0;
      src_sym = Sym.of_char 'e';
      p_present = 0.3;
      p_absent = 0.4;
    }
  in
  check_float "mixture" 0.34 (Correlation.marginal r ~src_prob:0.6)

let test_concat () =
  let a = U.of_string "AB" and b = U.of_string "CD" in
  let joined, starts = U.concat ~sep:(Some Sym.separator) [ a; b ] in
  Alcotest.(check int) "length with separator" 5 (U.length joined);
  Alcotest.check Alcotest.(array int) "starts" [| 0; 3 |] starts;
  check_float "separator deterministic" 1.0
    (U.prob joined ~pos:2 ~sym:Sym.separator);
  let joined2, starts2 = U.concat ~sep:None [ a; b ] in
  Alcotest.(check int) "length without separator" 4 (U.length joined2);
  Alcotest.check Alcotest.(array int) "starts2" [| 0; 2 |] starts2

let test_sample_distribution () =
  (* sampling follows marginals: estimate pr(b@0) of figure1 (=0.4) *)
  let rng = H.rng_of_seed 31 in
  let trials = 20_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let w = U.sample rng figure1 in
    if w.(0) = Sym.of_char 'b' then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.3f near 0.4" freq)
    true
    (Float.abs (freq -. 0.4) < 0.02)

let test_make_validation () =
  Alcotest.(check bool) "empty position" true
    (try
       ignore (U.make [| [||] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "separator in content" true
    (try
       ignore (U.make [| [| { U.sym = Sym.separator; prob = 1.0 } |] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "sum > 1" true
    (try
       ignore
         (U.make
            [|
              [|
                { U.sym = Sym.of_char 'a'; prob = 0.8 };
                { U.sym = Sym.of_char 'b'; prob = 0.8 };
              |];
            |]);
       false
     with Invalid_argument _ -> true)

let test_oracle_occurrences_order () =
  let occs =
    Oracle.occurrences figure3 ~pattern:(Sym.of_string "A") ~tau:(Logp.of_prob 0.05)
  in
  (* positions ascending *)
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending positions" true (ascending occs)

let test_relevance_metrics () =
  (* Figure 6 example: Rel(S, "BFA")max = .09 and OR = .19786 (approx) *)
  let s =
    U.parse
      "A:.4,B:.3,F:.3 B:.3,L:.3,F:.3,J:.1 A:.5,F:.5 A:.6,B:.4 B:.5,F:.3,J:.2 \
       A:.4,C:.3,E:.2,F:.1"
  in
  let pat = Sym.of_string "BFA" in
  check_float "rel_max" 0.09 (Logp.to_prob (Oracle.relevance_max s ~pattern:pat));
  (* occurrences of BFA: .3*.3*.5 = .045 at 0, .3*.5*.6 = .09 at 1,
     .4*.3*.4 = .048 at 3; OR = .183 - .045*.09*.048 = .18281 (the
     paper's prose uses .06 for the first occurrence, inconsistent with
     its own Figure 6 table) *)
  let or_v = Logp.to_prob (Oracle.relevance_or s ~pattern:pat) in
  let want = 0.045 +. 0.09 +. 0.048 -. (0.045 *. 0.09 *. 0.048) in
  Alcotest.(check bool)
    (Printf.sprintf "rel_or %.5f ~ %.5f" or_v want)
    true
    (Float.abs (or_v -. want) < 1e-9)

let prop_oracle_monotone_in_length =
  QCheck2.Test.make ~name:"occurrence prob non-increasing in pattern length"
    ~count:200
    (H.gen_ustring ~max_n:15 ())
    (fun u ->
      let rng = H.rng_of_seed (U.length u) in
      let n = U.length u in
      let m = 1 + Random.State.int rng n in
      let start = Random.State.int rng (n - m + 1) in
      let pat = H.pattern_at rng u ~start ~m in
      let ok = ref true in
      for len = 1 to m - 1 do
        let shorter = Array.sub pat 0 len in
        let ps = Oracle.occurrence_logp u ~pattern:shorter ~pos:start in
        let pl = Oracle.occurrence_logp u ~pattern:pat ~pos:start in
        if Logp.(pl > ps) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Binary codec *)

(* Random strings with correlation rules, some with deterministic
   positions (one choice of probability exactly 1), and concatenations
   carrying separator positions: decode must give back the very value,
   floats bit for bit. *)
let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"decode inverts encode" ~count:500
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 0 40 in
      let* maxc = int_range 1 4 in
      let* rules = int_range 0 6 in
      let* docs = int_range 1 3 in
      return (seed, n, maxc, rules, docs))
    (fun (seed, n, maxc, rules, docs) ->
      let rng = H.rng_of_seed seed in
      let one () =
        Pti_workload.Dataset.add_random_correlations rng
          (H.random_ustring rng (Stdlib.max 1 n) 5 maxc)
          ~count:rules
      in
      let u =
        if docs = 1 then one ()
        else fst (U.concat ~sep:(Some Sym.separator) (List.init docs (fun _ -> one ())))
      in
      let u' = U.decode (U.encode u) in
      u' = u && U.encode u' = U.encode u)

let test_codec_refusals () =
  let refused name s =
    match U.decode s with
    | _ -> Alcotest.failf "%s: decoded" name
    | exception Invalid_argument _ -> ()
  in
  let enc = U.encode (U.parse "A:.5,C:.5 G T:.25,A:.75") in
  refused "empty" "";
  refused "truncated" (String.sub enc 0 (String.length enc - 1));
  refused "trailing bytes" (enc ^ "\000");
  refused "huge count" "\xff\xff\xff\xff\x0f";
  refused "overlong varint" (String.make 12 '\xff');
  (* one position of two choices whose probabilities are NaN *)
  let nan = Bytes.create 8 in
  Bytes.set_int64_le nan 0 (Int64.bits_of_float Float.nan);
  let nan = Bytes.to_string nan in
  refused "NaN probability" ("\001\004A" ^ nan ^ "C" ^ nan ^ "\000");
  (* a separator choice inside an uncertain position *)
  refused "separator among choices"
    (U.encode (U.parse "A:.5,C:.5") |> String.map (fun c -> if c = 'A' then '\001' else c));
  Alcotest.(check int) "the empty string round-trips" 0
    (U.length (U.decode (U.encode (U.make [||]))))

let () =
  Alcotest.run "pti_ustring"
    [
      ( "model",
        [
          Alcotest.test_case "symbols" `Quick test_sym;
          Alcotest.test_case "figure 1(a) parse" `Quick test_parse_figure1;
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "special/deterministic" `Quick test_special_deterministic;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "sampling follows marginals" `Slow test_sample_distribution;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "figure 1(b) worlds" `Quick test_possible_worlds_figure1;
          Alcotest.test_case "matched strings at position" `Quick test_matched_strings_at;
          QCheck_alcotest.to_alcotest prop_worlds_sum_to_one;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "figure 3 queries" `Quick test_figure3_queries;
          Alcotest.test_case "oracle = world probability" `Quick test_oracle_vs_worlds;
          Alcotest.test_case "occurrences ascending" `Quick test_oracle_occurrences_order;
          Alcotest.test_case "figure 6 relevance metrics" `Quick test_relevance_metrics;
          QCheck_alcotest.to_alcotest prop_oracle_monotone_in_length;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "figure 4 semantics" `Quick test_correlation_figure4;
          Alcotest.test_case "rule validation" `Quick test_correlation_validation;
          Alcotest.test_case "marginal mixture" `Quick test_marginal_mixture;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "malformed payloads refused" `Quick
            test_codec_refusals;
        ] );
    ]
