(* Tests for Pti_suffix: SA-IS vs the doubling oracle and a naive sort,
   Kasai LCP, pattern search, the lcp-interval suffix tree, and LCA. *)

module Sais = Pti_suffix.Sais
module Sa_doubling = Pti_suffix.Sa_doubling
module Lcp = Pti_suffix.Lcp
module Sa_search = Pti_suffix.Sa_search
module St = Pti_suffix.Suffix_tree
module Lca = Pti_suffix.Lca

let of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

let naive_sa text =
  let n = Array.length text in
  (* compare as lists: element-wise lexicographic with shorter-prefix
     smaller (array polymorphic compare orders by length first) *)
  let suffix i = Array.to_list (Array.sub text i (n - i)) in
  let sa = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (suffix a) (suffix b)) sa;
  sa

let int_array = Alcotest.(array int)

let test_sais_known () =
  (* banana: suffixes sorted: a(5) ana(3) anana(1) banana(0) na(4) nana(2) *)
  Alcotest.check int_array "banana" [| 5; 3; 1; 0; 4; 2 |]
    (Sais.suffix_array (of_string "banana"));
  Alcotest.check int_array "single" [| 0 |] (Sais.suffix_array [| 7 |]);
  Alcotest.check int_array "aaaa" [| 3; 2; 1; 0 |]
    (Sais.suffix_array (of_string "aaaa"));
  Alcotest.check int_array "abab" [| 2; 0; 3; 1 |]
    (Sais.suffix_array (of_string "abab"));
  Alcotest.check int_array "mississippi"
    (naive_sa (of_string "mississippi"))
    (Sais.suffix_array (of_string "mississippi"))

let test_sais_rejects () =
  Alcotest.(check bool) "zero symbol rejected" true
    (try
       ignore (Sais.suffix_array [| 1; 0; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_sais_vs_doubling () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int rng 150 in
    let k = 1 + Random.State.int rng 6 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng k) in
    let sa1 = Sais.suffix_array text in
    let sa2 = Sa_doubling.suffix_array text in
    Alcotest.check int_array "sais = doubling" sa2 sa1;
    Alcotest.check int_array "sais = naive sort" (naive_sa text) sa1
  done

let test_sais_large_repetitive () =
  (* deep LMS recursion: fibonacci-style string *)
  let rec fib a b k = if k = 0 then a else fib (a ^ b) a (k - 1) in
  let text = of_string (fib "a" "b" 18) in
  let sa = Sais.suffix_array text in
  Alcotest.check int_array "fibonacci string" (Sa_doubling.suffix_array text) sa

let naive_lcp text sa =
  let n = Array.length sa in
  let lcp = Array.make (Stdlib.max n 1) 0 in
  for i = 1 to n - 1 do
    let a = sa.(i - 1) and b = sa.(i) in
    let rec go off =
      if a + off < n && b + off < n && text.(a + off) = text.(b + off) then
        go (off + 1)
      else off
    in
    lcp.(i) <- go 0
  done;
  lcp

let test_kasai () =
  let rng = Random.State.make [| 12 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 120 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
    let sa = Sais.suffix_array text in
    Alcotest.check int_array "kasai = naive" (naive_lcp text sa)
      (Lcp.kasai ~text ~sa)
  done

let test_rank () =
  let sa = [| 5; 3; 1; 0; 4; 2 |] in
  let rank = Lcp.rank_of_sa sa in
  Array.iteri (fun i s -> Alcotest.(check int) "rank" i rank.(s)) sa

let naive_occurrences text pat =
  let n = Array.length text and m = Array.length pat in
  let out = ref [] in
  for p = n - m downto 0 do
    if Array.sub text p m = pat then out := p :: !out
  done;
  !out

let test_search () =
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int rng 100 in
    let k = 1 + Random.State.int rng 3 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng k) in
    let sa = Sais.suffix_array text in
    let m = 1 + Random.State.int rng 6 in
    let pat = Array.init m (fun _ -> 1 + Random.State.int rng k) in
    let want = naive_occurrences text pat in
    let got =
      match Sa_search.range ~text ~sa ~pattern:pat with
      | None -> []
      | Some (sp, ep) ->
          List.sort compare (List.init (ep - sp + 1) (fun i -> sa.(sp + i)))
    in
    Alcotest.(check (list int)) "occurrences" want got;
    Alcotest.(check int) "count" (List.length want)
      (Sa_search.count ~text ~sa ~pattern:pat)
  done

let test_search_edges () =
  let text = of_string "abracadabra" in
  let sa = Sais.suffix_array text in
  Alcotest.(check bool) "empty pattern matches all" true
    (Sa_search.range ~text ~sa ~pattern:[||] = Some (0, 10));
  Alcotest.(check bool) "absent pattern" true
    (Sa_search.range ~text ~sa ~pattern:(of_string "xyz") = None);
  Alcotest.(check bool) "pattern longer than text" true
    (Sa_search.range ~text ~sa ~pattern:(of_string "abracadabraabra") = None);
  Alcotest.(check int) "abra occurs twice" 2
    (Sa_search.count ~text ~sa ~pattern:(of_string "abra"))

(* Every search on offer agrees with the oracle: without a table, the
   two-search order, and bucketed at the rule's q. *)
let searches_agree ~text ~sa ~table pat =
  let want = Sa_search.range_naive ~text ~sa ~pattern:pat in
  Sa_search.range ~text ~sa ~pattern:pat = want
  && Sa_search.Heap.range_two_search ~text ~sa ~pattern:pat = want
  && Sa_search.Heap.range_in table ~text ~sa ~pattern:pat = want

(* The shortest text at which the q rule picks [q] when [base - 1]
   symbols are in use: base^q <= n / 8. *)
let length_for_q ~base q =
  let rec pow k = if k = 0 then 1 else base * pow (k - 1) in
  8 * pow q

(* The Manber–Myers accelerated search against the restart-every-probe
   oracle on adversarially repetitive texts — the inputs where the lcp
   bookkeeping actually kicks in (long shared prefixes between the
   pattern and both fences) and where an off-by-one in the resume
   offset would misplace a boundary — through the bucket table too:
   a unary text puts every suffix in one chain of cells, and a
   Fibonacci or abab... text fills only a few. Each text is run at the
   lengths where the rule picks q = 0, 1, 2, 3 and 4, and at 400. *)
let test_search_manber_myers_adversarial () =
  let fib k =
    let rec go a b k = if k = 0 then a else go (a ^ b) a (k - 1) in
    go "a" "b" k
  in
  let fib_text = of_string (fib 16) in
  (* (symbols in use + 1, the text of length n) *)
  let texts =
    [
      (2, fun n -> Array.make n 1) (* unary: every suffix prefixes every longer one *);
      (5, fun n -> Array.init n (fun i -> 1 + (i * 4 / n))) (* aaa...bbb...ccc...ddd *);
      (3, fun n -> Array.init n (fun i -> 1 + (i mod 2))) (* ababab... *);
      (4, fun n -> Array.init n (fun i -> if i = n - 1 then 3 else 1 + (i mod 2)));
      (3, fun n -> Array.sub fib_text 0 n) (* fibonacci word: maximal repetitiveness *);
      (4, fun n -> Array.init n (fun i -> 1 + (i mod 3))) (* abcabc... *);
    ]
  in
  let rng = Random.State.make [| 15 |] in
  List.iter
    (fun (base, gen) ->
      List.iter
        (fun (n, q) ->
          let text = gen n in
          let sa = Sais.suffix_array text in
          let table = Sa_search.Heap.qgram text in
          Option.iter
            (fun q ->
              Alcotest.(check int) (Printf.sprintf "q at n = %d" n) q
                (Sa_search.Qgram.q table))
            q;
          let check pat =
            Alcotest.(check bool) "manber-myers = naive" true
              (searches_agree ~text ~sa ~table pat)
          in
          (* substrings of all lengths, including near-full-text *)
          List.iter
            (fun m ->
              for _ = 1 to 20 do
                let start = Random.State.int rng (n - m + 1) in
                check (Array.sub text start m)
              done)
            (List.filter (fun m -> m <= n) [ 1; 2; 3; 4; 5; 7; n / 2; n - 1; n ]);
          (* perturbed substrings: match a long prefix, then diverge *)
          for _ = 1 to 60 do
            let m = 2 + Random.State.int rng (Stdlib.min n 60 - 1) in
            let start = Random.State.int rng (n - m + 1) in
            let pat = Array.sub text start m in
            pat.(m - 1 - Random.State.int rng (Stdlib.min m 3)) <-
              1 + Random.State.int rng 4;
            check pat
          done;
          (* pattern = text extended past the end *)
          check (Array.append text [| 1 |]);
          check (Array.append text [| 9 |]))
        ((400, None) :: List.init 5 (fun q -> (length_for_q ~base q, Some q))))
    texts

(* Suffix tree invariants checked on random strings:
   - parent intervals contain child intervals;
   - string depth strictly increases on internal edges (leaves may have
     zero-length edges when one suffix prefixes another);
   - node_of_interval returns a node matching the queried range;
   - the root covers everything. *)
let test_suffix_tree_invariants () =
  let rng = Random.State.make [| 14 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 80 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng 3) in
    let sa = Sais.suffix_array text in
    let lcp = Lcp.kasai ~text ~sa in
    let st = St.build ~sa ~lcp ~text_len:n in
    Alcotest.(check int) "n_leaves" n (St.n_leaves st);
    Alcotest.(check bool) "root interval" true (St.interval st (St.root st) = (0, n - 1));
    St.fold_nodes st ~init:() ~f:(fun () v ->
        if v <> St.root st then begin
          let p = St.parent st v in
          let l, r = St.interval st v and pl, pr = St.interval st p in
          if not (pl <= l && r <= pr) then
            Alcotest.failf "interval not nested: node %d" v;
          let ok =
            if St.is_leaf st v then St.str_depth st p <= St.str_depth st v
            else St.str_depth st p < St.str_depth st v
          in
          if not ok then Alcotest.failf "depth not increasing: node %d" v
        end
        else if St.parent st v <> -1 then Alcotest.fail "root has a parent")
  done

let test_suffix_tree_locus () =
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 150 do
    let n = 2 + Random.State.int rng 60 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng 3) in
    let sa = Sais.suffix_array text in
    let lcp = Lcp.kasai ~text ~sa in
    let st = St.build ~sa ~lcp ~text_len:n in
    (* the suffix range of any pattern must resolve to a node whose
       interval is exactly that range *)
    let m = 1 + Random.State.int rng (Stdlib.min 5 n) in
    let start = Random.State.int rng (n - m + 1) in
    let pat = Array.sub text start m in
    match Sa_search.range ~text ~sa ~pattern:pat with
    | None -> Alcotest.fail "extracted pattern must occur"
    | Some (l, r) -> (
        match St.node_of_interval st ~l ~r with
        | None -> Alcotest.failf "locus of existing pattern not found"
        | Some v ->
            Alcotest.(check bool) "interval matches" true (St.interval st v = (l, r));
            Alcotest.(check bool) "deep enough" true (St.str_depth st v >= m))
  done

(* children are listed consistently with their parents *)
let test_children () =
  let rng = Random.State.make [| 18 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 80 in
    let k = 1 + Random.State.int rng 4 in
    let text = Array.init n (fun _ -> 1 + Random.State.int rng k) in
    let sa = Sais.suffix_array text in
    let lcp = Lcp.kasai ~text ~sa in
    let st = St.build ~sa ~lcp ~text_len:n in
    St.fold_nodes st ~init:() ~f:(fun () v ->
        List.iter
          (fun c ->
            Alcotest.(check int) "child's parent" v (St.parent st c))
          (St.children st v))
  done

let test_leaf_suffix_maps () =
  let text = of_string "banana" in
  let sa = Sais.suffix_array text in
  let lcp = Lcp.kasai ~text ~sa in
  let st = St.build ~sa ~lcp ~text_len:6 in
  for j = 0 to 5 do
    Alcotest.(check int) "roundtrip" j (St.leaf_of_suffix st (St.suffix_of_leaf st j))
  done

let naive_lca parent a b =
  let rec ancestors v = if v = -1 then [] else v :: ancestors parent.(v) in
  let aa = ancestors a in
  let rec find = function
    | [] -> Alcotest.fail "no common ancestor"
    | v :: rest -> if List.mem v aa then v else find rest
  in
  find (ancestors b)

let test_lca () =
  let rng = Random.State.make [| 16 |] in
  for _ = 1 to 100 do
    (* random tree via random parent assignment *)
    let n = 2 + Random.State.int rng 60 in
    let parent = Array.make n (-1) in
    for v = 1 to n - 1 do
      parent.(v) <- Random.State.int rng v
    done;
    let lca = Lca.build ~parent ~root:0 in
    for _ = 1 to 50 do
      let a = Random.State.int rng n and b = Random.State.int rng n in
      Alcotest.(check int) "lca = naive" (naive_lca parent a b) (Lca.query lca a b)
    done;
    (* ancestor relation *)
    for _ = 1 to 30 do
      let a = Random.State.int rng n and b = Random.State.int rng n in
      let want = naive_lca parent a b = a in
      Alcotest.(check bool) "is_ancestor" want (Lca.is_ancestor lca ~anc:a ~desc:b)
    done
  done

let test_lca_on_suffix_tree () =
  let text = of_string "abracadabra" in
  let sa = Sais.suffix_array text in
  let lcp = Lcp.kasai ~text ~sa in
  let st = St.build ~sa ~lcp ~text_len:(Array.length text) in
  let parent = Array.init (St.n_nodes st) (fun v -> St.parent st v) in
  let lca = Lca.build ~parent ~root:(St.root st) in
  (* LCA of two leaves has string depth = lcp of their suffixes *)
  let n = Array.length text in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = Lca.query lca i j in
      let mn = ref max_int in
      for k = i + 1 to j do
        mn := Stdlib.min !mn lcp.(k)
      done;
      Alcotest.(check int)
        (Printf.sprintf "lca depth leaves %d %d" i j)
        !mn (St.str_depth st v)
    done
  done

(* Random texts with separator runs, alphabets of 1–40 symbols (codes
   above 255 in half the cases), against the oracle through every
   search, heap arrays and storage views alike. The text's length is
   drawn from the band where the rule picks a drawn q of 0–4 (the
   largest that fits in 3 000 symbols), taking the base as every
   symbol plus the separator in use; alphabets of at most 3 symbols
   are drawn half the time, so q = 3 and 4 come up. Patterns:
   substrings shorter than, as long as and longer than q, substrings
   perturbed near their end, symbols absent from the text (at the
   front, past q, non-positive and huge codes), a separator, and text
   suffixes run past the text's end. *)
let prop_bucketed_search =
  QCheck2.Test.make ~name:"bucketed range = naive (qcheck)" ~count:150
    QCheck2.Gen.(
      quad
        (oneof [ int_range 1 3; int_range 1 40 ])
        bool
        (pair (int_range 0 4) (float_bound_inclusive 1.0))
        int)
    (fun (sigma, high, (q_want, frac), seed) ->
      let rng = Random.State.make [| seed |] in
      let code i = if high then 250 + (7 * i) else 2 + i in
      (* skewed draws, so short substrings repeat *)
      let sym () =
        code (Stdlib.min (Random.State.int rng sigma) (Random.State.int rng sigma))
      in
      let cap = 3000 and base = sigma + 2 in
      let rec fit q =
        if q > 0 && length_for_q ~base q > cap then fit (q - 1) else q
      in
      let q0 = fit q_want in
      let lo = if q0 = 0 then 1 else length_for_q ~base q0 in
      let hi = Stdlib.min cap (length_for_q ~base (q0 + 1) - 1) in
      let n = lo + int_of_float (frac *. float_of_int (hi - lo)) in
      let text = Array.make n 0 in
      let i = ref 0 in
      while !i < n do
        if Random.State.int rng 10 = 0 then begin
          let run = 1 + Random.State.int rng 3 in
          for j = !i to Stdlib.min n (!i + run) - 1 do
            text.(j) <- Pti_ustring.Sym.separator
          done;
          i := !i + run
        end
        else begin
          text.(!i) <- sym ();
          incr i
        end
      done;
      let sa = Sais.suffix_array text in
      let table = Sa_search.Heap.qgram text in
      let q = Sa_search.Qgram.q table in
      let sub m =
        let m = Stdlib.min m n in
        Array.sub text (Random.State.int rng (n - m + 1)) m
      in
      let absent = [| code sigma; 0; -3; max_int; 3 |] in
      let pats = ref [] in
      let add p = pats := p :: !pats in
      List.iter
        (fun m ->
          if m >= 1 then
            for _ = 1 to 3 do
              add (sub m);
              let p = sub m in
              let len = Array.length p in
              p.(len - 1 - Random.State.int rng (Stdlib.min len 2)) <- sym ();
              add p;
              let p = sub m in
              p.(Random.State.int rng (Array.length p)) <-
                absent.(Random.State.int rng (Array.length absent));
              add p
            done)
        [ 1; 2; q - 1; q; q + 1; q + 2; 2 * q + 3; 20 ];
      add [| Pti_ustring.Sym.separator |];
      add (Array.append (sub (Random.State.int rng n + 1)) [| sym () |]);
      add (Array.append (Array.sub text (n - Stdlib.min n 3) (Stdlib.min n 3)) [| sym () |]);
      add (Array.append text [| sym () |]);
      let module S = Pti_storage in
      let text_ba = S.Ints.of_array text and sa_ba = S.Ints.of_array sa in
      let ba_table = Sa_search.Ba.qgram text_ba in
      List.for_all
        (fun pat ->
          searches_agree ~text ~sa ~table pat
          && Sa_search.Ba.range_in ba_table ~text:text_ba ~sa:sa_ba ~pattern:pat
             = Sa_search.range_naive ~text ~sa ~pattern:pat)
        !pats)

let test_qgram_rule () =
  (* (used + 1)^q <= n / 8: 24 symbols in use at n = 180 289 give q = 3 *)
  let text = Array.init 180_289 (fun i -> 2 + (i * 7919 mod 24)) in
  let tb = Sa_search.Heap.qgram text in
  Alcotest.(check int) "q" 3 (Sa_search.Qgram.q tb);
  Alcotest.(check int) "cells" (25 * 25 * 25) (Sa_search.Qgram.cells tb);
  (* two symbols in use (base 3): q steps up at n = 24, 72, 216, 648 *)
  let abab n = Array.init n (fun i -> 1 + (i mod 2)) in
  List.iter
    (fun (n, q) ->
      Alcotest.(check int) (Printf.sprintf "q at n = %d" n) q
        (Sa_search.Qgram.q (Sa_search.Heap.qgram (abab n))))
    [ (23, 0); (24, 1); (71, 1); (72, 2); (215, 2); (216, 3); (647, 3); (648, 4) ];
  Alcotest.(check int) "short text: one bucket" 0
    (Sa_search.Qgram.q (Sa_search.Heap.qgram (of_string "banana")));
  Alcotest.(check int) "symbol beyond the remap: one bucket" 0
    (Sa_search.Qgram.q
       (Sa_search.Heap.qgram (Array.init 4000 (fun i -> if i = 7 then 1 lsl 20 else 2 + (i mod 3)))));
  let tb = Sa_search.Heap.qgram (abab 72) in
  (* q = 2, cells over a, b with digit 0: ab (x36), ba (x35), b$ (the last b) *)
  Alcotest.(check int) "cells" 9 (Sa_search.Qgram.cells tb);
  Alcotest.(check int) "nonempty cells" 3 (Sa_search.Qgram.nonempty tb)

let prop_sais =
  QCheck2.Test.make ~name:"sais = doubling (qcheck)" ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 80 in
      array_repeat n (int_range 1 4))
    (fun text -> Sais.suffix_array text = Sa_doubling.suffix_array text)

let () =
  Alcotest.run "pti_suffix"
    [
      ( "sais",
        [
          Alcotest.test_case "known strings" `Quick test_sais_known;
          Alcotest.test_case "rejects bad symbols" `Quick test_sais_rejects;
          Alcotest.test_case "vs doubling + naive" `Quick test_sais_vs_doubling;
          Alcotest.test_case "repetitive (deep recursion)" `Quick
            test_sais_large_repetitive;
          QCheck_alcotest.to_alcotest prop_sais;
        ] );
      ( "lcp",
        [
          Alcotest.test_case "kasai vs naive" `Quick test_kasai;
          Alcotest.test_case "rank" `Quick test_rank;
        ] );
      ( "search",
        [
          Alcotest.test_case "vs naive scan" `Quick test_search;
          Alcotest.test_case "edge cases" `Quick test_search_edges;
          Alcotest.test_case "manber-myers on repetitive texts" `Quick
            test_search_manber_myers_adversarial;
          Alcotest.test_case "q-gram rule" `Quick test_qgram_rule;
          QCheck_alcotest.to_alcotest prop_bucketed_search;
        ] );
      ( "suffix_tree",
        [
          Alcotest.test_case "structural invariants" `Quick
            test_suffix_tree_invariants;
          Alcotest.test_case "locus lookup" `Quick test_suffix_tree_locus;
          Alcotest.test_case "leaf/suffix maps" `Quick test_leaf_suffix_maps;
          Alcotest.test_case "children consistent with parents" `Quick test_children;
        ] );
      ( "lca",
        [
          Alcotest.test_case "random trees vs naive" `Quick test_lca;
          Alcotest.test_case "suffix tree LCA = lcp" `Quick test_lca_on_suffix_tree;
        ] );
    ]
