(* Benchmark harness reproducing every figure of the paper's evaluation
   (§8) plus the ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe              run every experiment (report mode)
     dune exec bench/main.exe -- fig7a ... run selected experiments
     dune exec bench/main.exe -- micro     bechamel micro-benchmarks
     dune exec bench/main.exe -- fast      reduced grids (quick smoke)
     dune exec bench/main.exe -- smoke ... CI-sized grids (n <= 5e3)

   Absolute numbers are not comparable with the paper's C++/2010s-era
   testbed; EXPERIMENTS.md records the *shapes* (who wins, what grows
   with what) side by side. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp
module D = Pti_workload.Dataset
module Q = Pti_workload.Querygen
module T = Pti_transform.Transform
module Engine = Pti_core.Engine
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module A = Pti_core.Approx_index
module Si = Pti_core.Simple_index
module Space = Pti_core.Space

let fast = ref false
let smoke = ref false (* CI-sized grids (n <= 5e3); implies fast *)
let thetas = [ 0.1; 0.2; 0.3; 0.4 ]
let ns () = if !fast then [ 2_000; 20_000 ] else [ 2_000; 20_000; 100_000; 300_000 ]
let tau_min_default = 0.1
let tau_default = 0.2
let queries_per_length () = if !fast then 10 else 25
let query_lengths = [ 4; 8; 12; 20 ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Mean seconds per query over a batch, best of three passes. *)
let per_query run queries =
  let batch () =
    let _, t = time (fun () -> List.iter (fun q -> ignore (run q)) queries) in
    t /. float_of_int (List.length queries)
  in
  let a = batch () in
  let b = batch () in
  let c = batch () in
  Float.min a (Float.min b c)

let dataset_cache : (int * int, U.t) Hashtbl.t = Hashtbl.create 16

let dataset ~n ~theta =
  let key = (n, int_of_float (theta *. 1000.0)) in
  match Hashtbl.find_opt dataset_cache key with
  | Some u -> u
  | None ->
      let u = D.single (D.default ~total:n ~theta) in
      Hashtbl.replace dataset_cache key u;
      u

let docs_cache : (int * int, U.t list) Hashtbl.t = Hashtbl.create 16

let docs ~n ~theta =
  let key = (n, int_of_float (theta *. 1000.0)) in
  match Hashtbl.find_opt docs_cache key with
  | Some d -> d
  | None ->
      let d = D.collection (D.default ~total:n ~theta) in
      Hashtbl.replace docs_cache key d;
      d

(* The standard mixed-length query workload over a dataset. *)
let workload u =
  let rng = Random.State.make [| 1234 |] in
  List.concat_map
    (fun m -> Q.patterns rng u ~m ~count:(queries_per_length ()))
    (List.filter (fun m -> m <= U.length u) query_lengths)

(* ------------------------------------------------------------------ *)
(* Table printing *)

let print_header title note =
  Printf.printf "\n== %s ==\n" title;
  if note <> "" then Printf.printf "   %s\n" note

let print_table ~row_label ~rows ~cols ~cell =
  Printf.printf "%12s" row_label;
  List.iter (fun c -> Printf.printf "%12s" c) cols;
  print_newline ();
  List.iter
    (fun (label, values) ->
      Printf.printf "%12s" label;
      List.iter (fun v -> Printf.printf "%12s" (cell v)) values;
      print_newline ())
    rows

let us v = Printf.sprintf "%.1f" (v *. 1e6)
let secs v = Printf.sprintf "%.2f" v
let mb words = Printf.sprintf "%.1f" (Space.mb_of_words words)

(* ------------------------------------------------------------------ *)
(* Figures 7a / 9a / 9c: one pass over the n × θ grid building the
   substring index once per cell. *)

type n_sweep_cell = {
  query_us : float;
  build_s : float;
  space_words : int;
  text_len : int;
}

let n_sweep_general = lazy (
  List.map
    (fun n ->
      ( n,
        List.map
          (fun theta ->
            let u = dataset ~n ~theta in
            let g, build_s = time (fun () -> G.build ~tau_min:tau_min_default u) in
            let queries = workload u in
            let q =
              per_query (fun p -> G.query g ~pattern:p ~tau:tau_default) queries
            in
            let cell =
              {
                query_us = q;
                build_s;
                space_words = G.size_words g;
                text_len = T.text_length (G.transform g);
              }
            in
            (theta, cell))
          thetas ))
    (ns ()))

let theta_cols = List.map (fun t -> Printf.sprintf "th=%.1f" t) thetas

let fig7a () =
  print_header "fig7a: substring search query time vs string length n"
    (Printf.sprintf
       "mean us/query; tau=%.2f tau_min=%.2f, query lengths %s, %d per length"
       tau_default tau_min_default
       (String.concat "," (List.map string_of_int query_lengths))
       (queries_per_length ()));
  print_table ~row_label:"n" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (n, cells) ->
           (string_of_int n, List.map (fun (_, c) -> c.query_us) cells))
         (Lazy.force n_sweep_general))
    ~cell:us

let fig9a () =
  print_header "fig9a: index construction time vs string length n"
    "seconds (transform + suffix structures + RMQ levels + ladder)";
  print_table ~row_label:"n" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (n, cells) ->
           (string_of_int n, List.map (fun (_, c) -> c.build_s) cells))
         (Lazy.force n_sweep_general))
    ~cell:secs

let fig9c () =
  print_header "fig9c: index space vs string length n" "megabytes";
  print_table ~row_label:"n" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (n, cells) ->
           ( string_of_int n,
             List.map (fun (_, c) -> float_of_int c.space_words) cells ))
         (Lazy.force n_sweep_general))
    ~cell:(fun w -> mb (int_of_float w));
  print_header "fig9c (auxiliary): transformed text length N"
    "positions; the paper's O((1/tau_min)^2 n) blowup in practice";
  print_table ~row_label:"n" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (n, cells) ->
           ( string_of_int n,
             List.map (fun (_, c) -> float_of_int c.text_len) cells ))
         (Lazy.force n_sweep_general))
    ~cell:(fun v -> string_of_int (int_of_float v))

(* ------------------------------------------------------------------ *)
(* Figure 8a: listing query time vs n. *)

let fig8a () =
  print_header "fig8a: string listing query time vs total size n"
    (Printf.sprintf "mean us/query; Rel_max, tau=%.2f tau_min=%.2f" tau_default
       tau_min_default);
  let rows =
    List.map
      (fun n ->
        ( string_of_int n,
          List.map
            (fun theta ->
              let ds = docs ~n ~theta in
              let l = L.build ~tau_min:tau_min_default ds in
              let queries = workload (List.hd ds) in
              per_query (fun p -> L.query l ~pattern:p ~tau:tau_default) queries)
            thetas ))
      (ns ())
  in
  print_table ~row_label:"n" ~cols:theta_cols ~rows ~cell:us

(* ------------------------------------------------------------------ *)
(* Figures 7b / 8b: query time vs τ (fixed n, τ_min = 0.1). *)

let tau_sweep = [ 0.10; 0.11; 0.12; 0.13; 0.14 ]

let fig7b () =
  let n = if !fast then 20_000 else 100_000 in
  print_header "fig7b: substring search query time vs tau"
    (Printf.sprintf "mean us/query; n=%d tau_min=0.1" n);
  let rng = Random.State.make [| 71 |] in
  let per_theta =
    List.map
      (fun theta ->
        let u = dataset ~n ~theta in
        (* short patterns: large enough outputs for the τ effect to show *)
        (G.build ~tau_min:0.1 u, Q.patterns rng u ~m:4 ~count:(4 * queries_per_length ())))
      thetas
  in
  let rows =
    List.map
      (fun tau ->
        ( Printf.sprintf "%.2f" tau,
          List.map
            (fun (g, queries) ->
              per_query (fun p -> G.query g ~pattern:p ~tau) queries)
            per_theta ))
      tau_sweep
  in
  print_table ~row_label:"tau" ~cols:theta_cols ~rows ~cell:us

let fig8b () =
  let n = if !fast then 10_000 else 50_000 in
  print_header "fig8b: string listing query time vs tau"
    (Printf.sprintf "mean us/query; n=%d tau_min=0.1 Rel_max" n);
  let rng = Random.State.make [| 72 |] in
  let per_theta =
    List.map
      (fun theta ->
        let ds = docs ~n ~theta in
        ( L.build ~tau_min:0.1 ds,
          Q.patterns rng (List.hd ds) ~m:4 ~count:(4 * queries_per_length ()) ))
      thetas
  in
  let rows =
    List.map
      (fun tau ->
        ( Printf.sprintf "%.2f" tau,
          List.map
            (fun (l, queries) ->
              per_query (fun p -> L.query l ~pattern:p ~tau) queries)
            per_theta ))
      tau_sweep
  in
  print_table ~row_label:"tau" ~cols:theta_cols ~rows ~cell:us

(* ------------------------------------------------------------------ *)
(* Figures 7c / 9b (and 8c): sweeping the construction threshold τ_min.
   One pass records both query time and construction time. *)

let tau_min_sweep = [ 0.05; 0.08; 0.11; 0.14; 0.17; 0.20 ]

let tau_min_cells = lazy (
  let n = if !fast then 5_000 else 20_000 in
  ( n,
    List.map
      (fun tau_min ->
        ( tau_min,
          List.map
            (fun theta ->
              let u = dataset ~n ~theta in
              let g, build_s = time (fun () -> G.build ~tau_min u) in
              let queries = workload u in
              let q =
                per_query
                  (fun p -> G.query g ~pattern:p ~tau:tau_default)
                  queries
              in
              (q, build_s))
            thetas ))
      tau_min_sweep ))

let fig7c () =
  let n, cells = Lazy.force tau_min_cells in
  print_header "fig7c: substring search query time vs tau_min"
    (Printf.sprintf "mean us/query; n=%d tau=%.2f" n tau_default);
  print_table ~row_label:"tau_min" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (tm, row) ->
           (Printf.sprintf "%.2f" tm, List.map (fun (q, _) -> q) row))
         cells)
    ~cell:us

let fig9b () =
  let n, cells = Lazy.force tau_min_cells in
  print_header "fig9b: construction time vs tau_min"
    (Printf.sprintf "seconds; n=%d (smaller tau_min => larger transform)" n);
  print_table ~row_label:"tau_min" ~cols:theta_cols
    ~rows:
      (List.map
         (fun (tm, row) ->
           (Printf.sprintf "%.2f" tm, List.map (fun (_, b) -> b) row))
         cells)
    ~cell:secs

let fig8c () =
  let n = if !fast then 5_000 else 20_000 in
  print_header "fig8c: string listing query time vs tau_min"
    (Printf.sprintf "mean us/query; n=%d tau=%.2f Rel_max" n tau_default);
  let rows =
    List.map
      (fun tau_min ->
        ( Printf.sprintf "%.2f" tau_min,
          List.map
            (fun theta ->
              let ds = docs ~n ~theta in
              let l = L.build ~tau_min ds in
              let queries = workload (List.hd ds) in
              per_query
                (fun p -> L.query l ~pattern:p ~tau:tau_default)
                queries)
            thetas ))
      tau_min_sweep
  in
  print_table ~row_label:"tau_min" ~cols:theta_cols ~rows ~cell:us

(* ------------------------------------------------------------------ *)
(* Figures 7d / 8d: query time vs pattern length m. *)

let m_sweep = [ 4; 8; 12; 16; 20; 24 ]

let fig7d () =
  let n = if !fast then 20_000 else 100_000 in
  print_header "fig7d: substring search query time vs pattern length m"
    (Printf.sprintf "mean us/query; n=%d tau=%.2f tau_min=%.2f" n tau_default
       tau_min_default);
  let per_theta =
    List.map
      (fun theta ->
        let u = dataset ~n ~theta in
        (G.build ~tau_min:tau_min_default u, u))
      thetas
  in
  let rng = Random.State.make [| 77 |] in
  let rows =
    List.map
      (fun m ->
        ( string_of_int m,
          List.map
            (fun (g, u) ->
              let queries = Q.patterns rng u ~m ~count:(queries_per_length ()) in
              per_query (fun p -> G.query g ~pattern:p ~tau:tau_default) queries)
            per_theta ))
      m_sweep
  in
  print_table ~row_label:"m" ~cols:theta_cols ~rows ~cell:us

let fig8d () =
  let n = if !fast then 10_000 else 50_000 in
  print_header "fig8d: string listing query time vs pattern length m"
    (Printf.sprintf "mean us/query; n=%d tau=%.2f Rel_max" n tau_default);
  let per_theta =
    List.map
      (fun theta ->
        let ds = docs ~n ~theta in
        (L.build ~tau_min:tau_min_default ds, List.hd ds))
      thetas
  in
  let rng = Random.State.make [| 78 |] in
  let rows =
    List.map
      (fun m ->
        ( string_of_int m,
          List.map
            (fun (l, d0) ->
              if m > U.length d0 then nan
              else begin
                let queries = Q.patterns rng d0 ~m ~count:(queries_per_length ()) in
                per_query (fun p -> L.query l ~pattern:p ~tau:tau_default) queries
              end)
            per_theta ))
      (List.filter (fun m -> m <= 20) m_sweep)
  in
  print_table ~row_label:"m" ~cols:theta_cols ~rows ~cell:us

(* ------------------------------------------------------------------ *)
(* Approximate index (§7): accuracy/size/speed trade-off across ε. *)

let approx () =
  let n = if !fast then 5_000 else 20_000 in
  let theta = 0.3 in
  let u = dataset ~n ~theta in
  let exact = G.build ~tau_min:tau_min_default u in
  let queries = workload u in
  print_header "approx: the epsilon-approximate index (§7)"
    (Printf.sprintf
       "n=%d theta=%.1f tau=%.2f; 'extra' = reported-but-below-tau answers \
        (all within eps below tau by the guarantee)"
       n theta tau_default);
  Printf.printf "%10s %10s %12s %10s %12s %10s %10s\n" "epsilon" "build_s"
    "links" "size_MB" "query_us" "hits" "extra";
  List.iter
    (fun epsilon ->
      let a, build_s =
        time (fun () -> A.build ~epsilon ~tau_min:tau_min_default u)
      in
      let q = per_query (fun p -> A.query a ~pattern:p ~tau:tau_default) queries in
      let hits = ref 0 and extra = ref 0 in
      List.iter
        (fun p ->
          let approx_hits = A.query a ~pattern:p ~tau:tau_default in
          let exact_hits = G.query exact ~pattern:p ~tau:tau_default in
          hits := !hits + List.length approx_hits;
          extra := !extra + (List.length approx_hits - List.length exact_hits))
        queries;
      Printf.printf "%10.3f %10.2f %12d %10s %12.1f %10d %10d\n" epsilon build_s
        (A.n_links a)
        (mb (A.size_words a))
        (q *. 1e6) !hits !extra)
    [ 0.02; 0.05; 0.1; 0.2 ]

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* The engine persists one RMQ (the signature block structure), so the
   RMQ implementations are compared on their own, over what a level RMQ
   indexes: the log-probability of every length-4 window of the
   transformed text, -infinity where the window leaves its factor. *)
let abl_rmq () =
  let n = if !fast then 5_000 else 20_000 in
  let m = 4 in
  let tr = T.build ~tau_min:tau_min_default (dataset ~n ~theta:0.3) in
  let len = T.text_length tr in
  let pos = T.pos tr in
  let a =
    Array.init len (fun i ->
        if i + m > len || pos.(i) < 0 || pos.(i + m - 1) <> pos.(i) + m - 1
        then neg_infinity
        else Logp.to_log (T.window_logp_corrected tr ~pos:i ~len:m))
  in
  let rng = Random.State.make [| 7 |] in
  let ranges =
    List.init 2000 (fun _ ->
        let l = Random.State.int rng len in
        let w = 1 lsl Random.State.int rng 13 in
        (l, Stdlib.min (len - 1) (l + Random.State.int rng w)))
  in
  print_header "abl_rmq: RMQ implementation ablation (§4.2 / Lemma 1)"
    (Printf.sprintf
       "n=%d theta=0.3; length-%d window values over %d text positions; \
        ranges of 1-4096 entries"
       n m len);
  Printf.printf "%10s %10s %12s %12s\n" "rmq" "build_s" "bytes/elem" "query_us";
  let row (type r) name (build : value:(int -> float) -> len:int -> r)
      (query : r -> l:int -> r:int -> int) (size_bytes : r -> int) =
    let t, build_s = time (fun () -> build ~value:(Array.get a) ~len) in
    let q = per_query (fun (l, r) -> query t ~l ~r) ranges in
    Printf.printf "%10s %10.3f %12.2f %12.3f\n" name build_s
      (float_of_int (size_bytes t) /. float_of_int len)
      (q *. 1e6)
  in
  let open Pti_rmq in
  row "naive" Rmq_naive.build_oracle Rmq_naive.query Rmq_naive.size_bytes;
  row "sparse" Rmq_sparse.build_oracle Rmq_sparse.query Rmq_sparse.size_bytes;
  row
    (Printf.sprintf "block:%d" Rmq_block.max_block)
    (Rmq_block.build_oracle ~block:Rmq_block.max_block)
    Rmq_block.query Rmq_block.size_bytes

let abl_ladder () =
  let n = 1_500 in
  let u = dataset ~n ~theta:0.3 in
  print_header "abl_ladder: blocking ladder ablation (long patterns, §2.5)"
    (Printf.sprintf
       "n=%d theta=0.3 tau=%.2f; full = the paper's every-size ladder" n
       tau_default);
  Printf.printf "%12s %10s %12s %14s %14s\n" "ladder" "build_s" "size_MB"
    "short_q_us" "long_q_us";
  let rng = Random.State.make [| 5 |] in
  let short_queries = Q.patterns rng u ~m:6 ~count:30 in
  let long_queries =
    List.concat_map (fun m -> Q.patterns rng u ~m ~count:15) [ 20; 30; 40 ]
  in
  List.iter
    (fun (name, ladder) ->
      let config = { Engine.default_config with ladder } in
      let g, build_s =
        time (fun () -> G.build ~config ~tau_min:tau_min_default u)
      in
      let qs =
        per_query (fun p -> G.query g ~pattern:p ~tau:tau_default) short_queries
      in
      let ql =
        per_query (fun p -> G.query g ~pattern:p ~tau:tau_default) long_queries
      in
      Printf.printf "%12s %10.2f %12s %14.1f %14.1f\n" name build_s
        (mb (G.size_words g))
        (qs *. 1e6) (ql *. 1e6))
    [
      ("geometric", Engine.Ladder_geometric);
      ("full", Engine.Ladder_full);
      ("none", Engine.Ladder_none);
    ]

let abl_baseline () =
  print_header
    "abl_baseline: efficient index vs simple scan (§4.1) vs online DP"
    "mean us/query; theta=0.9 tau=0.8 m=2 (common patterns = large suffix \
     ranges; high uncertainty = few occurrences clear tau: the regime the RMQ \
     index is built for); oracle = Li et al.-style index-free scan";
  Printf.printf "%10s %12s %12s %12s %14s %8s\n" "n" "efficient" "simple"
    "oracle" "avg_range" "avg_occ";
  List.iter
    (fun n ->
      let u = dataset ~n ~theta:0.9 in
      let g = G.build ~tau_min:tau_min_default u in
      let si = Si.build ~tau_min:tau_min_default u in
      let rng = Random.State.make [| 6 |] in
      let queries = Q.patterns rng u ~m:2 ~count:(queries_per_length ()) in
      let tau = 0.8 in
      let qg = per_query (fun p -> G.query g ~pattern:p ~tau) queries in
      let qs = per_query (fun p -> Si.query si ~pattern:p ~tau) queries in
      let qo =
        per_query
          (fun p ->
            Pti_ustring.Oracle.occurrences u ~pattern:p ~tau:(Logp.of_prob tau))
          queries
      in
      let range =
        List.fold_left (fun acc p -> acc + Si.range_size si ~pattern:p) 0 queries
        / List.length queries
      in
      let occ =
        List.fold_left
          (fun acc p -> acc + List.length (G.query g ~pattern:p ~tau))
          0 queries
        / List.length queries
      in
      Printf.printf "%10d %12.1f %12.1f %12.1f %14d %8d\n" n (qg *. 1e6)
        (qs *. 1e6) (qo *. 1e6) range occ)
    (if !fast then [ 2_000; 10_000 ] else [ 2_000; 10_000; 50_000; 200_000 ])

let abl_approx_variants () =
  let n = if !fast then 5_000 else 20_000 in
  let u = dataset ~n ~theta:0.3 in
  let queries = workload u in
  print_header
    "abl_approx: per-leaf links vs HSV marking (§7) vs fixed-tau property \
     baseline (§5.1)"
    (Printf.sprintf
       "n=%d theta=0.3 tau=%.2f eps=0.05; property answers only tau = tau_c"
       n tau_default);
  Printf.printf "%12s %10s %12s %12s %12s\n" "index" "build_s" "links"
    "size_MB" "query_us";
  let a, ta = time (fun () -> A.build ~epsilon:0.05 ~tau_min:tau_min_default u) in
  let qa = per_query (fun p -> A.query a ~pattern:p ~tau:tau_default) queries in
  Printf.printf "%12s %10.2f %12d %12s %12.1f\n" "per-leaf" ta (A.n_links a)
    (mb (A.size_words a)) (qa *. 1e6);
  let h, th =
    time (fun () -> Pti_core.Approx_hsv.build ~epsilon:0.05 ~tau_min:tau_min_default u)
  in
  let qh =
    per_query (fun p -> Pti_core.Approx_hsv.query h ~pattern:p ~tau:tau_default) queries
  in
  Printf.printf "%12s %10.2f %12d %12s %12.1f\n" "hsv" th
    (Pti_core.Approx_hsv.n_links h)
    (mb (Pti_core.Approx_hsv.size_words h))
    (qh *. 1e6);
  let pr, tp =
    time (fun () -> Pti_core.Property_index.build ~tau_c:tau_default u)
  in
  let qp =
    per_query (fun p -> Pti_core.Property_index.query pr ~pattern:p) queries
  in
  Printf.printf "%12s %10.2f %12s %12s %12.1f\n" "property" tp "-"
    (mb (Pti_core.Property_index.size_words pr))
    (qp *. 1e6)

(* The range step alone on the mapped packed container: the two-search
   order (two full boundary searches, then the occurrence check)
   against the bucketed search the engine runs, over the same mapped
   [tr.text] and [sa] sections, per pattern length. Mean us per
   pattern, best of three passes over 2 000 Querygen patterns; every
   answer is checked equal. *)
let abl_range_step u =
  let module S = Pti_storage in
  let module Sa = Pti_suffix.Sa_search.Ba in
  let g = G.build ~tau_min:tau_min_default u in
  let path = Filename.temp_file "pti_bench_range" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      G.save g path;
      let r = S.Reader.open_file path in
      let text = S.Reader.ints r "tr.text" and sa = S.Reader.ints r "sa" in
      let table, table_s = time (fun () -> Sa.qgram text) in
      Printf.printf
        "\n   range step alone (mapped packed container, text length %d): \
         table %s derived in %.2f ms\n"
        (S.Ints.length text)
        (Pti_suffix.Sa_search.Qgram.describe table)
        (table_s *. 1e3);
      Printf.printf "%6s %10s %12s %14s %12s %8s\n" "m" "patterns" "empty_share"
        "two_search_us" "bucketed_us" "ratio";
      let rng = Random.State.make [| 4321 |] in
      List.iter
        (fun m ->
          let pats = Q.patterns rng u ~m ~count:2000 in
          let empty =
            List.fold_left
              (fun acc pattern ->
                let want = Sa.range_two_search ~text ~sa ~pattern in
                if Sa.range_in table ~text ~sa ~pattern <> want then
                  failwith "abl_range: bucketed and two-search ranges differ";
                if want = None then acc + 1 else acc)
              0 pats
          in
          let two =
            per_query (fun pattern -> Sa.range_two_search ~text ~sa ~pattern) pats
          in
          let bucketed =
            per_query (fun pattern -> Sa.range_in table ~text ~sa ~pattern) pats
          in
          Printf.printf "%6d %10d %12.3f %14.3f %12.3f %7.2fx\n" m
            (List.length pats)
            (float_of_int empty /. float_of_int (List.length pats))
            (two *. 1e6) (bucketed *. 1e6) (two /. bucketed))
        [ 1; 2; 10; 14; 20; 28 ])

let abl_range () =
  let n = if !fast then 5_000 else 20_000 in
  let u = dataset ~n ~theta:0.3 in
  let queries = workload u in
  print_header
    "abl_range: pattern->range step — SA binary search vs FM-index (the CSA \
     role of §8.7)"
    (Printf.sprintf "n=%d theta=0.3 tau=%.2f" n tau_default);
  Printf.printf "%10s %10s %12s %12s\n" "backend" "build_s" "size_MB" "query_us";
  List.iter
    (fun (name, backend) ->
      let g, build_s =
        time (fun () -> G.build ~backend ~tau_min:tau_min_default u)
      in
      let q =
        per_query (fun p -> G.query g ~pattern:p ~tau:tau_default) queries
      in
      Printf.printf "%10s %10.2f %12s %12.1f\n" name build_s
        (mb (G.size_words g))
        (q *. 1e6))
    [ ("binary", Engine.Packed); ("fm", Engine.Succinct) ];
  abl_range_step u

let abl_persist () =
  let n = if !fast then 10_000 else 100_000 in
  let u = dataset ~n ~theta:0.3 in
  print_header "abl_persist: building vs loading a persisted index"
    (Printf.sprintf
       "n=%d theta=0.3; load is a checksummed mmap open of the packed container"
       n);
  let g, build_s = time (fun () -> G.build ~tau_min:tau_min_default u) in
  let path = Filename.temp_file "pti_bench" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (), save_s = time (fun () -> G.save g path) in
      let g', load_s = time (fun () -> G.load path) in
      let rng = Random.State.make [| 31 |] in
      let pat = Q.pattern rng u ~m:6 in
      let same =
        G.query g ~pattern:pat ~tau:tau_default
        = G.query g' ~pattern:pat ~tau:tau_default
      in
      Printf.printf
        "%12s %10s %12s %14s %14s\n" "build_s" "save_s" "load_s" "file_MB"
        "same_answers";
      Printf.printf "%12.2f %10.2f %12.2f %14.1f %14b\n" build_s save_s load_s
        (float_of_int (Unix.stat path).Unix.st_size /. (1024.0 *. 1024.0))
        same)

(* ------------------------------------------------------------------ *)
(* par: multicore construction and batched queries on OCaml 5 domains.
   Sweeps domain counts {1, 2, 4, max}, reports build/query speedups
   against the sequential path, verifies the engines are byte-identical
   and writes machine-readable BENCH_PAR.json. *)

(* Host parallelism descriptor included in every bench JSON: downstream
   comparisons must discard speedup numbers from single-core hosts.
   [recommended_domains] is affinity-aware (cpuset/taskset restrictions
   in containerised CI count); [raw_processor_count] is the machine's
   processor count ignoring the mask — both are recorded so a
   restricted host is labelled honestly instead of looking multicore. *)
let host_json_fields () =
  let d = Pti_parallel.num_domains () in
  let affinity = Pti_parallel.available_cores () in
  let raw = Pti_parallel.raw_processor_count () in
  Printf.sprintf
    "\"recommended_domains\": %d,\n  \"affinity_cores\": %d,\n  \
     \"raw_processor_count\": %d,\n  \"single_core\": %b,"
    d affinity raw (affinity <= 1)

(* Which machine measured a latency row: hostname and CPU model (the
   first "model name" of /proc/cpuinfo), so rows that different hosts
   wrote into one file can be told apart. *)
let host_label () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> "unknown cpu"
            | Some l -> (
                match String.index_opt l ':' with
                | Some i when String.starts_with ~prefix:"model name" l ->
                    String.trim (String.sub l (i + 1) (String.length l - i - 1))
                | _ -> find ())
          in
          find ())
    with Sys_error _ -> "unknown cpu"
  in
  Printf.sprintf "%s / %s" (Unix.gethostname ()) cpu

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Where top-level [key] of a JSON file this harness wrote starts (the
   newline before its two-space indent) and where its value starts.
   Strings never hold a raw newline, so the match is a real key. *)
let top_level_key text key =
  let pat = Printf.sprintf "\n  \"%s\": " key in
  let n = String.length text and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = pat then Some (i, i + m)
    else find (i + 1)
  in
  find 0

(* The bracketed value of top-level [key], verbatim. *)
let top_level_value text key =
  let n = String.length text in
  let rec close j depth in_str =
    if j >= n then None
    else
      match text.[j] with
      | '\\' when in_str -> close (j + 2) depth in_str
      | '"' -> close (j + 1) depth (not in_str)
      | ('[' | '{') when not in_str -> close (j + 1) (depth + 1) in_str
      | (']' | '}') when not in_str ->
          if depth = 1 then Some (j + 1) else close (j + 1) (depth - 1) in_str
      | _ -> close (j + 1) depth in_str
  in
  Option.bind (top_level_key text key) (fun (_, start) ->
      Option.map (fun stop -> String.sub text start (stop - start))
        (close start 0 false))

(* Peak resident set (VmHWM) of this process in bytes, 0 if unknown
   (non-Linux). Sampled once per result row as the row completes, so a
   JSON consumer can read the memory high-water mark each measurement
   ran under — the space-amortisation gauge the segment/compaction
   benches report. VmHWM is monotone for the process, so within one
   experiment the per-row values are a running maximum, not
   independent footprints. *)
let peak_rss_bytes () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | line ->
              (try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb * 1024)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> loop ())
          | exception End_of_file -> 0
        in
        loop ())
  with Sys_error _ -> 0

let engine_file_bytes e =
  let path = Filename.temp_file "pti_bench_par" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.save e path;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let par () =
  let n = if !fast then 20_000 else 100_000 in
  let theta = 0.3 in
  let tau_min = tau_min_default in
  let u = dataset ~n ~theta in
  let tr, transform_s = time (fun () -> T.build ~tau_min u) in
  let text_len = T.text_length tr in
  let max_d = Pti_parallel.num_domains () in
  let domain_counts =
    List.sort_uniq compare (List.filter (fun d -> d <= Stdlib.max 4 max_d) [ 1; 2; 4; max_d ])
  in
  print_header "par: multicore index construction and batched queries"
    (Printf.sprintf
       "n=%d theta=%.1f tau_min=%.2f text N=%d; recommended domains=%d \
        (PTI_DOMAINS overrides); transform (sequential, shared): %.2fs"
       n theta tau_min text_len max_d transform_s);
  let rng = Random.State.make [| 4242 |] in
  let patterns =
    Array.of_list
      (List.concat_map
         (fun m ->
           List.map
             (fun p -> (p, tau_default))
             (Q.patterns rng u ~m ~count:(8 * queries_per_length ())))
         (List.filter (fun m -> m <= n) query_lengths))
  in
  let key_of_pos p = p in
  let results =
    List.map
      (fun d ->
        let e, build_s =
          time (fun () -> Engine.build ~domains:d ~key_of_pos tr)
        in
        let batch () =
          let _, t =
            time (fun () -> ignore (Engine.query_batch ~domains:d e ~patterns))
          in
          t /. float_of_int (Array.length patterns)
        in
        let q1 = batch () in
        let q2 = batch () in
        let q3 = batch () in
        let query_us = Float.min q1 (Float.min q2 q3) *. 1e6 in
        (d, e, build_s, query_us))
      domain_counts
  in
  let _, e1, build1, query1 =
    List.find (fun (d, _, _, _) -> d = 1) results
  in
  let reference = engine_file_bytes e1 in
  let rows =
    List.map
      (fun (d, e, build_s, query_us) ->
        let identical = String.equal reference (engine_file_bytes e) in
        (d, build_s, query_us, identical, peak_rss_bytes ()))
      results
  in
  Printf.printf "%10s %12s %12s %12s %12s %12s\n" "domains" "build_s"
    "speedup" "query_us" "speedup" "identical";
  List.iter
    (fun (d, build_s, query_us, identical, _) ->
      Printf.printf "%10d %12.2f %12.2f %12.1f %12.2f %12b\n" d build_s
        (build1 /. build_s) query_us (query1 /. query_us) identical)
    rows;
  let oc = open_out "BENCH_PAR.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"experiment\": \"par\",\n  \"n\": %d,\n  \"theta\": %g,\n\
        \  \"tau_min\": %g,\n  \"text_len\": %d,\n  \"n_queries\": %d,\n\
        \  %s\n\
        \  \"transform_s\": %.4f,\n\
        \  \"note\": \"%s\",\n  \"results\": [\n"
        n theta tau_min text_len (Array.length patterns) (host_json_fields ())
        transform_s
        (json_escape
           ("engine build only; the shared general->special transform is \
             sequential. speedups are vs domains=1 on this machine."
           ^
           if max_d <= 1 then
             " WARNING: this host exposes a single core \
              (recommended_domains=1), so domain counts > 1 oversubscribe \
              it and speedups cannot exceed 1; rerun on a multicore host."
           else ""));
      List.iteri
        (fun i (d, build_s, query_us, identical, rss) ->
          Printf.fprintf oc
            "    {\"domains\": %d, \"build_s\": %.4f, \"build_speedup\": \
             %.3f, \"query_us_per_query\": %.2f, \"query_speedup\": %.3f, \
             \"identical_parts\": %b, \"peak_rss_bytes\": %d}%s\n"
            d build_s (build1 /. build_s) query_us (query1 /. query_us)
            identical rss
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "   wrote BENCH_PAR.json\n"

(* ------------------------------------------------------------------ *)
(* io: persistence cost model of the PTI-ENGINE-4 container. Measures
   save time, file size, and the load-to-first-query latency on a fresh
   index handle: the mmap path is a page mapping plus (by default) one
   checksum pass, and with ~verify:false nothing but the envelope
   parse. Writes BENCH_IO.json. *)

let io () =
  let ns_io =
    if !smoke then [ 2_000; 5_000 ]
    else if !fast then [ 10_000; 100_000 ]
    else [ 10_000; 100_000; 1_000_000 ]
  in
  let theta = 0.3 in
  print_header "io: index persistence — zero-copy mmap open"
    (Printf.sprintf
       "theta=%.1f tau_min=%.2f; latencies are load-to-first-query on a \
        fresh handle"
       theta tau_min_default);
  Printf.printf "%10s %8s %8s %9s %11s %11s\n" "n" "build_s" "save_s" "file_MB"
    "mmap_ms" "noverify_ms";
  let rng = Random.State.make [| 97 |] in
  let rows =
    List.map
      (fun n ->
        let u = dataset ~n ~theta in
        let g, build_s = time (fun () -> G.build ~tau_min:tau_min_default u) in
        let pat = Q.pattern rng u ~m:8 in
        let first_query g' = ignore (G.query g' ~pattern:pat ~tau:tau_default) in
        let path = Filename.temp_file "pti_bench_io" ".idx" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let (), save_s = time (fun () -> G.save g path) in
            let file_b = (Unix.stat path).Unix.st_size in
            let to_first_query load =
              let g', load_s = time load in
              let (), q_s = time (fun () -> first_query g') in
              (load_s, q_s)
            in
            let open_s, open_q_s = to_first_query (fun () -> G.load path) in
            let raw_open_s, raw_q_s =
              to_first_query (fun () -> G.load ~verify:false path)
            in
            Printf.printf "%10d %8.2f %8.2f %9.1f %11.2f %11.2f\n" n build_s
              save_s
              (float_of_int file_b /. (1024. *. 1024.))
              ((open_s +. open_q_s) *. 1e3)
              ((raw_open_s +. raw_q_s) *. 1e3);
            ( n, build_s, save_s, file_b, open_s, open_q_s, raw_open_s, raw_q_s,
              peak_rss_bytes () )))
      ns_io
  in
  let oc = open_out "BENCH_IO.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"experiment\": \"io\",\n  \"theta\": %g,\n  \"tau_min\": %g,\n\
        \  %s\n\
        \  \"note\": \"%s\",\n  \"results\": [\n"
        theta tau_min_default (host_json_fields ())
        (json_escape
           "latencies in seconds, sizes in bytes; *_to_first_query = fresh \
            handle open plus one 8-symbol query. mmap = PTI-ENGINE-4 packed \
            container opened read-only via map_file (default: one checksum \
            pass; noverify trusts array sections).");
      List.iteri
        (fun i
             (n, build_s, save_s, file_b, open_s, open_q_s, raw_open_s, raw_q_s, rss) ->
          Printf.fprintf oc
            "    {\"n\": %d, \"build_s\": %.4f, \"save_s\": %.4f, \
             \"file_bytes\": %d, \"mmap_open_s\": %.6f, \
             \"mmap_first_query_s\": %.6f, \"mmap_to_first_query_s\": %.6f, \
             \"mmap_noverify_open_s\": %.6f, \
             \"mmap_noverify_first_query_s\": %.6f, \"peak_rss_bytes\": %d}%s\n"
            n build_s save_s file_b open_s open_q_s (open_s +. open_q_s)
            raw_open_s raw_q_s rss
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "   wrote BENCH_IO.json\n"

(* ------------------------------------------------------------------ *)
(* space: the space–latency frontier across the two persisted backends
   of the same dataset — packed (suffix-array binary search) and
   succinct (FM-index range search), both with signature block RMQs in
   minimal-width sections — file bytes, 8-byte words per
   transformed-text position (Fig 9(c)'s unit), and save / open / query
   latencies of each container. The succinct engine's answers are
   verified equal to the packed engine's over the whole workload while
   being measured. Writes BENCH_SPACE.json. *)

type space_row = {
  sp_n : int;
  sp_text_len : int;
  sp_build_s : float;
  sp_succ_build_s : float;
  sp_save_s : float;
  sp_succ_save_s : float;
  sp_packed_b : int;
  sp_succ_b : int;
  sp_wpp : float;
  sp_succ_wpp : float;
  sp_open_s : float;
  sp_succ_open_s : float;
  sp_q_us : float;
  sp_succ_q_us : float;
}

let space () =
  let ns_sp =
    if !smoke then [ 2_000; 5_000 ]
    else if !fast then [ 10_000; 100_000 ]
    else [ 10_000; 100_000; 1_000_000 ]
  in
  let theta = 0.3 in
  print_header "space: packed vs succinct containers (PTI-ENGINE-4)"
    (Printf.sprintf
       "theta=%.1f tau_min=%.2f; paper Fig 9(c) target is ~10.5 words per \
        transformed-text position; succinct target < 4"
       theta tau_min_default);
  Printf.printf "%10s %10s %10s %7s %7s %9s %9s %7s\n" "n" "packed_MB" "succ_MB"
    "wpp" "s_wpp" "q_us" "sq_us" "slow";
  let rows =
    List.map
      (fun n ->
        let u = dataset ~n ~theta in
        let g, build_s = time (fun () -> G.build ~tau_min:tau_min_default u) in
        let gs, succ_build_s =
          time (fun () ->
              G.build ~backend:Pti_core.Engine.Succinct ~tau_min:tau_min_default
                u)
        in
        let text_len = T.text_length (G.transform g) in
        let queries = workload u in
        let packed_path = Filename.temp_file "pti_bench_space" ".idx" in
        let succ_path = Filename.temp_file "pti_bench_space" ".idxs" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove packed_path;
            Sys.remove succ_path)
          (fun () ->
            let (), save_s = time (fun () -> G.save g packed_path) in
            let (), succ_save_s = time (fun () -> G.save gs succ_path) in
            let packed_b = (Unix.stat packed_path).Unix.st_size in
            let succ_b = (Unix.stat succ_path).Unix.st_size in
            let open_and_query path =
              let g', open_s = time (fun () -> G.load path) in
              let q_us =
                per_query
                  (fun p -> G.query g' ~pattern:p ~tau:tau_default)
                  queries
                *. 1e6
              in
              (g', open_s, q_us)
            in
            let gp, open_s, q_us = open_and_query packed_path in
            let gsucc, succ_open_s, succ_q_us = open_and_query succ_path in
            (* the frontier is only meaningful if both ends answer
               identically: verify the mapped succinct engine against the
               mapped packed engine over the whole workload *)
            List.iter
              (fun p ->
                let want = G.query gp ~pattern:p ~tau:tau_default in
                let got = G.query gsucc ~pattern:p ~tau:tau_default in
                if want <> got then
                  failwith
                    (Printf.sprintf
                       "space: succinct/packed mismatch at n=%d on pattern \
                        of length %d"
                       n (Array.length p)))
              queries;
            let wpp =
              Space.words_per_position ~bytes:packed_b ~positions:text_len
            in
            let succ_wpp =
              Space.words_per_position ~bytes:succ_b ~positions:text_len
            in
            Printf.printf "%10d %10.2f %10.2f %7.2f %7.2f %9.1f %9.1f %6.2fx\n"
              n
              (float_of_int packed_b /. (1024. *. 1024.))
              (float_of_int succ_b /. (1024. *. 1024.))
              wpp succ_wpp q_us succ_q_us (succ_q_us /. q_us);
            {
              sp_n = n;
              sp_text_len = text_len;
              sp_build_s = build_s;
              sp_succ_build_s = succ_build_s;
              sp_save_s = save_s;
              sp_succ_save_s = succ_save_s;
              sp_packed_b = packed_b;
              sp_succ_b = succ_b;
              sp_wpp = wpp;
              sp_succ_wpp = succ_wpp;
              sp_open_s = open_s;
              sp_succ_open_s = succ_open_s;
              sp_q_us = q_us;
              sp_succ_q_us = succ_q_us;
            }))
      ns_sp
  in
  let row r =
    Printf.sprintf
      "{\"n\": %d, \"text_len\": %d, \"build_s\": %.4f, \
       \"succinct_build_s\": %.4f, \"packed_save_s\": %.4f, \
       \"succinct_save_s\": %.4f, \"packed_file_bytes\": %d, \
       \"succinct_file_bytes\": %d, \"packed_words_per_position\": %.3f, \
       \"succinct_words_per_position\": %.3f, \"packed_open_s\": %.6f, \
       \"succinct_open_s\": %.6f, \"packed_query_us\": %.2f, \
       \"succinct_query_us\": %.2f, \"succinct_latency_ratio\": %.3f, \
       \"host\": \"%s\"}"
      r.sp_n r.sp_text_len r.sp_build_s r.sp_succ_build_s r.sp_save_s
      r.sp_succ_save_s r.sp_packed_b r.sp_succ_b r.sp_wpp r.sp_succ_wpp
      r.sp_open_s r.sp_succ_open_s r.sp_q_us r.sp_succ_q_us
      (r.sp_succ_q_us /. r.sp_q_us)
      (json_escape (host_label ()))
  in
  (* A run replaces the committed rows of the sizes it measured and
     keeps the others, one row per line as this harness writes them;
     the "history" block (rows of earlier container layouts) is kept
     verbatim. *)
  let old =
    try Some (In_channel.with_open_bin "BENCH_SPACE.json" In_channel.input_all)
    with Sys_error _ -> None
  in
  let kept =
    match Option.bind old (fun text -> top_level_value text "results") with
    | None -> []
    | Some arr ->
        List.filter_map
          (fun line ->
            let line = String.trim line in
            let line =
              if String.ends_with ~suffix:"," line then
                String.sub line 0 (String.length line - 1)
              else line
            in
            match Scanf.sscanf line "{\"n\": %d," Fun.id with
            | n when not (List.mem n ns_sp) -> Some (n, line)
            | _ -> None
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
          (String.split_on_char '\n' arr)
  in
  let lines =
    List.sort compare (List.map (fun r -> (r.sp_n, row r)) rows @ kept)
    |> List.map (fun (_, l) -> "    " ^ l)
  in
  let history =
    Option.value ~default:"[]"
      (Option.bind old (fun text -> top_level_value text "history"))
  in
  Out_channel.with_open_bin "BENCH_SPACE.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"experiment\": \"space\",\n  \"theta\": %g,\n\
        \  \"tau_min\": %g,\n\
        \  %s\n\
        \  \"note\": \"%s\",\n  \"results\": [\n%s\n  ],\n  \"history\": %s\n}\n"
        theta tau_min_default (host_json_fields ())
        (json_escape
           "space-latency frontier over the same dataset: both backends \
            store the same signature block RMQs (~4.1 bits/element/level) \
            in minimal-width PTI-ENGINE-4 sections; packed = suffix-array \
            search inside a q-gram bucket (a table derived from the text \
            at open, not stored), succinct = FM-index range search (adds the \
            BWT's wavelet tree). Both are mapped read-only with no rebuild \
            at open and verified to answer the whole workload \
            identically. words_per_position = file bytes / 8 / \
            transformed text length, the unit of the paper's Fig 9(c) \
            (~10.5 for the paper's index). query latencies are mean us per \
            query over the standard mixed-length workload on the reopened \
            mmap engine, best of three passes; host names the machine \
            (hostname / CPU model) that measured a row. A run replaces the \
            rows of the sizes it measured; history holds rows of earlier \
            layouts.")
        (String.concat ",\n" lines) history);
  Printf.printf "   wrote BENCH_SPACE.json\n"

(* ------------------------------------------------------------------ *)
(* serve: the TCP daemon end to end (DESIGN.md §10/§12/§14). Three row
   families go into BENCH_SERVE.json: "results" — loadgen throughput
   and client-side latency percentiles at several concurrency levels,
   heap-resident engines vs the mmap container + sharded LRU cache
   exactly as `pti serve` runs them — "multicore" — the scaling
   sweep (workers 1/2/4/8 × concurrency 1/8/64/256, mmap backend) with
   byte-for-byte verification of every reply, so the replies the
   accept loop and the workers compute are proven identical to direct
   engine queries while they are being measured — and "hotpath" — the
   zero-allocation/result-cache profile (DESIGN.md §14): a repetitive
   pattern-pool workload at concurrency 8 against packed and succinct
   mmap containers, one row
   with the result cache off and a cold + cache-hot pair with it on,
   each row recording the server's own minor-heap words per request
   next to the pre-PR baseline measured before buffer pooling. The
   `multicore` and `hotpath` experiment aliases run only their
   families. *)

(* Pre-PR allocation baseline for the hotpath family: minor-heap words
   per request measured at the commit before buffer pooling and the
   result cache (bdaddba), with only a Gc.quick_stat sampler patched
   into its worker/accept loops — same workload shape as the hotpath
   rows (binary protocol, mmap packed containers, concurrency 8, mix
   query=8,topk=1,listing=1, lengths 3/6, tau 0.15, n=100000; two runs
   gave 4553.9 and 4569.7). The ≥50% alloc-drop acceptance gate
   compares the cache-hot hotpath row against this number. *)
let pre_pr_minor_words_per_request = 4561.8

let serve_bench ?(sweep_only = false) ?(hotpath_only = false) () =
  let module Server = Pti_server.Server in
  let module Loadgen = Pti_server.Loadgen in
  let module Ec = Pti_server.Engine_cache in
  let module SP = Pti_server.Protocol in
  let n = if !smoke then 5_000 else if !fast then 20_000 else 100_000 in
  let theta = 0.3 in
  let u = dataset ~n ~theta in
  let ds = docs ~n ~theta in
  let g = G.build ~tau_min:tau_min_default u in
  let l = L.build ~tau_min:tau_min_default ds in
  (* the hotpath family also serves a succinct container, so the cached
     bytes are proven identical across both persisted backends *)
  let gs = G.build ~backend:Engine.Succinct ~tau_min:tau_min_default u in
  let gpath = Filename.temp_file "pti_bench_serve" ".idx" in
  let lpath = Filename.temp_file "pti_bench_serve" ".idx" in
  let gspath = Filename.temp_file "pti_bench_serve" ".idx" in
  let workers = Pti_parallel.num_domains () in
  let cores = Pti_parallel.available_cores () in
  let duration_s = if !smoke then 0.4 else if !fast then 1.0 else 2.0 in
  let concurrencies = [ 1; 8; 64 ] in
  let mix = { Loadgen.query = 8; top_k = 1; listing = 1 } in
  (* Byte-for-byte verification against the in-process engines: floats
     travel as raw IEEE-754 bits, so [=] on the decoded hits is exact
     equality with a direct engine query. *)
  let make_verifier handles =
    let wire hits = List.map (fun (key, p) -> (key, Logp.to_log p)) hits in
    fun op reply ->
      let check index direct =
        index >= 0
        && index < Array.length handles
        &&
        match reply with
        | SP.Hits hs -> (
            match direct handles.(index) with
            | Some want -> hs = wire want
            | None -> false)
        | _ -> false
      in
      try
        match op with
        | SP.Query { index; pattern; tau } ->
            let pattern = Sym.of_string pattern in
            check index (function
              | Ec.General g -> Some (G.query g ~pattern ~tau)
              | Ec.Listing l -> Some (L.query l ~pattern ~tau))
        | SP.Top_k { index; pattern; tau; k } ->
            let pattern = Sym.of_string pattern in
            check index (function
              | Ec.General g -> Some (G.query_top_k g ~pattern ~tau ~k)
              | Ec.Listing l -> Some (L.query_top_k l ~pattern ~tau ~k))
        | SP.Listing { index; pattern; tau } ->
            let pattern = Sym.of_string pattern in
            check index (function
              | Ec.Listing l -> Some (L.query l ~pattern ~tau)
              | Ec.General _ -> None)
        | SP.Stats | SP.Ping | SP.Slow _ -> true
        (* the serving bench never issues mutations *)
        | SP.Insert _ | SP.Delete _ | SP.Flush _ -> false
      with _ -> false
  in
  let verifier = make_verifier [| Ec.General g; Ec.Listing l |] in
  (* A memoizing byte-for-byte verifier for the repetitive hotpath
     workload: the first occurrence of each operation is checked
     against a direct engine query, its encoded reply is remembered,
     and every repeat — exactly the requests a hot result cache
     answers — must reproduce those bytes exactly. This keeps the
     client-side verify cost of a repeated request at one hash lookup
     and one string compare, so on a small host the verifier does not
     become the bottleneck that hides the server-side cache speedup,
     while still proving every cached reply byte-identical to the
     direct engine answer. *)
  let memoizing verify =
    let tbl : (string, string) Hashtbl.t = Hashtbl.create 4096 in
    let m = Mutex.create () in
    fun op reply ->
      let key = SP.encode_request { SP.id = 0; op } in
      let enc = SP.encode_reply ~id:0 reply in
      let known =
        Mutex.lock m;
        let r = Hashtbl.find_opt tbl key in
        Mutex.unlock m;
        r
      in
      match known with
      | Some want -> String.equal want enc
      | None ->
          let ok = verify op reply in
          if ok then begin
            Mutex.lock m;
            Hashtbl.replace tbl key enc;
            Mutex.unlock m
          end;
          ok
  in
  let row_errors (r : Loadgen.result) =
    List.fold_left (fun a (_, c) -> a + c) 0 r.Loadgen.errors
    + r.Loadgen.protocol_failures + r.Loadgen.verify_failures
  in
  print_header "serve: TCP daemon throughput, latency and scaling"
    (Printf.sprintf
       "n=%d theta=%.1f tau=%.2f; %d worker domain(s) default, %d usable \
        core(s), mix query=8,topk=1,listing=1, %.1fs per point; every \
        reply verified byte-for-byte against direct engine queries"
       n theta tau_default workers cores duration_s);
  Fun.protect
    ~finally:(fun () ->
      Sys.remove gpath;
      Sys.remove lpath;
      Sys.remove gspath)
    (fun () ->
      G.save g gpath;
      L.save l lpath;
      G.save gs gspath;
      let run_rows ~label ~concurrencies configs =
        Printf.printf "%10s %8s %6s %10s %10s %10s %10s %8s %8s\n" label
          "workers" "conc" "req/s" "p50_us" "p95_us" "p99_us" "errors"
          "verify";
        List.concat_map
          (fun (tag, w, sources) ->
            let config =
              {
                Server.default_config with
                port = 0;
                workers = w;
                queue_cap = 8192;
              }
            in
            let srv = Server.create ~config sources in
            let d = Domain.spawn (fun () -> Server.run srv) in
            Fun.protect
              ~finally:(fun () ->
                Server.stop srv;
                Domain.join d)
              (fun () ->
                List.map
                  (fun concurrency ->
                    let r =
                      Loadgen.run ~port:(Server.port srv) ~concurrency
                        ~duration_s ~verify:verifier ~index:0 ~listing_index:1
                        ~lengths:[ 4; 8 ] ~tau:tau_default ~mix ~source:u ()
                    in
                    Printf.printf
                      "%10s %8d %6d %10.0f %10.1f %10.1f %10.1f %8d %8d\n%!"
                      tag w concurrency r.Loadgen.throughput_rps
                      r.Loadgen.p50_us r.Loadgen.p95_us r.Loadgen.p99_us
                      (row_errors r) r.Loadgen.verify_failures;
                    (tag, w, concurrency, r))
                  concurrencies))
          configs
      in
      let backend_rows =
        if sweep_only || hotpath_only then []
        else
          run_rows ~label:"engines" ~concurrencies
            [
              ("heap", workers,
               [ Server.Source_general g; Server.Source_listing l ]);
              ("mmap", workers,
               [ Server.Source_file gpath; Server.Source_file lpath ]);
            ]
      in
      let workers_list =
        if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ]
      in
      (* the scaling profile proper reaches deeper concurrency than the
         backend-comparison rows; smoke/fast stop at 64 for CI budget *)
      let sweep_concurrencies =
        if !fast then [ 1; 8; 64 ] else [ 1; 8; 64; 256 ]
      in
      let mmap_sources = [ Server.Source_file gpath; Server.Source_file lpath ] in
      let mc_rows =
        if hotpath_only then []
        else
          run_rows ~label:"multicore" ~concurrencies:sweep_concurrencies
            (List.map (fun w -> (Printf.sprintf "w%d" w, w, mmap_sources))
               workers_list)
      in
      (* hotpath family (DESIGN.md §14): repetitive pattern-pool
         workload at concurrency 8 so the server-side result cache can
         do its job, one server with the cache off (the pooled-buffer
         baseline) and one with it on measured cold then hot. Every row
         records the server's own minor-words-per-request (the
         zero-allocation gauge) and every reply is byte-for-byte
         verified through the memoizing verifier above. *)
      let hp_conc = 8 in
      let hp_pool = 64 in
      (* Shorter patterns at a lower threshold than the headline rows:
         many-occurrence queries with fat hit lists are both the
         expensive case for the engine and the case a result cache is
         for — repeated popular queries. *)
      let hp_lengths = [ 3; 6 ] in
      let hp_tau = 0.15 in
      let hotpath_rows =
        if sweep_only then []
        else begin
          let warm = if !smoke then 0.1 else 0.25 in
          let total_received m =
            List.fold_left
              (fun a k -> a + Pti_server.Metrics.requests_received m ~kind:k)
              0
              [ "query"; "top_k"; "listing" ]
          in
          Printf.printf "%10s %10s %6s %10s %10s %10s %8s %8s %12s %10s\n"
            "hotpath" "phase" "conc" "req/s" "p50_us" "p99_us" "errors"
            "verify" "words/req" "rc_hits";
          List.concat_map
            (fun (tag, sources, handles) ->
              let verify = memoizing (make_verifier handles) in
              let run_passes cache_mb passes =
                let config =
                  {
                    Server.default_config with
                    port = 0;
                    workers;
                    queue_cap = 8192;
                    result_cache_mb = cache_mb;
                  }
                in
                let srv = Server.create ~config sources in
                let d = Domain.spawn (fun () -> Server.run srv) in
                Fun.protect
                  ~finally:(fun () ->
                    Server.stop srv;
                    Domain.join d)
                  (fun () ->
                    let one_pass warmup_s =
                      let m = Server.metrics srv in
                      let w0 = Pti_server.Metrics.gc_minor_words m in
                      let r0 = total_received m in
                      let h0 = Pti_server.Metrics.result_cache_hits m in
                      let r =
                        Loadgen.run ~port:(Server.port srv)
                          ~concurrency:hp_conc ~duration_s ~warmup_s
                          ~pattern_pool:hp_pool ~verify ~index:0
                          ~listing_index:1 ~lengths:hp_lengths ~tau:hp_tau
                          ~mix ~source:u ()
                      in
                      (* workers flush their GC samplers once per
                         drained batch and the accept loop once per
                         tick; a short sleep lets the final tick
                         land before the counters are read *)
                      Unix.sleepf 0.3;
                      let reqs = total_received m - r0 in
                      let words_per_req =
                        float_of_int
                          (Pti_server.Metrics.gc_minor_words m - w0)
                        /. float_of_int (Stdlib.max 1 reqs)
                      in
                      let rc_hits =
                        Pti_server.Metrics.result_cache_hits m - h0
                      in
                      (rc_hits, words_per_req, r)
                    in
                    List.map
                      (fun (phase, warmup_s, repeats) ->
                        (* steady-state phases take the best of
                           [repeats] passes: the accept loop, the
                           worker and the eight loadgen threads share
                           whatever cores the host has, so a single
                           pass is at the mercy of the scheduler;
                           "cold" is one pass by definition *)
                        let all_verify_failures = ref 0 in
                        let all_protocol_failures = ref 0 in
                        let best =
                          List.fold_left
                            (fun acc _ ->
                              let (_, _, r) as p = one_pass warmup_s in
                              all_verify_failures :=
                                !all_verify_failures
                                + r.Loadgen.verify_failures;
                              all_protocol_failures :=
                                !all_protocol_failures
                                + r.Loadgen.protocol_failures;
                              match acc with
                              | Some ((_, _, r') as p') ->
                                  Some
                                    (if r.Loadgen.throughput_rps
                                        > r'.Loadgen.throughput_rps
                                     then p
                                     else p')
                              | None -> Some p)
                            None
                            (List.init (Stdlib.max 1 repeats) Fun.id)
                        in
                        let rc_hits, words_per_req, r = Option.get best in
                        (* correctness is never best-of: a verify or
                           protocol failure in any pass survives into
                           the reported row *)
                        let r =
                          {
                            r with
                            Loadgen.verify_failures = !all_verify_failures;
                            protocol_failures = !all_protocol_failures;
                          }
                        in
                        Printf.printf
                          "%10s %10s %6d %10.0f %10.1f %10.1f %8d %8d \
                           %12.1f %10d\n%!"
                          tag phase hp_conc r.Loadgen.throughput_rps
                          r.Loadgen.p50_us r.Loadgen.p99_us (row_errors r)
                          r.Loadgen.verify_failures words_per_req rc_hits;
                        (tag, phase, cache_mb > 0, rc_hits, words_per_req, r))
                      passes)
              in
              let off_rows = run_passes 0 [ ("cache_off", warm, 2) ] in
              let on_rows =
                run_passes Server.default_config.Server.result_cache_mb
                  [ ("cold", 0.0, 1); ("hot", warm, 2) ]
              in
              off_rows @ on_rows)
            [
              ( "packed",
                [ Server.Source_file gpath; Server.Source_file lpath ],
                [| Ec.General g; Ec.Listing l |] );
              ( "succinct",
                [ Server.Source_file gspath; Server.Source_file lpath ],
                [| Ec.General gs; Ec.Listing l |] );
            ]
        end
      in
      let hotpath_summary =
        let find phase =
          List.find_opt
            (fun (tag, p, _, _, _, _) -> tag = "packed" && p = phase)
            hotpath_rows
        in
        match (find "cache_off", find "hot") with
        | ( Some (_, _, _, _, off_words, off),
            Some (_, _, _, _, hot_words, hot) )
          when off.Loadgen.throughput_rps > 0.0 ->
            let speedup =
              hot.Loadgen.throughput_rps /. off.Loadgen.throughput_rps
            in
            (* the headline alloc drop is the cache-hot serving path —
               the path this PR pools end to end; the cache-off row's
               words/request are dominated by the engine query itself
               (reply materialisation, transform work), which buffer
               pooling deliberately leaves alone, so it is recorded as
               the secondary gauge *)
            let hot_drop =
              1.0 -. (hot_words /. pre_pr_minor_words_per_request)
            in
            let off_drop =
              1.0 -. (off_words /. pre_pr_minor_words_per_request)
            in
            Printf.printf
              "   hotpath: cache-hot %.2fx vs cache-off; minor words/req \
               %.1f hot / %.1f cache-off vs %.1f pre-PR (hot drop %.0f%%)\n"
              speedup hot_words off_words pre_pr_minor_words_per_request
              (100.0 *. hot_drop);
            Printf.sprintf
              "\"hot_speedup_vs_cache_off\": %.3f, \
               \"hot_alloc_drop_vs_pre_pr\": %.3f, \
               \"cache_off_alloc_drop_vs_pre_pr\": %.3f, "
              speedup hot_drop off_drop
        | _ -> ""
      in
      let speedup w concurrency r =
        match
          List.find_opt (fun (_, w', c', _) -> w' = 1 && c' = concurrency)
            mc_rows
        with
        | Some (_, _, _, base)
          when w > 1 && base.Loadgen.throughput_rps > 0.0 ->
            r.Loadgen.throughput_rps /. base.Loadgen.throughput_rps
        | _ -> 1.0
      in
      let header =
        Printf.sprintf
          "{\n  \"experiment\": \"serve\",\n  \"n\": %d,\n\
          \  \"theta\": %g,\n  \"tau\": %g,\n  \"tau_min\": %g,\n\
          \  \"workers\": %d,\n  \"duration_s\": %g,\n\
          \  \"mix\": \"query=8,topk=1,listing=1\",\n\
          \  %s\n\
          \  \"note\": \"%s\",\n"
          n theta tau_default tau_min_default workers duration_s
          (host_json_fields ())
          (json_escape
             ("one server (binary protocol, bounded queue, worker domains, \
               epoll accept loop answering result-cache hits and cheap \
               misses), one Loadgen client pool per row; heap = engines \
               built in-process, mmap = PTI-ENGINE-4 containers resolved \
               through the sharded LRU cache. every reply is verified \
               byte-for-byte against a direct engine query \
               (verify_failures counts mismatches). latency percentiles \
               are exact client-side measurements. multicore rows sweep \
               worker domains on the mmap backend; cores is the \
               affinity-aware usable core count per row. the hotpath \
               block carries the host it ran on."
             ^
             if cores <= 1 then
               " WARNING: single-core host — the accept loop, the worker \
                and the load generator all share one core, so throughput \
                is a floor and multicore speedups cannot exceed 1; rerun \
                on a multicore host."
             else ""))
      in
      let rows_json render rows =
        "[\n" ^ String.concat ",\n" (List.map render rows) ^ "\n  ]"
      in
      let results_json =
        rows_json
          (fun (backend, _, concurrency, r) ->
            Printf.sprintf "    {\"engines\": \"%s\", \"concurrency\": %d, %s}"
              backend concurrency
              (Loadgen.to_json_fields r))
          backend_rows
      in
      let multicore_json =
        rows_json
          (fun (_, w, concurrency, r) ->
            Printf.sprintf
              "    {\"workers\": %d, \"concurrency\": %d, \"cores\": %d, \
               \"raw_processor_count\": %d, \"speedup_vs_workers1\": %.3f, %s}"
              w concurrency cores
              (Pti_parallel.raw_processor_count ())
              (speedup w concurrency r)
              (Loadgen.to_json_fields r))
          mc_rows
      in
      let hotpath_json =
        Printf.sprintf
          "{\n    \"workers\": %d, %s\n\
          \    \"concurrency\": %d, \"pattern_pool\": %d,\n\
          \    \"pre_pr_minor_words_per_request\": %.1f,\n\
          \    \"pre_pr_note\": \"%s\",\n\
          \    %s\"rows\": [\n%s\n    ]\n  }"
          workers
          (String.concat " "
             (List.map String.trim
                (String.split_on_char '\n' (host_json_fields ()))))
          hp_conc hp_pool pre_pr_minor_words_per_request
          (json_escape
             "baseline measured at the commit before buffer pooling and \
              the result cache (bdaddba) with a Gc.quick_stat sampler \
              patched into its worker/accept loops: binary protocol, \
              mmap packed containers, concurrency 8, \
              mix query=8,topk=1,listing=1, lengths 3/6, tau 0.15, \
              n=100000")
          hotpath_summary
          (String.concat ",\n"
             (List.map
                (fun (tag, phase, cache_on, rc_hits, words_per_req, r) ->
                  Printf.sprintf
                    "      {\"backend\": \"%s\", \"phase\": \"%s\", \
                     \"result_cache\": %b, \"result_cache_hits\": %d, \
                     \"minor_words_per_request\": %.1f, %s}"
                    tag phase cache_on rc_hits words_per_req
                    (Loadgen.to_json_fields r))
                hotpath_rows))
      in
      (* A run rewrites only the blocks it measured: the others, and the
         header describing the host of the results rows, are kept from
         the existing file, so `make bench-hotpath` and
         `make bench-multicore` leave the rest of it alone. *)
      let old =
        try Some (In_channel.with_open_bin "BENCH_SERVE.json" In_channel.input_all)
        with Sys_error _ -> None
      in
      let keep key fresh json default =
        if fresh then json
        else
          Option.value ~default
            (Option.bind old (fun text -> top_level_value text key))
      in
      let results_fresh = not (sweep_only || hotpath_only) in
      let header =
        match old with
        | Some text when not results_fresh -> (
            match top_level_key text "results" with
            | Some (i, _) -> String.sub text 0 (i + 1)
            | None -> header)
        | _ -> header
      in
      Out_channel.with_open_bin "BENCH_SERVE.json" (fun oc ->
          Printf.fprintf oc
            "%s  \"results\": %s,\n  \"multicore\": %s,\n  \"hotpath\": %s\n}\n"
            header
            (keep "results" results_fresh results_json "[]")
            (keep "multicore" (not hotpath_only) multicore_json "[]")
            (keep "hotpath" (not sweep_only) hotpath_json "{}")));
  Printf.printf "   wrote BENCH_SERVE.json\n"

(* ------------------------------------------------------------------ *)
(* loop_budget: calibrates Server.loop_range_budget (DESIGN.md §12.5).
   A result-cache miss runs on the accept loop when its pattern has at
   most Server.loop_pattern_max symbols and its suffix range holds at
   most Server.loop_range_budget entries, so the loop's worst admitted
   query is one whose range just fits. For each candidate budget this
   times, in-process, the queries whose range falls in (budget/2,
   budget] at τ = τ_min (where every range entry can be an answer),
   reply encoding included, and reports the mean and the worst. *)
let loop_budget () =
  let module SP = Pti_server.Protocol in
  let n = if !smoke then 5_000 else 20_000 in
  let theta = 0.3 in
  let g = G.build ~tau_min:tau_min_default (dataset ~n ~theta) in
  let docs = docs ~n ~theta in
  let l = L.build ~tau_min:tau_min_default docs in
  print_header "loop_budget: worst miss the accept loop may run"
    (Printf.sprintf
       "n=%d theta=%.1f tau=tau_min=%.1f; patterns of length 1-%d \
        (Server.loop_pattern_max) whose suffix range holds (budget/2, \
        budget] entries; per pattern the best of 5 rounds of 20 runs of \
        query + reply encoding; Server.loop_range_budget = %d"
       n theta tau_min_default Pti_server.Server.loop_pattern_max
       Pti_server.Server.loop_range_budget);
  let rng = Random.State.make [| 77 |] in
  let sample engine sources =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun u ->
            if m > U.length u then []
            else
              List.filter_map
                (fun p ->
                  Option.map
                    (fun (lo, hi) -> (p, hi - lo + 1))
                    (Engine.suffix_range engine ~pattern:p))
                (Q.patterns rng u ~m ~count:(400 / List.length sources + 1)))
          sources)
      (List.init Pti_server.Server.loop_pattern_max (fun i -> i + 1))
  in
  let cost run p =
    let round () =
      let _, t =
        time (fun () ->
            for _ = 1 to 20 do
              ignore
                (SP.encode_reply ~id:1
                   (SP.Hits (List.map (fun (k, v) -> (k, Logp.to_log v)) (run p))))
            done)
      in
      t /. 20.0
    in
    List.fold_left Float.min infinity (List.init 5 (fun _ -> round ()))
  in
  let indexes =
    [
      ("general", sample (G.engine g) [ dataset ~n ~theta ],
       fun p -> G.query g ~pattern:p ~tau:tau_min_default);
      ("listing", sample (L.engine l) (List.filteri (fun i _ -> i < 40) docs),
       fun p -> L.query l ~pattern:p ~tau:tau_min_default);
    ]
  in
  Printf.printf "%8s %13s %9s %10s %10s\n" "budget" "index" "patterns" "mean_us"
    "worst_us";
  (* the "-long" rows take the longest patterns the loop admits (the
     top 8 lengths) at any range size within the budget: their range
     search, not their extractions, is what grows *)
  let long_from = Pti_server.Server.loop_pattern_max - 7 in
  List.iter
    (fun budget ->
      List.iter
        (fun (name, sampled, run) ->
          List.iter
            (fun (row, keep) ->
              let costs =
                List.filteri (fun i _ -> i < 100) (List.filter keep sampled)
                |> List.map (fun (p, _) -> cost run p)
              in
              if costs <> [] then
                Printf.printf "%8d %13s %9d %10.2f %10.2f\n%!" budget row
                  (List.length costs)
                  (1e6 *. List.fold_left ( +. ) 0.0 costs
                  /. float_of_int (List.length costs))
                  (1e6 *. List.fold_left Float.max 0.0 costs))
            [
              (name, fun (_, size) -> size > budget / 2 && size <= budget);
              ( name ^ "-long",
                fun (p, size) ->
                  Array.length p >= long_from && size >= 1 && size <= budget );
            ])
        indexes)
    [ 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* lsm: the dynamic corpus (DESIGN.md §15) — scatter-gather query cost
   as a function of live segment count, and compaction throughput. The
   same document set is loaded into four corpora sealed into 1/2/4/8
   segments (auto-seal disabled, explicit seal at each cut), so the
   only thing that varies across rows is how many mmap engines a query
   fans over and how many sorted answer lists the bounded-heap merge
   folds. Every cut is verified to answer the whole workload
   equivalently — the same live document ids, with relevances agreeing
   to 1e-9. (Not bit-identical: a document's relevance comes out of
   prefix accumulations over its segment's concatenated text, so the
   float association order — and hence the last couple of bits —
   depends on which documents share the segment. Byte-determinism is
   per-layout, which is exactly what loadgen --verify checks against a
   live directory.) The 8-segment corpus is then force-compacted back
   to one segment (throughput row), after which its answers must again
   be equivalent. Rows carry peak_rss_bytes so
   the sweep doubles as the space-amortisation profile: segment files
   are mmap'd, so resident cost grows with touched pages, not with the
   sum of file sizes. Writes BENCH_LSM.json (`make bench-lsm`). *)

let lsm () =
  let module St = Pti_segment.Segment_store in
  let n = if !smoke then 2_000 else if !fast then 5_000 else 20_000 in
  let theta = 0.3 in
  let u = dataset ~n ~theta in
  let ds = docs ~n ~theta in
  let ndocs = List.length ds in
  let segment_counts =
    List.filter (fun c -> c <= ndocs) [ 1; 2; 4; 8 ]
  in
  let rng = Random.State.make [| 2718 |] in
  let queries =
    List.concat_map
      (fun m -> Q.patterns rng u ~m ~count:(queries_per_length ()))
      [ 4; 8 ]
  in
  print_header
    "lsm: dynamic corpus — scatter-gather latency vs live segment count"
    (Printf.sprintf
       "n=%d positions, %d documents, theta=%.1f tau=%.2f tau_min=%.2f, \
        %d queries; every cut must answer the workload equivalently \
        (same ids, relevances to 1e-9, τ-boundary docs may flip); \
        compaction throughput measured force-merging the 8-segment corpus"
       n ndocs theta tau_default tau_min_default (List.length queries));
  let tmp_root = Filename.temp_file "pti_bench_lsm" ".d" in
  Sys.remove tmp_root;
  Unix.mkdir tmp_root 0o755;
  let rm_rf dir =
    ignore
      (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) : int)
  in
  Fun.protect ~finally:(fun () -> rm_rf tmp_root) @@ fun () ->
  let config =
    { (St.default_config ~tau_min:tau_min_default) with memtable_max_docs = 0 }
  in
  (* Seal after every ceil(ndocs/cuts) inserts: exactly [cuts] non-empty
     segments, the last one holding the remainder. *)
  let build_corpus cuts =
    let dir = Filename.concat tmp_root (Printf.sprintf "seg%d" cuts) in
    let s = St.create ~config dir in
    let per_cut = (ndocs + cuts - 1) / cuts in
    let (), build_s =
      time (fun () ->
          List.iteri
            (fun i d ->
              ignore (St.insert s d : int);
              if (i + 1) mod per_cut = 0 then ignore (St.seal s : bool))
            ds;
          ignore (St.seal s : bool))
    in
    (s, build_s)
  in
  Printf.printf "%10s %10s %12s %12s %12s %11s\n" "segments" "build_s"
    "query_us" "seg_MB" "equivalent" "peak_rss_MB";
  let reference = ref [] in
  let answers s =
    List.map (fun p -> St.query s ~pattern:p ~tau:tau_default) queries
  in
  (* same live ids with relevances to 1e-9 — except that a document
     whose probability lands exactly on the τ cut may be included by
     one layout and excluded by another (its last float bits depend on
     the association order; at n=2e4 a doc at p = τ + 1.5e-13 flips),
     so an id present on one side only is tolerated iff its probability
     is within 1e-9 of τ. See the float-association note in the section
     comment for why this is not bitwise [=]. *)
  let equivalent a b =
    let by_id l = List.sort (fun (i, _) (j, _) -> compare i j) l in
    let close x y =
      Float.abs (x -. y)
      <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
    in
    let at_tau p = close (exp (Logp.to_log p)) tau_default in
    let rec walk a b =
      match (a, b) with
      | [], [] -> true
      | (_, p) :: rest, [] | [], (_, p) :: rest -> at_tau p && walk rest []
      | (i, p) :: ra, (j, q) :: rb ->
          if i = j then close (Logp.to_log p) (Logp.to_log q) && walk ra rb
          else if i < j then at_tau p && walk ra b
          else at_tau q && walk a rb
    in
    walk (by_id a) (by_id b)
  in
  let equivalent_answers got want =
    List.length got = List.length want && List.for_all2 equivalent got want
  in
  let rows =
    List.map
      (fun cuts ->
        let s, build_s = build_corpus cuts in
        let st = St.stats s in
        if st.St.st_segments <> cuts then
          failwith
            (Printf.sprintf "lsm: expected %d segments, sealed %d" cuts
               st.St.st_segments);
        let got = answers s in
        let equiv =
          match !reference with
          | [] ->
              reference := got;
              true
          | want -> equivalent_answers got want
        in
        if not equiv then
          failwith
            (Printf.sprintf
               "lsm: %d-segment corpus answers differ from the 1-segment cut"
               cuts);
        let q_us =
          per_query
            (fun p -> St.query s ~pattern:p ~tau:tau_default)
            queries
          *. 1e6
        in
        let rss = peak_rss_bytes () in
        Printf.printf "%10d %10.2f %12.1f %12.2f %12b %11.1f\n" cuts build_s
          q_us
          (float_of_int st.St.st_segment_bytes /. (1024. *. 1024.))
          equiv
          (float_of_int rss /. (1024. *. 1024.));
        (cuts, s, build_s, q_us, st, rss))
      segment_counts
  in
  (* compaction throughput: force-merge the most fragmented corpus back
     to a single segment and require the answers to survive the swap *)
  let compaction =
    let cuts, s, _, _, st, _ = List.hd (List.rev rows) in
    let merged, compact_s = time (fun () -> St.compact ~force:true s) in
    if not merged then failwith "lsm: forced compaction had nothing to do";
    let st' = St.stats s in
    let equivalent_after = equivalent_answers (answers s) !reference in
    if not equivalent_after then
      failwith "lsm: answers changed across forced compaction";
    let docs_per_s =
      float_of_int st.St.st_live_docs /. Float.max 1e-9 compact_s
    in
    Printf.printf
      "   compaction: %d -> %d segments, %d docs in %.2fs (%.0f docs/s), \
       answers equivalent: %b\n"
      cuts st'.St.st_segments st.St.st_live_docs compact_s docs_per_s
      equivalent_after;
    ( cuts, st'.St.st_segments, st.St.st_live_docs, compact_s, docs_per_s,
      equivalent_after, peak_rss_bytes () )
  in
  (* WAL durability vs throughput: pure memtable insert rate under each
     fsync policy, one fresh corpus per row so every insert pays exactly
     its policy's logging cost and nothing else (no seal, no
     compaction). [always] fsyncs the log inside every acknowledged
     insert; [interval:5] fsyncs at most every 5 ms; [never] leaves
     flushing to the kernel. Process-kill durability is identical under
     all three (the append itself is in the page cache before the ack);
     the policies trade OS-crash/power-loss exposure for throughput. *)
  let wal_rows =
    let n_ins = Stdlib.min ndocs 5_000 in
    let ins_docs = List.filteri (fun i _ -> i < n_ins) ds in
    Printf.printf "%12s %10s %14s %10s\n" "wal_sync" "insert_s"
      "inserts_per_s" "wal_MB";
    List.mapi
      (fun i policy ->
        let dir = Filename.concat tmp_root (Printf.sprintf "wal%d" i) in
        let s = St.create ~config ~wal_sync:policy dir in
        let (), secs =
          time (fun () ->
              List.iter (fun d -> ignore (St.insert s d : int)) ins_docs)
        in
        St.sync_wal s;
        let st = St.stats s in
        if st.St.st_wal_records <> n_ins then
          failwith
            (Printf.sprintf "lsm: expected %d WAL records, logged %d" n_ins
               st.St.st_wal_records);
        let rate = float_of_int n_ins /. Float.max 1e-9 secs in
        Printf.printf "%12s %10.3f %14.0f %10.2f\n"
          (St.wal_sync_to_string policy)
          secs rate
          (float_of_int st.St.st_wal_bytes /. (1024. *. 1024.));
        (St.wal_sync_to_string policy, n_ins, secs, rate, st.St.st_wal_bytes))
      [ St.Wal_always; St.Wal_interval 5.0; St.Wal_never ]
  in
  let oc = open_out "BENCH_LSM.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"experiment\": \"lsm\",\n  \"n\": %d,\n  \"n_docs\": %d,\n\
        \  \"theta\": %g,\n  \"tau\": %g,\n  \"tau_min\": %g,\n\
        \  \"n_queries\": %d,\n\
        \  %s\n\
        \  \"note\": \"%s\",\n  \"results\": [\n"
        n ndocs theta tau_default tau_min_default (List.length queries)
        (host_json_fields ())
        (json_escape
           "one document set, four corpora sealed into 1/2/4/8 segments \
            (memtable auto-seal disabled, explicit seal at each cut). \
            query_us_per_query = mean over the mixed 4/8-symbol workload, \
            best of three passes, scatter-gathered across all live mmap \
            segments with the bounded-heap merge. every cut's answers are \
            verified equivalent to the 1-segment cut before being measured \
            and again after the forced compaction: same live document ids, \
            relevances agreeing to 1e-9 (a relevance comes out of prefix \
            accumulations over its segment's concatenated text, so the \
            float association order depends on the layout and the last \
            bits can differ; a document whose probability lands exactly on \
            the τ cut may therefore be included by one layout and not \
            another, tolerated iff its probability is within 1e-9 of τ; \
            byte-determinism is per-layout, which is what \
            loadgen --verify proves against a live directory). \
            peak_rss_bytes is the process VmHWM when the row completed \
            (monotone within the run). compaction = force-merge of the \
            8-segment corpus to one segment; docs_per_s = live docs / \
            merge seconds.");
      List.iteri
        (fun i (cuts, _, build_s, q_us, st, rss) ->
          Printf.fprintf oc
            "    {\"segments\": %d, \"build_s\": %.4f, \
             \"query_us_per_query\": %.2f, \"segment_file_bytes\": %d, \
             \"live_docs\": %d, \"equivalent_answers\": true, \
             \"peak_rss_bytes\": %d}%s\n"
            cuts build_s q_us st.St.st_segment_bytes st.St.st_live_docs rss
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n  \"wal\": [\n";
      List.iteri
        (fun i (policy, inserts, secs, rate, wal_bytes) ->
          Printf.fprintf oc
            "    {\"wal_sync\": \"%s\", \"inserts\": %d, \"seconds\": \
             %.4f, \"inserts_per_s\": %.1f, \"wal_bytes\": %d}%s\n"
            policy inserts secs rate wal_bytes
            (if i = List.length wal_rows - 1 then "" else ","))
        wal_rows;
      let ( in_segs, out_segs, live, compact_s, docs_per_s, equivalent_after,
            rss ) =
        compaction
      in
      Printf.fprintf oc
        "  ],\n  \"compaction\": {\n\
        \    \"input_segments\": %d, \"output_segments\": %d, \"docs\": %d,\n\
        \    \"seconds\": %.4f, \"docs_per_s\": %.1f,\n\
        \    \"equivalent_answers_after\": %b, \"peak_rss_bytes\": %d\n\
        \  }\n}\n"
        in_segs out_segs live compact_s docs_per_s equivalent_after rss);
  Printf.printf "   wrote BENCH_LSM.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment family. *)

let micro () =
  let open Bechamel in
  let u = dataset ~n:5_000 ~theta:0.3 in
  let ds = docs ~n:5_000 ~theta:0.3 in
  let g = G.build ~tau_min:0.1 u in
  let l = L.build ~tau_min:0.1 ds in
  let a = A.build ~epsilon:0.05 ~tau_min:0.1 u in
  let si = Si.build ~tau_min:0.1 u in
  let rng = Random.State.make [| 9 |] in
  let short_pat = Q.pattern rng u ~m:6 in
  let long_pat = Q.pattern rng u ~m:(Engine.max_short (G.engine g) + 4) in
  let small = dataset ~n:500 ~theta:0.3 in
  let tests =
    Test.make_grouped ~name:"pti" ~fmt:"%s %s"
      [
        Test.make ~name:"fig7_short_query (exact, m=6)"
          (Staged.stage (fun () ->
               ignore (G.query g ~pattern:short_pat ~tau:0.2)));
        Test.make ~name:"fig7d_long_query (blocking)"
          (Staged.stage (fun () ->
               ignore (G.query g ~pattern:long_pat ~tau:0.2)));
        Test.make ~name:"fig8_listing_query (Rel_max)"
          (Staged.stage (fun () ->
               ignore (L.query l ~pattern:short_pat ~tau:0.2)));
        Test.make ~name:"approx_query (eps=0.05)"
          (Staged.stage (fun () ->
               ignore (A.query a ~pattern:short_pat ~tau:0.2)));
        Test.make ~name:"baseline_simple_scan"
          (Staged.stage (fun () ->
               ignore (Si.query si ~pattern:short_pat ~tau:0.2)));
        Test.make ~name:"baseline_online_dp"
          (Staged.stage (fun () ->
               ignore
                 (Pti_ustring.Oracle.occurrences u ~pattern:short_pat
                    ~tau:(Logp.of_prob 0.2))));
        Test.make ~name:"fig9_construction (n=500)"
          (Staged.stage (fun () -> ignore (G.build ~tau_min:0.1 small)));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  print_header "micro: bechamel micro-benchmarks" "monotonic clock, OLS ns/run";
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.0f ns" t
        | _ -> "n/a"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-45s %s\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig7d", fig7d);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("approx", approx);
    ("abl_rmq", abl_rmq);
    ("abl_ladder", abl_ladder);
    ("abl_baseline", abl_baseline);
    ("abl_approx", abl_approx_variants);
    ("abl_range", abl_range);
    ("abl_persist", abl_persist);
    ("io", io);
    ("space", space);
    (* Alias: the packed/succinct space-latency frontier is
       the space experiment; named for `make bench-frontier`. Excluded
       from the default run-everything selection like multicore. *)
    ("frontier", space);
    ("par", par);
    ("serve", fun () -> serve_bench ());
    (* Dynamic-corpus profile (DESIGN.md §15): scatter-gather latency
       vs segment count plus compaction throughput; writes
       BENCH_LSM.json. Named for `make bench-lsm`. *)
    ("lsm", lsm);
    (* Only the workers × concurrency scaling sweep (the "multicore"
       rows of BENCH_SERVE.json); "serve" already includes it, so the
       alias is excluded from the default run-everything selection. *)
    ("multicore", fun () -> serve_bench ~sweep_only:true ());
    (* Only the zero-allocation/result-cache profile (the "hotpath"
       rows of BENCH_SERVE.json, DESIGN.md §14); also part of "serve"
       and likewise excluded from the default selection. Named for
       `make bench-hotpath`. *)
    ("hotpath", fun () -> serve_bench ~hotpath_only:true ());
    (* Calibration of the accept loop's work budget for cache misses
       (DESIGN.md §12.5); prints only. *)
    ("loop_budget", loop_budget);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        match a with
        | "fast" ->
            fast := true;
            false
        | "smoke" ->
            fast := true;
            smoke := true;
            false
        | _ -> true)
      args
  in
  let selected =
    match args with
    | [] ->
        List.filter
          (fun n -> n <> "multicore" && n <> "frontier" && n <> "hotpath")
          (List.map fst experiments)
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n experiments) then begin
              Printf.eprintf "unknown experiment %S; available: %s\n" n
                (String.concat " " (List.map fst experiments));
              exit 1
            end)
          names;
        names
  in
  Printf.printf
    "pti benchmark harness%s — experiments: %s\n"
    (if !fast then " (fast mode)" else "")
    (String.concat " " selected);
  let total, elapsed =
    time (fun () ->
        List.iter (fun name -> (List.assoc name experiments) ()) selected;
        List.length selected)
  in
  Printf.printf "\n%d experiment(s) in %.1fs\n" total elapsed
