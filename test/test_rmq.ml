(* Tests for Pti_rmq: the three RMQ implementations must agree with a
   reference scan, return the leftmost maximum, and behave identically
   through the oracle-based constructor; the signature block RMQ the
   engine persists must do so at every block size, with its stored
   block maxima, and after a reopen from a mapped container. *)

module Block = Pti_rmq.Rmq_block
module Naive = Pti_rmq.Rmq_naive
module Sparse = Pti_rmq.Rmq_sparse
module S = Pti_storage

(* What the per-implementation cases need of an RMQ. *)
module type RMQ = sig
  type t

  val build : float array -> t
  val build_oracle : value:(int -> float) -> len:int -> t
  val length : t -> int
  val query : t -> l:int -> r:int -> int
end

let block_of size : (module RMQ) =
  (module struct
    include Block

    let build a = build ~block:size a
    let build_oracle = build_oracle ~block:size
  end)

(* The implementations under test, by the names their cases carry. *)
let impls : (string * (module RMQ)) list =
  [
    ("naive", (module Naive));
    ("sparse", (module Sparse));
    ("block:31", block_of Block.max_block);
    ("block:4", block_of 4);
  ]

let reference a l r =
  let best = ref l in
  for i = l + 1 to r do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let all_ranges_agree name (module R : RMQ) a =
  let t = R.build a in
  let n = Array.length a in
  Alcotest.(check int) (name ^ " length") n (R.length t);
  for l = 0 to n - 1 do
    for r = l to n - 1 do
      let got = R.query t ~l ~r in
      let want = reference a l r in
      if got <> want then
        Alcotest.failf "%s: range [%d,%d] got %d want %d" name l r got want
    done
  done

let test_kind name impl () =
  all_ranges_agree name impl [| 1.0 |];
  all_ranges_agree name impl [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |];
  all_ranges_agree name impl (Array.init 40 (fun i -> float_of_int (i mod 7)));
  all_ranges_agree name impl (Array.make 33 1.0);
  (* ties everywhere *)
  all_ranges_agree name impl [| 2.0; 2.0; 2.0; 1.0; 2.0; 2.0 |];
  (* strictly decreasing / increasing *)
  all_ranges_agree name impl (Array.init 50 (fun i -> float_of_int (-i)));
  all_ranges_agree name impl (Array.init 50 float_of_int);
  (* with -infinity (dead slots, as used by the index) *)
  all_ranges_agree name impl
    [| neg_infinity; 0.5; neg_infinity; neg_infinity; 0.7; neg_infinity |]

let test_random name (module R : RMQ) () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 60 do
    let n = 1 + Random.State.int rng 200 in
    (* small value universe to exercise ties *)
    let a = Array.init n (fun _ -> float_of_int (Random.State.int rng 8)) in
    let t = R.build a in
    for _ = 1 to 100 do
      let l = Random.State.int rng n in
      let r = l + Random.State.int rng (n - l) in
      let got = R.query t ~l ~r in
      let want = reference a l r in
      if got <> want then
        Alcotest.failf "%s random: range [%d,%d] got %d want %d" name l r got
          want
    done
  done

let test_oracle_constructor (module R : RMQ) () =
  let a = Array.init 777 (fun i -> sin (float_of_int i)) in
  let t = R.build_oracle ~value:(fun i -> a.(i)) ~len:777 in
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 300 do
    let l = Random.State.int rng 777 in
    let r = l + Random.State.int rng (777 - l) in
    Alcotest.(check int) "oracle query" (reference a l r) (R.query t ~l ~r)
  done

let test_bounds (module R : RMQ) () =
  let t = R.build [| 1.0; 2.0 |] in
  List.iter
    (fun (l, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "invalid [%d,%d]" l r)
        true
        (try
           ignore (R.query t ~l ~r);
           false
         with Invalid_argument _ -> true))
    [ (-1, 0); (0, 2); (1, 0) ]

let test_size_words () =
  let a = Array.init 4096 (fun i -> float_of_int (i mod 13)) in
  Alcotest.(check bool) "naive tiny" true (Naive.size_words (Naive.build a) < 8);
  Alcotest.(check bool) "block smaller than sparse" true
    (Block.size_words (Block.build a) < Sparse.size_words (Sparse.build a))

(* Large instance exercising the block structure's recursive top level
   (cutoff 2048 blocks): 300k / 31 ≈ 9.7k blocks → one recursion. *)
let test_block_large () =
  let n = 300_000 in
  let rng = Random.State.make [| 6 |] in
  let a = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let t = Block.build a in
  for _ = 1 to 500 do
    let l = Random.State.int rng n in
    let r = l + Random.State.int rng (n - l) in
    Alcotest.(check int) "block large" (reference a l r) (Block.query t ~l ~r)
  done

let prop_agree name (module R : RMQ) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s agrees with scan" name)
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 120 in
      let* a = array_repeat n (int_range 0 10) in
      let* l = int_range 0 (n - 1) in
      let* r = int_range l (n - 1) in
      return (Array.map float_of_int a, l, r))
    (fun (a, l, r) ->
      let t = R.build a in
      R.query t ~l ~r = reference a l r)

(* The signature block RMQ against the naive scan, over arrays of heavy
   ties and runs of -infinity (what dead slots look like), at every
   block size, with partial last blocks and lengths straddling the
   sparse/recursive top cutoff. Every block's argmax from its mask word
   must equal the signature's decode of the full block, every in-block
   range must decode right from the signature alone (up to 40 blocks
   a case, every range of each), and a reopen from a mapped container
   must answer the same. *)
let tied_array rng len =
  let a = Array.make len neg_infinity in
  let i = ref 0 in
  while !i < len do
    let run = 1 + Random.State.int rng 8 in
    let v =
      if Random.State.int rng 3 = 0 then neg_infinity
      else float_of_int (Random.State.int rng 4)
    in
    for j = !i to Stdlib.min len (!i + run) - 1 do
      a.(j) <- v
    done;
    i := !i + run
  done;
  a

let with_tmp f =
  let path = Filename.temp_file "pti_rmq" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let block_matches_naive (block, near_cutoff, seed) =
  let rng = Random.State.make [| seed |] in
  let len =
    if near_cutoff then (Block.sparse_cutoff * block) + Random.State.int rng 3 - 1
    else 1 + Random.State.int rng (4 * block)
  in
  let a = tied_array rng len in
  let value i = a.(i) in
  let t = Block.build_oracle ~block ~value ~len in
  let naive = Naive.build_oracle ~value ~len in
  let ranges =
    List.init 200 (fun _ ->
        let l = Random.State.int rng len in
        let r =
          if Random.State.bool rng then l + Random.State.int rng (len - l)
          else Stdlib.min (len - 1) (l + Random.State.int rng (2 * block))
        in
        (l, r))
  in
  let answers t = List.map (fun (l, r) -> Block.query t ~l ~r) ranges in
  let want = List.map (fun (l, r) -> Naive.query naive ~l ~r) ranges in
  let nblocks = (len + block - 1) / block in
  let blen b = Stdlib.min len ((b + 1) * block) - (b * block) in
  let blocks_ok =
    List.for_all
      (fun b ->
        let base = b * block in
        let decoded = base + Block.signature_argmax t b ~l:0 ~r:(blen b - 1) in
        decoded = Block.block_argmax t b
        && decoded = Naive.query naive ~l:base ~r:(base + blen b - 1))
      (List.init nblocks Fun.id)
  in
  let in_block_ok =
    List.for_all
      (fun b ->
        let base = b * block in
        List.for_all
          (fun l ->
            List.for_all
              (fun r ->
                let want = Naive.query naive ~l:(base + l) ~r:(base + r) in
                base + Block.signature_argmax t b ~l ~r = want
                && Block.query t ~l:(base + l) ~r:(base + r) = want)
              (List.init (blen b - l) (fun k -> l + k)))
          (List.init (blen b) Fun.id))
      (List.init (Stdlib.min 40 nblocks) (fun _ -> Random.State.int rng nblocks))
  in
  let reopened =
    with_tmp (fun path ->
        let w = S.Writer.create path in
        Block.save_parts w ~prefix:"rmq" t;
        S.Writer.close w;
        answers (Block.open_parts (S.Reader.open_file path) ~prefix:"rmq" ~value))
  in
  let rebound = Block.with_oracle t ~value:(fun i -> a.(i)) in
  blocks_ok && in_block_ok && answers t = want && reopened = want
  && answers rebound = want

let prop_block_sizes =
  QCheck2.Test.make ~name:"block RMQ = naive at every block size" ~count:200
    QCheck2.Gen.(
      triple (int_range 2 Block.max_block) (map (fun k -> k = 0) (int_bound 9))
        (int_bound 1_000_000))
    block_matches_naive

let cases n =
  let impl = List.assoc n impls in
  [
    Alcotest.test_case (n ^ " exhaustive") `Quick (test_kind n impl);
    Alcotest.test_case (n ^ " random") `Quick (test_random n impl);
    Alcotest.test_case (n ^ " oracle ctor") `Quick (test_oracle_constructor impl);
    Alcotest.test_case (n ^ " bounds") `Quick (test_bounds impl);
    QCheck_alcotest.to_alcotest (prop_agree n impl);
  ]

let () =
  Alcotest.run "pti_rmq"
    [
      ("naive", cases "naive");
      ("sparse", cases "sparse");
      ("block", cases "block:31");
      ("block-small", cases "block:4");
      ("block-sizes", [ QCheck_alcotest.to_alcotest prop_block_sizes ]);
      ( "misc",
        [
          Alcotest.test_case "size accounting" `Quick test_size_words;
          Alcotest.test_case "block large (recursive top)" `Slow
            test_block_large;
        ] );
    ]
