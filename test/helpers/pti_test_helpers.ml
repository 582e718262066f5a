(** Shared generators and helpers for the test suites. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp

let rng_of_seed seed = Random.State.make [| seed |]

(* A random uncertain string: [n] positions, alphabet of [k] letters
   starting at 'A', at most [maxc] choices per position, probabilities
   normalised to sum to 1. *)
let random_ustring rng n k maxc =
  Array.init n (fun _ ->
      let c = 1 + Random.State.int rng maxc in
      let syms = ref [] in
      while List.length !syms < c do
        let s = Char.code 'A' + Random.State.int rng k in
        if not (List.mem s !syms) then syms := s :: !syms
      done;
      let raw =
        List.map (fun s -> (s, 0.05 +. Random.State.float rng 1.0)) !syms
      in
      let total = List.fold_left (fun a (_, p) -> a +. p) 0.0 raw in
      Array.of_list
        (List.map (fun (s, p) -> { U.sym = s; prob = p /. total }) raw))
  |> U.make

(* A pattern drawn from one possible world of positions [i, i+m). *)
let pattern_at rng u ~start ~m =
  Array.init m (fun o ->
      let cs = U.choices u (start + o) in
      cs.(Random.State.int rng (Array.length cs)).sym)

let random_pattern rng u maxm =
  let n = U.length u in
  let m = 1 + Random.State.int rng (Stdlib.min n maxm) in
  let start = Random.State.int rng (n - m + 1) in
  pattern_at rng u ~start ~m

(* A pattern that likely does NOT occur: random letters. *)
let random_letters rng k m =
  Array.init m (fun _ -> Char.code 'A' + Random.State.int rng k)

let sorted_fst l = List.sort compare (List.map fst l)

let check_sorted_desc name l =
  let rec go = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        if Logp.(a < b) then
          Alcotest.failf "%s: results not in non-increasing order" name;
        go rest
    | _ -> ()
  in
  go l

(* QCheck generator wrapping [random_ustring]. *)
let gen_ustring ?(max_n = 30) ?(k = 4) ?(maxc = 3) () =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* n = int_range 1 max_n in
  return (random_ustring (rng_of_seed seed) n k maxc)

let logp_testable =
  Alcotest.testable
    (fun ppf l -> Format.fprintf ppf "%s" (Logp.to_string l))
    (fun a b -> Logp.approx_equal ~eps:1e-9 a b)

(* Rewrite the container at [src] to [dst] section by section, in file
   order, with [replace name] substituting an ints payload — how tests
   hand-write a container of a layout the writer no longer produces,
   with valid checksums. [src] may equal [dst]. *)
let rewrite_container ~src ~dst replace =
  let module S = Pti_storage in
  let r = S.Reader.open_file src in
  let w = S.Writer.create dst in
  List.iter
    (fun i ->
      let name = i.S.Reader.si_name in
      match (replace name, i.S.Reader.si_kind) with
      | Some ints, _ -> S.Writer.add_ints w name ints
      | None, "ints" -> S.Writer.add_ints_ba w name (S.Reader.ints r name)
      | None, "floats" -> S.Writer.add_floats_ba w name (S.Reader.floats r name)
      | None, _ -> S.Writer.add_bytes w name (S.Reader.blob r name))
    (S.Reader.table r);
  S.Writer.close w

(* [replace] for {!rewrite_container}: the first level RMQ's kind tag
   becomes 2, the Fischer–Heun structure packed containers once held. *)
let fischer_heun_kind src name =
  if name = "rmq.level.1.kind" then
    let r = Pti_storage.Reader.open_file src in
    Some [| 2; Pti_storage.Ints.get (Pti_storage.Reader.ints r name) 1 |]
  else None
