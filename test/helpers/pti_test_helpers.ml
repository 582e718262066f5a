(** Shared generators and helpers for the test suites. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp

let rng_of_seed seed = Random.State.make [| seed |]

(* Run [f] on a fresh temporary directory, removed with its contents
   afterwards. *)
let with_tmpdir f =
  let dir = Filename.temp_file "pti_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

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

(* A section payload for {!rewrite_container}: a replacement of any
   kind, or [Drop] to leave the section out. *)
type payload =
  | Ints of int array
  | Floats of float array
  | Bytes of string
  | Drop

(* Rewrite the container at [src] to [dst] section by section, in file
   order, with [replace name] substituting a section's payload — how
   tests hand-write a container of a layout the writer no longer
   produces, or a damaged one, with valid checksums. [replace] is also
   asked about [extra] names absent from [src], which are appended.
   [src] may equal [dst]. *)
let rewrite_container ?(extra = []) ~src ~dst replace =
  let module S = Pti_storage in
  let r = S.Reader.open_file src in
  let w = S.Writer.create dst in
  let add name = function
    | Ints a -> S.Writer.add_ints w name a
    | Floats a -> S.Writer.add_floats w name a
    | Bytes b -> S.Writer.add_bytes w name b
    | Drop -> ()
  in
  List.iter
    (fun i ->
      let name = i.S.Reader.si_name in
      match (replace name, i.S.Reader.si_kind) with
      | Some p, _ -> add name p
      | None, "ints" -> S.Writer.add_ints_ba w name (S.Reader.ints r name)
      | None, "floats" -> S.Writer.add_floats_ba w name (S.Reader.floats r name)
      | None, _ -> S.Writer.add_bytes w name (S.Reader.blob r name))
    (S.Reader.table r);
  List.iter
    (fun name -> Option.iter (add name) (replace name))
    (List.filter (fun n -> not (S.Reader.has r n)) extra);
  S.Writer.close w

(* [replace] for {!rewrite_container}: the first level RMQ's kind tag
   becomes 2, the Fischer–Heun structure packed containers once held. *)
let fischer_heun_kind src name =
  if name = "rmq.level.1.kind" then
    let r = Pti_storage.Reader.open_file src in
    Some (Ints [| 2; Pti_storage.Ints.get (Pti_storage.Reader.ints r name) 1 |])
  else None

(* Damaged variants of a valid payload for decoder fuzzing: bit flips,
   truncation, random bytes, or the payload itself. *)
let mangle rng s =
  let n = String.length s in
  match Random.State.int rng 4 with
  | 0 when n > 0 ->
      let b = Bytes.of_string s in
      for _ = 1 to 1 + Random.State.int rng 3 do
        let i = Random.State.int rng n in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
      done;
      Bytes.to_string b
  | 1 when n > 0 -> String.sub s 0 (Random.State.int rng n)
  | 2 -> String.init (Random.State.int rng 40) (fun _ -> Char.chr (Random.State.int rng 256))
  | _ -> s
