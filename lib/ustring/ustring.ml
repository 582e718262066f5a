module Logp = Pti_prob.Logp

type choice = { sym : Sym.t; prob : float }

type t = {
  positions : choice array array;
  correlations : Correlation.t;
}

let sum_eps = 1e-6

let validate_position i pos =
  if Array.length pos = 0 then
    invalid_arg (Printf.sprintf "Ustring.make: empty position %d" i);
  let seen = Hashtbl.create 8 in
  let sum = ref 0.0 in
  Array.iter
    (fun { sym; prob } ->
      if sym = Sym.separator then
        invalid_arg
          (Printf.sprintf "Ustring.make: reserved separator symbol at %d" i);
      if sym < 1 then
        invalid_arg (Printf.sprintf "Ustring.make: invalid symbol at %d" i);
      if not (prob > 0.0 && prob <= 1.0) then
        invalid_arg
          (Printf.sprintf "Ustring.make: probability %g at %d not in (0,1]"
             prob i);
      if Hashtbl.mem seen sym then
        invalid_arg (Printf.sprintf "Ustring.make: duplicate symbol at %d" i);
      Hashtbl.replace seen sym ();
      sum := !sum +. prob)
    pos;
  if !sum > 1.0 +. sum_eps then
    invalid_arg
      (Printf.sprintf "Ustring.make: probabilities at %d sum to %g > 1" i !sum)

let find_choice positions pos sym =
  if pos < 0 || pos >= Array.length positions then None
  else
    Array.find_opt (fun c -> c.sym = sym) positions.(pos)

let validate_correlations positions (corr : Correlation.t) =
  List.iter
    (fun (r : Correlation.rule) ->
      let n = Array.length positions in
      if r.dep_pos < 0 || r.dep_pos >= n || r.src_pos < 0 || r.src_pos >= n then
        invalid_arg "Ustring.make: correlation rule position out of range";
      let dep =
        match find_choice positions r.dep_pos r.dep_sym with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Ustring.make: correlation dependent symbol absent at %d"
                 r.dep_pos)
      in
      let src =
        match find_choice positions r.src_pos r.src_sym with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Ustring.make: correlation source symbol absent at %d"
                 r.src_pos)
      in
      let mix = Correlation.marginal r ~src_prob:src.prob in
      if Float.abs (mix -. dep.prob) > 1e-6 then
        invalid_arg
          (Printf.sprintf
             "Ustring.make: rule at %d inconsistent with marginal (%g vs %g)"
             r.dep_pos mix dep.prob))
    (Correlation.rules corr)

(* [separators]: accept the deterministic separator positions [concat]
   inserts between documents, which [make] refuses. *)
let validated ~separators positions correlations =
  Array.iteri
    (fun i p ->
      let sep = Array.length p = 1 && p.(0).sym = Sym.separator && p.(0).prob = 1.0 in
      if not (separators && sep) then validate_position i p)
    positions;
  let corr = Correlation.of_rules correlations in
  validate_correlations positions corr;
  { positions; correlations = corr }

let make ?(correlations = []) positions =
  validated ~separators:false (Array.map Array.copy positions) correlations

let length t = Array.length t.positions
let choices t i = t.positions.(i)
let correlations t = t.correlations

let prob t ~pos ~sym =
  match find_choice t.positions pos sym with
  | Some c -> c.prob
  | None -> 0.0

let logp t ~pos ~sym = Logp.of_prob (prob t ~pos ~sym)

let n_choices t =
  Array.fold_left (fun acc p -> acc + Array.length p) 0 t.positions

let max_choices t =
  Array.fold_left (fun acc p -> Stdlib.max acc (Array.length p)) 0 t.positions

let is_special t =
  Array.for_all (fun p -> Array.length p = 1) t.positions

let is_deterministic t =
  Array.for_all (fun p -> Array.length p = 1 && p.(0).prob >= 1.0) t.positions

let validate ?(eps = 1e-6) t =
  let bad = ref None in
  Array.iteri
    (fun i p ->
      if !bad = None then begin
        let sum = Array.fold_left (fun s c -> s +. c.prob) 0.0 p in
        if Float.abs (sum -. 1.0) > eps then
          bad := Some (Printf.sprintf "position %d sums to %g" i sum)
      end)
    t.positions;
  match !bad with None -> Ok () | Some msg -> Error msg

let of_det syms =
  make (Array.map (fun sym -> [| { sym; prob = 1.0 } |]) syms)

let of_string s = of_det (Sym.of_string s)

let parse_choice i token =
  match String.index_opt token ':' with
  | None ->
      if String.length token <> 1 then
        invalid_arg
          (Printf.sprintf "Ustring.parse: bad choice %S at position %d" token i);
      { sym = Sym.of_char token.[0]; prob = 1.0 }
  | Some j ->
      if j <> 1 then
        invalid_arg
          (Printf.sprintf "Ustring.parse: bad choice %S at position %d" token i);
      let prob =
        match float_of_string_opt (String.sub token 2 (String.length token - 2))
        with
        | Some p -> p
        | None ->
            invalid_arg
              (Printf.sprintf "Ustring.parse: bad probability in %S" token)
      in
      { sym = Sym.of_char token.[0]; prob }

let parse s =
  let fields =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")
  in
  if fields = [] then invalid_arg "Ustring.parse: empty input";
  let position i field =
    String.split_on_char ',' field
    |> List.filter (fun f -> f <> "")
    |> List.map (parse_choice i)
    |> Array.of_list
  in
  make (Array.of_list (List.mapi position fields))

let to_text t =
  let buf = Buffer.create (16 * length t) in
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ' ';
      Array.iteri
        (fun j { sym; prob } ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf (Sym.to_char sym);
          (* 12 significant digits: lossless enough for the parse
             roundtrip (the per-position sum check has 1e-6 slack) while
             keeping common values like 0.3 short *)
          if prob < 1.0 then Buffer.add_string buf (Printf.sprintf ":%.12g" prob))
        p)
    t.positions;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_text t)

let sample rng t =
  let n = length t in
  let world = Array.make n 0 in
  let draw_pos ?(override : (Sym.t * float * float) option) i =
    let pos = t.positions.(i) in
    (* With an override (dep_sym, p_cond) from a correlation rule, the
       dependent symbol's probability is replaced by the conditional and
       the rest of the mass is rescaled proportionally. *)
    let weight c =
      match override with
      | Some (sym, cond, marg) ->
          if c.sym = sym then cond
          else begin
            let rest = 1.0 -. marg in
            if rest <= 0.0 then 0.0 else c.prob *. (1.0 -. cond) /. rest
          end
      | None -> c.prob
    in
    let total = Array.fold_left (fun s c -> s +. weight c) 0.0 pos in
    let r = Random.State.float rng (Stdlib.max total 1e-30) in
    let acc = ref 0.0 in
    let picked = ref pos.(Array.length pos - 1).sym in
    (try
       Array.iter
         (fun c ->
           acc := !acc +. weight c;
           if r <= !acc then begin
             picked := c.sym;
             raise Exit
           end)
         pos
     with Exit -> ());
    world.(i) <- !picked
  in
  (* Draw positions that are correlation sources first, then dependents
     conditioned on the drawn source, then the rest. *)
  let rules = Correlation.rules t.correlations in
  let handled = Hashtbl.create 8 in
  List.iter
    (fun (r : Correlation.rule) ->
      if not (Hashtbl.mem handled r.src_pos) then begin
        draw_pos r.src_pos;
        Hashtbl.replace handled r.src_pos ()
      end)
    rules;
  List.iter
    (fun (r : Correlation.rule) ->
      if not (Hashtbl.mem handled r.dep_pos) then begin
        let cond =
          if world.(r.src_pos) = r.src_sym then r.p_present else r.p_absent
        in
        let marg = prob t ~pos:r.dep_pos ~sym:r.dep_sym in
        draw_pos ~override:(r.dep_sym, cond, marg) r.dep_pos;
        Hashtbl.replace handled r.dep_pos ()
      end)
    rules;
  for i = 0 to n - 1 do
    if not (Hashtbl.mem handled i) then draw_pos i
  done;
  world

let concat ~sep ds =
  let starts = Array.make (List.length ds) 0 in
  let parts = ref [] in
  let rules = ref [] in
  let offset = ref 0 in
  List.iteri
    (fun k d ->
      if k > 0 then begin
        match sep with
        | Some s ->
            parts := [| { sym = s; prob = 1.0 } |] :: !parts;
            incr offset
        | None -> ()
      end;
      starts.(k) <- !offset;
      Array.iter (fun p -> parts := p :: !parts) d.positions;
      List.iter
        (fun (r : Correlation.rule) ->
          rules :=
            {
              r with
              Correlation.dep_pos = r.Correlation.dep_pos + !offset;
              src_pos = r.Correlation.src_pos + !offset;
            }
            :: !rules)
        (Correlation.rules d.correlations);
      offset := !offset + length d)
    ds;
  (validated ~separators:true (Array.of_list (List.rev !parts)) !rules, starts)

(* {2 Binary codec}

   Unsigned LEB128 varints for counts, positions and symbols; IEEE
   doubles in 8 little-endian bytes for probabilities, so they
   round-trip exactly. Per position a header [(k lsl 1) lor det], then
   its k choices as (sym, prob) — or, when det = 1 (one choice of
   probability 1), the symbol alone. Then the rule count and per rule
   dep_pos, dep_sym, src_pos, src_sym, p_present, p_absent. *)

let encode t =
  let b = Buffer.create (4 + (3 * length t)) in
  let rec int v =
    if v < 0x80 then Buffer.add_uint8 b v
    else begin
      Buffer.add_uint8 b (v land 0x7f lor 0x80);
      int (v lsr 7)
    end
  in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  int (length t);
  Array.iter
    (function
      | [| { sym; prob = 1.0 } |] -> int 3; int sym
      | p ->
          int (Array.length p lsl 1);
          Array.iter (fun c -> int c.sym; float c.prob) p)
    t.positions;
  let rules = Correlation.rules t.correlations in
  int (List.length rules);
  List.iter
    (fun (r : Correlation.rule) ->
      List.iter int [ r.dep_pos; r.dep_sym; r.src_pos; r.src_sym ];
      float r.p_present;
      float r.p_absent)
    rules;
  Buffer.contents b

let decode s =
  let bad what = invalid_arg ("Ustring.decode: " ^ what) in
  let len = String.length s and cur = ref 0 in
  let rec varint acc shift =
    if !cur >= len || shift > 56 then bad "truncated or overlong varint";
    let c = Char.code s.[!cur] in
    incr cur;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c >= 0x80 then varint acc (shift + 7)
    else if acc < 0 then bad "varint out of range"
    else acc
  in
  let int () = varint 0 0 in
  let float () =
    if !cur + 8 > len then bad "truncated";
    cur := !cur + 8;
    Int64.float_of_bits (String.get_int64_le s (!cur - 8))
  in
  (* each element takes at least [min] bytes: bounds [k] before
     anything is allocated *)
  let count k min = if k > (len - !cur) / min then bad "count exceeds the payload" else k in
  let choice () =
    let sym = int () in
    { sym; prob = float () }
  in
  let position () =
    match int () with
    | 3 -> [| { sym = int (); prob = 1.0 } |]
    | h when h land 1 = 0 -> Array.init (count (h lsr 1) 9) (fun _ -> choice ())
    | _ -> bad "bad position header"
  in
  let positions = Array.init (count (int ()) 2) (fun _ -> position ()) in
  let rule () =
    let dep_pos = int () in
    let dep_sym = int () in
    let src_pos = int () in
    let src_sym = int () in
    let p_present = float () in
    { Correlation.dep_pos; dep_sym; src_pos; src_sym; p_present; p_absent = float () }
  in
  let rules = List.init (count (int ()) 20) (fun _ -> rule ()) in
  if !cur <> len then bad "trailing bytes";
  validated ~separators:true positions rules
