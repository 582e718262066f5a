module Logp = Pti_prob.Logp
module Parray = Pti_prob.Parray
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Correlation = Pti_ustring.Correlation
module S = Pti_storage

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

module Fvec = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0.0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

type t = {
  correlated : Ustring.t option;
      (* the source string, kept only when it carries correlation rules:
         [window_logp_corrected] reads its rules and marginals, and
         [None] lets that hot path skip the correlation machinery *)
  source_length : int;
  tau_min : float;
  text : S.ints;
  pos : S.ints;
  parray : Parray.t;
  n_factors : int;
  n_skipped : int;
}

(* An emitted factor: start position in the source and its symbols. *)
type factor = { f_start : int; f_syms : int array }

let f_end f = f.f_start + Array.length f.f_syms

(* Upper bound (log) of the probability any query window can assign to
   choice [c] at [pos]: see Worlds.upper_bound. Sound pruning bound
   under correlation. *)
let choice_upper_bound corr ~pos (c : Ustring.choice) =
  match Correlation.find corr ~dep_pos:pos ~dep_sym:c.sym with
  | None -> c.prob
  | Some r -> Float.max c.prob (Float.max r.p_present r.p_absent)

let correlated u =
  if Correlation.is_empty (Ustring.correlations u) then None else Some u

let build ?max_text_len ~tau_min u =
  if tau_min <= 0.0 || tau_min > 1.0 then
    invalid_arg (Printf.sprintf "Transform.build: tau_min=%g not in (0,1]" tau_min);
  let n = Ustring.length u in
  let corr = Ustring.correlations u in
  (* Pruning threshold with a tiny slack against log-space rounding. *)
  let ltau = log tau_min -. 1e-12 in
  let is_sep i =
    let cs = Ustring.choices u i in
    Array.length cs = 1 && cs.(0).sym = Sym.separator
  in
  (* barrier.(i): first index >= i holding a separator, or n. *)
  let barrier = Array.make (n + 1) n in
  for i = n - 1 downto 0 do
    barrier.(i) <- (if is_sep i then i else barrier.(i + 1))
  done;
  (* nxt_unc.(i): first index >= i with more than one choice, or n. *)
  let nxt_unc = Array.make (n + 1) n in
  for i = n - 1 downto 0 do
    nxt_unc.(i) <-
      (if Array.length (Ustring.choices u i) > 1 then i else nxt_unc.(i + 1))
  done;
  let text = Ivec.create () in
  let posv = Ivec.create () in
  let logs = Fvec.create () in
  let n_factors = ref 0 in
  let n_skipped = ref 0 in
  let active = ref [] in
  let push_sym sym original log =
    Ivec.push text sym;
    Ivec.push posv original;
    Fvec.push logs log
  in
  let emit j syms margs k =
    incr n_factors;
    (match max_text_len with
    | Some cap when text.Ivec.len + k + 1 > cap ->
        failwith
          (Printf.sprintf
             "Transform.build: transformed text exceeds max_text_len=%d \
              (tau_min=%g too small for this input?)"
             cap tau_min)
    | _ -> ());
    for o = 0 to k - 1 do
      push_sym syms.(o) (j + o) margs.(o)
    done;
    push_sym Sym.separator (-1) 0.0;
    active := { f_start = j; f_syms = Array.sub syms 0 k } :: !active
  in
  (* Shared candidate buffers (allocating them per position would be
     quadratic on inputs without separators). *)
  let syms = Array.make n 0 in
  let margs = Array.make n 0.0 in
  for j = 0 to n - 1 do
    if not (is_sep j) then begin
      (* Keep only factors that can still cover a candidate at j. *)
      active := List.filter (fun f -> f_end f > j) !active;
      let b = barrier.(j) in
      let cap = b - j in
      (* DFS over candidate factors starting at j. [consistent] holds
         the emitted factors whose aligned content matches the current
         prefix; a maximal candidate with a surviving consistent factor
         is covered and skipped. *)
      let rec dfs k ublog consistent =
        let viable =
          if k >= cap then []
          else
            Array.to_list (Ustring.choices u (j + k))
            |> List.filter_map (fun (c : Ustring.choice) ->
                   let ub = choice_upper_bound corr ~pos:(j + k) c in
                   let l = ublog +. log ub in
                   if l >= ltau then Some (c, l) else None)
        in
        if viable = [] then begin
          if k > 0 then
            if consistent = [] then emit j syms margs k else incr n_skipped
        end
        else
          List.iter
            (fun ((c : Ustring.choice), l) ->
              syms.(k) <- c.sym;
              margs.(k) <- log c.prob;
              let consistent' =
                List.filter
                  (fun f ->
                    let off = j - f.f_start + k in
                    off < Array.length f.f_syms && f.f_syms.(off) = c.sym)
                  consistent
              in
              (* Early subtree prune: some consistent factor reaches the
                 barrier and every remaining position up to the barrier
                 is single-choice, so the one possible continuation is
                 covered in full. *)
              let covered_subtree =
                nxt_unc.(j + k + 1) >= b
                && List.exists (fun f -> f_end f >= b) consistent'
              in
              if covered_subtree then incr n_skipped
              else dfs (k + 1) l consistent')
            viable
      in
      dfs 0 0.0 !active
    end
  done;
  if text.Ivec.len = 0 then push_sym Sym.separator (-1) 0.0;
  let text = Ivec.to_array text in
  let pos = Ivec.to_array posv in
  let logs = Fvec.to_array logs in
  let parray = Parray.of_logps (Array.map Logp.of_log logs) in
  {
    correlated = correlated u;
    source_length = n;
    tau_min;
    text = S.Ints.of_array text;
    pos = S.Ints.of_array pos;
    parray;
    n_factors = !n_factors;
    n_skipped = !n_skipped;
  }

let identity u =
  if not (Ustring.is_special u) then
    invalid_arg "Transform.identity: input is not a special uncertain string";
  let n = Ustring.length u in
  let text = Array.make n 0 in
  let logs = Array.make n Logp.one in
  for i = 0 to n - 1 do
    let c = (Ustring.choices u i).(0) in
    text.(i) <- c.sym;
    logs.(i) <- Logp.of_prob c.prob
  done;
  {
    correlated = correlated u;
    source_length = n;
    tau_min = 0.0;
    text = S.Ints.of_array text;
    pos = S.Ints.of_array (Array.init n (fun i -> i));
    parray = Parray.of_logps logs;
    n_factors = 1;
    n_skipped = 0;
  }

let tau_min t = t.tau_min
let text t = S.Ints.to_array t.text
let text_storage t = t.text
let text_length t = S.Ints.length t.text
let pos t = S.Ints.to_array t.pos
let pos_storage t = t.pos
let original_pos t i = S.Ints.get t.pos i
let parray t = t.parray

let window_logp t ~pos ~len = Parray.window t.parray ~pos ~len

let has_correlations t = Option.is_some t.correlated

let window_logp_corrected t ~pos:a ~len =
  match t.correlated with
  | None -> window_logp t ~pos:a ~len
  | Some src ->
      let base = window_logp t ~pos:a ~len in
      if Logp.is_zero base then base
      else begin
        let corr = Ustring.correlations src in
        let orig = S.Ints.get t.pos a in
        let rules = Correlation.affecting_window corr ~pos:orig ~len in
        let adjust acc (r : Correlation.rule) =
          if r.src_pos >= orig && r.src_pos < orig + len then begin
            (* Source inside the window: replace the dependent character's
               marginal with the conditional chosen by the window content. *)
            let dep_sym_actual = S.Ints.get t.text (a + (r.dep_pos - orig)) in
            if dep_sym_actual <> r.dep_sym then acc
            else begin
              let src_sym_actual = S.Ints.get t.text (a + (r.src_pos - orig)) in
              let cond =
                if src_sym_actual = r.src_sym then r.p_present else r.p_absent
              in
              if cond <= 0.0 then neg_infinity
              else begin
                let marg = Ustring.prob src ~pos:r.dep_pos ~sym:r.dep_sym in
                acc -. log marg +. log cond
              end
            end
          end
          else acc (* source outside: the stored marginal mixture is exact *)
        in
        let raw = List.fold_left adjust (Logp.to_log base) rules in
        if raw = neg_infinity then Logp.zero else Logp.of_log (Float.min 0.0 raw)
      end

let factor_suffix_lengths t =
  let n = S.Ints.length t.text in
  let flen = Array.make n 0 in
  for a = n - 1 downto 0 do
    if S.Ints.get t.pos a < 0 then flen.(a) <- 0
    else if a + 1 < n && S.Ints.get t.pos (a + 1) = S.Ints.get t.pos a + 1 then
      flen.(a) <- 1 + flen.(a + 1)
    else flen.(a) <- 1
  done;
  flen

let n_factors t = t.n_factors

let stats t =
  Printf.sprintf
    "transform: source=%d positions -> text=%d (factors=%d, skipped=%d, \
     tau_min=%g, blowup=%.2fx)"
    t.source_length (S.Ints.length t.text) t.n_factors t.n_skipped t.tau_min
    (float_of_int (S.Ints.length t.text)
    /. float_of_int (Stdlib.max 1 t.source_length))

let size_words t =
  (2 * S.Ints.length t.text) + (2 * S.Ints.length t.text) + 8
(* text + pos ints, parray ~2 words/position *)

let size_bytes t =
  S.Ints.byte_size t.text + S.Ints.byte_size t.pos
  + Parray.size_bytes t.parray + 64

(* {2 Persistence} *)

let save_parts w t =
  let cum, zeros = Parray.raw t.parray in
  S.Writer.add_ints w "tr.meta" [| t.n_factors; t.n_skipped; t.source_length |];
  S.Writer.add_floats w "tr.tau_min" [| t.tau_min |];
  S.Writer.add_ints_ba w "tr.text" t.text;
  S.Writer.add_ints_ba w "tr.pos" t.pos;
  S.Writer.add_floats_ba w "tr.cum" cum;
  S.Writer.add_ints_ba w "tr.zeros" zeros;
  Option.iter
    (fun u -> S.Writer.add_bytes w "tr.source" (Ustring.encode u))
    t.correlated

let open_parts r =
  (* a bytes "tr.meta" is the marshalled record every container held
     before the typed sections; refused before anything is decoded *)
  if S.Reader.kind r "tr.meta" = Some "bytes" then
    S.retired "tr.meta" "a container with a marshalled transform record";
  let corrupt section reason = raise (S.Corrupt { section; reason }) in
  let n_factors, n_skipped, source_length =
    match S.Ints.to_array (S.Reader.ints r "tr.meta") with
    | [| f; s; n |] -> (f, s, n)
    | _ -> corrupt "tr.meta" "transform meta has wrong arity"
  in
  let tau = S.Reader.floats r "tr.tau_min" in
  if S.Floats.length tau <> 1 then corrupt "tr.tau_min" "expected one value";
  let correlated =
    if not (S.Reader.has r "tr.source") then None
    else
      match Ustring.decode (S.Reader.blob r "tr.source") with
      | u when Ustring.length u = source_length -> Some u
      | _ -> corrupt "tr.source" "source length does not match tr.meta"
      | exception Invalid_argument reason -> corrupt "tr.source" reason
  in
  {
    correlated;
    source_length;
    tau_min = S.Floats.get tau 0;
    text = S.Reader.ints r "tr.text";
    pos = S.Reader.ints r "tr.pos";
    parray =
      Parray.of_storage
        ~cum:(S.Reader.floats r "tr.cum")
        ~zeros:(S.Reader.ints r "tr.zeros");
    n_factors;
    n_skipped;
  }
