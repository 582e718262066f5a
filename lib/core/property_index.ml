module Logp = Pti_prob.Logp
module Rmq = Pti_rmq.Rmq_block
module Sais = Pti_suffix.Sais
module Sa_search = Pti_suffix.Sa_search
module Transform = Pti_transform.Transform
module Sym = Pti_ustring.Sym

type t = {
  tr : Transform.t;
  text : int array;
  pos : int array;
  sa : int array;
  pi : int array; (* per suffix-array slot: maximal valid prefix length *)
  rmq : Rmq.t; (* maximum of pi over suffix ranges *)
}

(* π by text position: the longest window starting at [a] (within its
   factor) whose corrected probability strictly exceeds τ_c.

   Without correlation rules the probability is non-increasing in the
   window length, so an extend-while-valid walk suffices and π shrinks
   by at most 1 as the start advances within a factor (two-pointer).
   Correlation corrections can make the profile non-monotone (a source
   entering the window can replace a mixture with a larger conditional),
   so in that case π is the maximum over a full scan of the factor
   suffix — and intermediate lengths below π may still be invalid, which
   the query re-verifies per report. *)
let pi_by_position tr ~tau_c ~pos n =
  let flen = Transform.factor_suffix_lengths tr in
  let ltau = Logp.of_prob tau_c in
  let correlated = Transform.has_correlations tr in
  let pi = Array.make n 0 in
  for a = 0 to n - 1 do
    if pos.(a) >= 0 then begin
      if correlated then begin
        let best = ref 0 in
        for len = 1 to flen.(a) do
          if Logp.(Transform.window_logp_corrected tr ~pos:a ~len > ltau) then
            best := len
        done;
        pi.(a) <- !best
      end
      else begin
        let start =
          if a > 0 && pos.(a) = pos.(a - 1) + 1 then
            Stdlib.max 0 (pi.(a - 1) - 1)
          else 0
        in
        let len = ref start in
        while
          !len < flen.(a)
          && Logp.(
               Transform.window_logp_corrected tr ~pos:a ~len:(!len + 1) > ltau)
        do
          incr len
        done;
        pi.(a) <- !len
      end
    end
  done;
  pi

let build ?max_text_len ~tau_c u =
  if Pti_ustring.Ustring.length u = 0 then
    invalid_arg "Property_index.build: empty string";
  let tr = Transform.build ?max_text_len ~tau_min:tau_c u in
  let text = Transform.text tr in
  let pos = Transform.pos tr in
  let n = Array.length text in
  let sa = Sais.suffix_array text in
  let pi_pos = pi_by_position tr ~tau_c ~pos n in
  let pi = Array.init n (fun j -> pi_pos.(sa.(j))) in
  let rmq =
    Rmq.build_oracle ~block:Rmq.max_block
      ~value:(fun j -> float_of_int pi.(j))
      ~len:n
  in
  { tr; text; pos; sa; pi; rmq }

let tau_c t = Transform.tau_min t.tr

let validate_pattern pattern =
  if Array.length pattern = 0 then
    invalid_arg "Property_index.query: empty pattern";
  Array.iter
    (fun s ->
      if s = Sym.separator then
        invalid_arg "Property_index.query: pattern contains the separator")
    pattern

let query t ~pattern =
  validate_pattern pattern;
  match Sa_search.range ~text:t.text ~sa:t.sa ~pattern with
  | None -> []
  | Some (l, r) ->
      let m = Array.length pattern in
      let ltau = Logp.of_prob (tau_c t) in
      let best = Hashtbl.create 32 in
      (* report slots with π >= m by iterative range-maximum extraction;
         the length-m window is re-verified per report because π only
         bounds the *maximal* valid length (exact under no correlation,
         an upper-bound filter under correlation). *)
      let rec go l r =
        if l <= r then begin
          let mx = Rmq.query t.rmq ~l ~r in
          if t.pi.(mx) >= m then begin
            let a = t.sa.(mx) in
            let d = t.pos.(a) in
            if not (Hashtbl.mem best d) then begin
              let p = Transform.window_logp_corrected t.tr ~pos:a ~len:m in
              if Logp.(p > ltau) then Hashtbl.replace best d p
            end;
            go l (mx - 1);
            go (mx + 1) r
          end
        end
      in
      go l r;
      Hashtbl.fold (fun d p acc -> (d, p) :: acc) best []
      |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)

let query_string t ~pattern = query t ~pattern:(Sym.of_string pattern)
let count t ~pattern = List.length (query t ~pattern)

let size_words t =
  (2 * Array.length t.sa) + Rmq.size_words t.rmq + Transform.size_words t.tr
