module Logp = Pti_prob.Logp
module Sais = Pti_suffix.Sais
module Sa_search = Pti_suffix.Sa_search
module Transform = Pti_transform.Transform
module Sym = Pti_ustring.Sym

type t = {
  tr : Transform.t;
  epsilon : float;
  text : int array;
  sa : int array;
  n : int;
  links : Link_stab.t;
}

(* Exact probability (correlation-corrected) of the length-[len] prefix
   of the suffix at text position [a]. *)
let prefix_prob tr a len =
  Logp.to_prob (Transform.window_logp_corrected tr ~pos:a ~len)

let build_links tr ~epsilon ~pos ~sa n =
  let tau_min = Transform.tau_min tr in
  let flen = Transform.factor_suffix_lengths tr in
  let floor = tau_min -. epsilon in
  let links = ref [] in
  for j = 0 to n - 1 do
    let a = sa.(j) in
    if a < n && pos.(a) >= 0 then begin
      let d = pos.(a) in
      Link_stab.epsilon_partition ~epsilon ~floor
        ~prob:(fun k -> prefix_prob tr a k)
        ~lo_depth:0 ~hi_depth:flen.(a)
        (fun t_depth o_depth value ->
          links :=
            { Link_stab.lo = j; hi = j; t_depth; o_depth; posid = d; value }
            :: !links)
    end
  done;
  !links

let of_transform ~epsilon tr =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Approx_index: epsilon must be in (0, 1)";
  let text = Transform.text tr in
  let pos = Transform.pos tr in
  let n = Array.length text in
  let sa = Sais.suffix_array text in
  let links = Link_stab.build (build_links tr ~epsilon ~pos ~sa n) in
  { tr; epsilon; text; sa; n; links }

let build ?max_text_len ~epsilon ~tau_min u =
  let tr = Transform.build ?max_text_len ~tau_min u in
  of_transform ~epsilon tr

let validate_pattern pattern =
  if Array.length pattern = 0 then invalid_arg "Approx_index.query: empty pattern";
  Array.iter
    (fun s ->
      if s = Sym.separator then
        invalid_arg "Approx_index.query: pattern contains the separator")
    pattern

let query t ~pattern ~tau =
  validate_pattern pattern;
  if tau < Transform.tau_min t.tr -. 1e-12 then
    invalid_arg "Approx_index.query: tau below construction tau_min";
  match Sa_search.range ~text:t.text ~sa:t.sa ~pattern with
  | None -> []
  | Some (l, r) -> Link_stab.stab t.links ~l ~r ~m:(Array.length pattern) ~tau

let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = List.length (query t ~pattern ~tau)
let epsilon t = t.epsilon
let tau_min t = Transform.tau_min t.tr
let n_links t = Link_stab.n_links t.links

let size_words t =
  Array.length t.sa + Link_stab.size_words t.links + Transform.size_words t.tr

let stats t =
  Printf.sprintf "approx: N=%d links=%d epsilon=%g depth_size=%d size=%d words"
    t.n (n_links t) t.epsilon
    (Link_stab.depth_size t.links)
    (size_words t)
