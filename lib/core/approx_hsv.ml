module Logp = Pti_prob.Logp
module Sais = Pti_suffix.Sais
module Lcp = Pti_suffix.Lcp
module St = Pti_suffix.Suffix_tree
module Lca = Pti_suffix.Lca
module Sa_search = Pti_suffix.Sa_search
module Transform = Pti_transform.Transform
module Sym = Pti_ustring.Sym

type t = {
  tr : Transform.t;
  epsilon : float;
  text : int array;
  sa : int array;
  links : Link_stab.t;
  n_marks : int;
}

let prefix_prob tr a len =
  Logp.to_prob (Transform.window_logp_corrected tr ~pos:a ~len)

(* One mark: node [v] carries position id [d]; [rep] is the text
   position of a witness suffix for [d] under [v] (used to evaluate the
   probability profile) and [flen] the deepest valid depth any d-leaf
   under [v] reaches. *)
type mark = {
  v : int;
  lb : int;
  rb : int;
  depth : int;
  mutable rep : int;
  mutable flen : int;
  mutable target : int; (* index of the parent mark in the per-d array, -1 at top *)
}

let build_marks tr ~st ~sa ~pos ~lca =
  let n = Array.length sa in
  let flen = Transform.factor_suffix_lengths tr in
  (* leaves per position id, in suffix-array order *)
  let by_d : (int, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  for j = n - 1 downto 0 do
    let a = sa.(j) in
    let d = pos.(a) in
    if d >= 0 then begin
      match Hashtbl.find_opt by_d d with
      | Some l -> l := j :: !l
      | None -> Hashtbl.add by_d d (ref [ j ])
    end
  done;
  let all_marks = ref [] in
  let n_marks = ref 0 in
  Hashtbl.iter
    (fun d leaves ->
      let leaves = !leaves in
      (* distinct marked nodes for d: the leaves plus LCAs of
         consecutive leaves *)
      let marked : (int, mark) Hashtbl.t = Hashtbl.create 8 in
      let add v rep_leaf =
        let a = sa.(rep_leaf) in
        let lb, rb = St.interval st v in
        match Hashtbl.find_opt marked v with
        | Some m ->
            if flen.(a) > m.flen then begin
              m.flen <- flen.(a);
              m.rep <- a
            end
        | None ->
            Hashtbl.replace marked v
              {
                v;
                lb;
                rb;
                depth = St.str_depth st v;
                rep = a;
                flen = flen.(a);
                target = -1;
              }
      in
      List.iter (fun j -> add j j) leaves;
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            add (Lca.query lca a b) a;
            pairs rest
        | _ -> ()
      in
      pairs leaves;
      (* order marks so that ancestors precede descendants, then find
         each mark's lowest proper marked ancestor with a stack *)
      let marks =
        Hashtbl.fold (fun _ m acc -> m :: acc) marked []
        |> List.sort (fun a b ->
               if a.lb <> b.lb then compare a.lb b.lb
               else if a.rb <> b.rb then compare b.rb a.rb
               else compare a.depth b.depth)
        |> Array.of_list
      in
      let stack = ref [] in
      Array.iteri
        (fun i m ->
          let rec unwind = function
            | top :: rest ->
                let tm = marks.(top) in
                if tm.lb <= m.lb && m.rb <= tm.rb && top <> i then
                  top :: rest
                else unwind rest
            | [] -> []
          in
          stack := unwind !stack;
          (match !stack with top :: _ -> m.target <- top | [] -> ());
          stack := i :: !stack)
        marks;
      (* propagate the deepest witness bottom-up (children appear after
         their parents in [marks], so iterate in reverse) *)
      for i = Array.length marks - 1 downto 0 do
        let m = marks.(i) in
        if m.target >= 0 then begin
          let p = marks.(m.target) in
          if m.flen > p.flen then begin
            p.flen <- m.flen;
            p.rep <- m.rep
          end
        end
      done;
      n_marks := !n_marks + Array.length marks;
      all_marks := (d, marks) :: !all_marks)
    by_d;
  (!all_marks, !n_marks)

let build_links tr ~epsilon marks_by_d =
  let tau_min = Transform.tau_min tr in
  let floor = tau_min -. epsilon in
  let links = ref [] in
  List.iter
    (fun (d, marks) ->
      Array.iter
        (fun m ->
          let t_depth = if m.target >= 0 then marks.(m.target).depth else 0 in
          let o_depth = Stdlib.min m.depth m.flen in
          if o_depth > t_depth then begin
            let a = m.rep in
            Link_stab.epsilon_partition ~epsilon ~floor
              ~prob:(fun k -> prefix_prob tr a k)
              ~lo_depth:t_depth ~hi_depth:o_depth
              (fun td od value ->
                links :=
                  {
                    Link_stab.lo = m.lb;
                    hi = m.rb;
                    t_depth = td;
                    o_depth = od;
                    posid = d;
                    value;
                  }
                  :: !links)
          end)
        marks)
    marks_by_d;
  !links

let of_transform ~epsilon tr =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Approx_hsv: epsilon must be in (0, 1)";
  let text = Transform.text tr in
  let pos = Transform.pos tr in
  let n = Array.length text in
  let sa = Sais.suffix_array text in
  let lcp = Lcp.kasai ~text ~sa in
  let st = St.build ~sa ~lcp ~text_len:n in
  let parent = Array.init (St.n_nodes st) (fun v -> St.parent st v) in
  let lca = Lca.build ~parent ~root:(St.root st) in
  let marks_by_d, n_marks = build_marks tr ~st ~sa ~pos ~lca in
  let links = Link_stab.build (build_links tr ~epsilon marks_by_d) in
  { tr; epsilon; text; sa; links; n_marks }

let build ?max_text_len ~epsilon ~tau_min u =
  let tr = Transform.build ?max_text_len ~tau_min u in
  of_transform ~epsilon tr

let validate_pattern pattern =
  if Array.length pattern = 0 then invalid_arg "Approx_hsv.query: empty pattern";
  Array.iter
    (fun s ->
      if s = Sym.separator then
        invalid_arg "Approx_hsv.query: pattern contains the separator")
    pattern

let query t ~pattern ~tau =
  validate_pattern pattern;
  if tau < Transform.tau_min t.tr -. 1e-12 then
    invalid_arg "Approx_hsv.query: tau below construction tau_min";
  match Sa_search.range ~text:t.text ~sa:t.sa ~pattern with
  | None -> []
  | Some (l, r) -> Link_stab.stab t.links ~l ~r ~m:(Array.length pattern) ~tau

let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = List.length (query t ~pattern ~tau)
let epsilon t = t.epsilon
let n_links t = Link_stab.n_links t.links
let n_marks t = t.n_marks

let size_words t =
  Array.length t.sa + Link_stab.size_words t.links + Transform.size_words t.tr

let stats t =
  Printf.sprintf "approx_hsv: N=%d marks=%d links=%d epsilon=%g size=%d words"
    (Array.length t.text) t.n_marks (n_links t) t.epsilon (size_words t)
