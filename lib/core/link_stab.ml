module Logp = Pti_prob.Logp
module Rmq = Pti_rmq.Rmq_sparse

type link = {
  lo : int;
  hi : int;
  t_depth : int;
  o_depth : int;
  posid : int;
  value : float;
}

let epsilon_partition ~epsilon ~floor ~prob ~lo_depth ~hi_depth emit =
  let t_depth = ref lo_depth in
  let upper = ref 1.0 in
  let k = ref (lo_depth + 1) in
  let stop = ref false in
  while (not !stop) && !k <= hi_depth do
    let p = prob !k in
    if !k = !t_depth + 1 then upper := p
    else if !upper -. p > epsilon then begin
      emit !t_depth (!k - 1) !upper;
      t_depth := !k - 1;
      upper := p
    end;
    if !upper <= floor then stop := true else incr k
  done;
  if (not !stop) && !k > !t_depth + 1 then emit !t_depth hi_depth !upper
  else if !stop && !k > !t_depth + 1 && !upper > floor then
    emit !t_depth (!k - 1) !upper

type node = {
  lks : link array; (* sorted by lo *)
  rmq : Rmq.t; (* over values *)
}

type t = {
  depth_size : int;
  nodes : node option array; (* 1-based segment tree over [1, depth_size] *)
  n_links : int;
}

let build links =
  let max_depth =
    List.fold_left (fun acc l -> Stdlib.max acc l.o_depth) 1 links
  in
  let depth_size =
    let rec go v = if v >= max_depth then v else go (2 * v) in
    go 1
  in
  let buckets = Array.make (2 * depth_size) [] in
  (* canonical decomposition of the depth interval [t_depth+1, o_depth] *)
  let rec assign node lo hi l r link =
    if r < lo || hi < l then ()
    else if l <= lo && hi <= r then buckets.(node) <- link :: buckets.(node)
    else begin
      let mid = (lo + hi) / 2 in
      assign (2 * node) lo mid l r link;
      assign ((2 * node) + 1) (mid + 1) hi l r link
    end
  in
  let n_links = ref 0 in
  List.iter
    (fun link ->
      incr n_links;
      assign 1 1 depth_size (link.t_depth + 1) link.o_depth link)
    links;
  let nodes =
    Array.map
      (fun bucket ->
        match bucket with
        | [] -> None
        | _ ->
            let lks = Array.of_list bucket in
            Array.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi)) lks;
            let rmq = Rmq.build (Array.map (fun l -> l.value) lks) in
            Some { lks; rmq })
      buckets
  in
  { depth_size; nodes; n_links = !n_links }

let n_links t = t.n_links
let depth_size t = t.depth_size

(* first index with lo >= x *)
let lower_bound lks x =
  let l = ref 0 and r = ref (Array.length lks) in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if lks.(mid).lo < x then l := mid + 1 else r := mid
  done;
  !l

let stab t ~l ~r ~m ~tau =
  if m > t.depth_size then []
  else begin
    let best = Hashtbl.create 32 in
    let report node =
      match node with
      | None -> ()
      | Some { lks; rmq } ->
          let lo = lower_bound lks l and hi = lower_bound lks (r + 1) - 1 in
          (* Max-report links with value > tau. A link whose [hi] leaks
             past [r] (an ancestor interval sharing [lo]) is skipped but
             does not stop the recursion — there are at most
             tree-height such links per query. *)
          let rec go lo hi =
            if lo <= hi then begin
              let mx = Rmq.query rmq ~l:lo ~r:hi in
              let lk = lks.(mx) in
              if lk.value > tau then begin
                if lk.hi <= r then begin
                  match Hashtbl.find_opt best lk.posid with
                  | Some bv when bv >= lk.value -> ()
                  | _ -> Hashtbl.replace best lk.posid lk.value
                end;
                go lo (mx - 1);
                go (mx + 1) hi
              end
            end
          in
          go lo hi
    in
    (* visit the root-to-leaf path for depth point m *)
    let node = ref 1 and lo = ref 1 and hi = ref t.depth_size in
    while !lo < !hi do
      report t.nodes.(!node);
      let mid = (!lo + !hi) / 2 in
      if m <= mid then begin
        node := 2 * !node;
        hi := mid
      end
      else begin
        node := (2 * !node) + 1;
        lo := mid + 1
      end
    done;
    report t.nodes.(!node);
    Hashtbl.fold
      (fun d v acc -> (d, Logp.of_prob (Float.min 1.0 v)) :: acc)
      best []
    |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)
  end

let size_words t =
  Array.fold_left
    (fun acc node ->
      match node with
      | None -> acc + 1
      | Some { lks; rmq } -> acc + (4 * Array.length lks) + Rmq.size_words rmq)
    4 t.nodes
