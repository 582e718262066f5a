(* Growable int array used during construction. *)
module Vec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let to_array v = Array.sub v.a 0 v.len
end

type t = {
  n : int; (* number of leaves *)
  sa : int array;
  rank : int array; (* suffix position -> leaf id *)
  parent : int array; (* node -> parent node, -1 at root *)
  depth : int array; (* node -> string depth *)
  lb : int array; (* node -> leftmost leaf of interval *)
  rb : int array; (* node -> rightmost leaf of interval *)
  by_interval : (int, int) Hashtbl.t; (* lb * 2^31 + rb -> internal node *)
  child_start : int array; (* CSR offsets into child_list, per node *)
  child_list : int array; (* children in leaf-interval order *)
}

let interval_key l r = (l * 0x40000000) + r

(* Build the lcp-interval tree with a stack of open intervals.

   Invariant after processing boundary i (the LCP entry between leaves
   i-1 and i): the top of the stack has string depth exactly lcp.(i).
   Leaf i-1 is attached to the deeper of the stack tops before/after the
   boundary adjustment, which is the deepest interval containing it
   (its depth is max(lcp.(i-1), lcp.(i))). *)
let build ~sa ~lcp ~text_len =
  let n = Array.length sa in
  if n = 0 then invalid_arg "Suffix_tree.build: empty suffix array";
  let i_depth = Vec.create () in
  let i_lb = Vec.create () in
  let i_rb = Vec.create () in
  let i_parent = Vec.create () in
  let leaf_parent = Array.make n (-1) in
  let new_node depth lb =
    let id = n + i_depth.Vec.len in
    Vec.push i_depth depth;
    Vec.push i_lb lb;
    Vec.push i_rb (-1);
    Vec.push i_parent (-1);
    id
  in
  let node_depth id = Vec.get i_depth (id - n) in
  let node_lb id = Vec.get i_lb (id - n) in
  let set_rb id r = Vec.set i_rb (id - n) r in
  let set_parent id p = Vec.set i_parent (id - n) p in
  let root = new_node 0 0 in
  let stack = ref [ root ] in
  let top () = match !stack with x :: _ -> x | [] -> assert false in
  let adjust i l =
    (* Restore the invariant top depth = l at boundary i. *)
    if l > node_depth (top ()) then stack := new_node l (i - 1) :: !stack
    else begin
      let last = ref (-1) in
      while node_depth (top ()) > l do
        match !stack with
        | x :: rest ->
            set_rb x (i - 1);
            stack := rest;
            if node_depth (top ()) > l then set_parent x (top ())
            else last := x
        | [] -> assert false
      done;
      if !last >= 0 then begin
        if node_depth (top ()) = l then set_parent !last (top ())
        else begin
          let y = new_node l (node_lb !last) in
          set_parent !last y;
          stack := y :: !stack
        end
      end
    end
  in
  for i = 1 to n - 1 do
    let l = lcp.(i) in
    if l > node_depth (top ()) then begin
      adjust i l;
      leaf_parent.(i - 1) <- top ()
    end
    else begin
      leaf_parent.(i - 1) <- top ();
      adjust i l
    end
  done;
  leaf_parent.(n - 1) <- top ();
  (* Close every open interval. *)
  let rec close () =
    match !stack with
    | [ r ] ->
        set_rb r (n - 1);
        set_parent r (-1)
    | x :: rest ->
        set_rb x (n - 1);
        stack := rest;
        set_parent x (top ());
        close ()
    | [] -> assert false
  in
  close ();
  let internal_depth = Vec.to_array i_depth in
  let internal_lb = Vec.to_array i_lb in
  let internal_rb = Vec.to_array i_rb in
  let internal_parent = Vec.to_array i_parent in
  let m = Array.length internal_depth in
  let parent = Array.make (n + m) (-1) in
  let depth = Array.make (n + m) 0 in
  let lb = Array.make (n + m) 0 in
  let rb = Array.make (n + m) 0 in
  for j = 0 to n - 1 do
    parent.(j) <- leaf_parent.(j);
    depth.(j) <- text_len - sa.(j);
    lb.(j) <- j;
    rb.(j) <- j
  done;
  for k = 0 to m - 1 do
    parent.(n + k) <- internal_parent.(k);
    depth.(n + k) <- internal_depth.(k);
    lb.(n + k) <- internal_lb.(k);
    rb.(n + k) <- internal_rb.(k)
  done;
  let by_interval = Hashtbl.create (2 * m) in
  for k = 0 to m - 1 do
    Hashtbl.replace by_interval
      (interval_key internal_lb.(k) internal_rb.(k))
      (n + k)
  done;
  let rank = Array.make text_len 0 in
  for j = 0 to n - 1 do
    rank.(sa.(j)) <- j
  done;
  (* children in CSR layout, each node's children sorted by leaf
     interval (= lexicographic edge order, since suffixes are sorted) *)
  let total = n + m in
  let counts = Array.make total 0 in
  for v = 0 to total - 1 do
    if parent.(v) >= 0 then counts.(parent.(v)) <- counts.(parent.(v)) + 1
  done;
  let child_start = Array.make (total + 1) 0 in
  for v = 0 to total - 1 do
    child_start.(v + 1) <- child_start.(v) + counts.(v)
  done;
  let fill = Array.copy child_start in
  let child_list = Array.make (Stdlib.max 1 child_start.(total)) 0 in
  for v = 0 to total - 1 do
    let p = parent.(v) in
    if p >= 0 then begin
      child_list.(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  for v = 0 to total - 1 do
    let a = child_start.(v) and b = child_start.(v + 1) in
    if b - a > 1 then begin
      let seg = Array.sub child_list a (b - a) in
      Array.sort (fun x y -> compare lb.(x) lb.(y)) seg;
      Array.blit seg 0 child_list a (b - a)
    end
  done;
  { n; sa; rank; parent; depth; lb; rb; by_interval; child_start; child_list }

let n_leaves t = t.n
let n_nodes t = Array.length t.parent
let root t = t.n
let is_leaf t v = v < t.n
let parent t v = t.parent.(v)
let str_depth t v = t.depth.(v)
let interval t v = (t.lb.(v), t.rb.(v))

let node_of_interval t ~l ~r =
  if l = r then (if l >= 0 && l < t.n then Some l else None)
  else Hashtbl.find_opt t.by_interval (interval_key l r)

let suffix_of_leaf t j = t.sa.(j)
let leaf_of_suffix t pos = t.rank.(pos)

let fold_nodes t ~init ~f =
  let acc = ref init in
  for v = 0 to n_nodes t - 1 do
    acc := f !acc v
  done;
  !acc

let children t v =
  List.init
    (t.child_start.(v + 1) - t.child_start.(v))
    (fun i -> t.child_list.(t.child_start.(v) + i))
