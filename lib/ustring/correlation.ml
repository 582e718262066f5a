type rule = {
  dep_pos : int;
  dep_sym : Sym.t;
  src_pos : int;
  src_sym : Sym.t;
  p_present : float;
  p_absent : float;
}

type t = {
  by_dep : (int * Sym.t, rule) Hashtbl.t;
  by_dep_pos : (int, rule) Hashtbl.t; (* multi-binding: all rules at a dep position *)
  all : rule list;
}

let empty = { by_dep = Hashtbl.create 1; by_dep_pos = Hashtbl.create 1; all = [] }

let is_empty t = t.all = []

let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Correlation: %s=%g not in [0,1]" name p)

let of_rules rules =
  let by_dep = Hashtbl.create 16 in
  let by_dep_pos = Hashtbl.create 16 in
  let dep_positions = Hashtbl.create 16 in
  List.iter
    (fun r ->
      check_prob "p_present" r.p_present;
      check_prob "p_absent" r.p_absent;
      if r.dep_pos = r.src_pos then
        invalid_arg "Correlation: rule correlates a position with itself";
      if Hashtbl.mem by_dep (r.dep_pos, r.dep_sym) then
        invalid_arg
          (Printf.sprintf "Correlation: duplicate rule for position %d" r.dep_pos);
      Hashtbl.replace by_dep (r.dep_pos, r.dep_sym) r;
      Hashtbl.add by_dep_pos r.dep_pos r;
      Hashtbl.replace dep_positions r.dep_pos ())
    rules;
  List.iter
    (fun r ->
      if Hashtbl.mem dep_positions r.src_pos then
        invalid_arg
          (Printf.sprintf
             "Correlation: chained correlation through position %d" r.src_pos))
    rules;
  { by_dep; by_dep_pos; all = rules }

let rules t = t.all

let find t ~dep_pos ~dep_sym = Hashtbl.find_opt t.by_dep (dep_pos, dep_sym)

let marginal r ~src_prob = (src_prob *. r.p_present) +. ((1.0 -. src_prob) *. r.p_absent)

let affecting_window t ~pos ~len =
  if t.all = [] then []
  else begin
    let acc = ref [] in
    for p = pos + len - 1 downto pos do
      List.iter (fun r -> acc := r :: !acc) (Hashtbl.find_all t.by_dep_pos p)
    done;
    !acc
  end
