module Logp = Pti_prob.Logp
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Transform = Pti_transform.Transform

type t = { engine : Engine.t }

let build ?config ?backend ?domains ?max_text_len ~tau_min u =
  if Ustring.length u = 0 then invalid_arg "General_index.build: empty string";
  let tr = Transform.build ?max_text_len ~tau_min u in
  { engine = Engine.build ?config ?backend ?domains ~key_of_pos:(fun p -> p) tr }

let query ?max_range t ~pattern ~tau = Engine.query ?max_range t.engine ~pattern ~tau
let query_batch ?domains t ~patterns = Engine.query_batch ?domains t.engine ~patterns
let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = Engine.count t.engine ~pattern ~tau
let stream t ~pattern ~tau = Engine.stream t.engine ~pattern ~tau
let query_top_k ?max_range t ~pattern ~tau ~k =
  Engine.query_top_k ?max_range t.engine ~pattern ~tau ~k
let tau_min t = Transform.tau_min (Engine.transform t.engine)
let transform t = Engine.transform t.engine
let engine t = t.engine
let size_words t = Engine.size_words t.engine
let size_bytes t = Engine.size_bytes t.engine

let save t path = Engine.save t.engine path
let open_reader r = { engine = Engine.open_reader ~key_of_pos:(fun p -> p) r }
let load ?verify path = open_reader (Pti_storage.Reader.open_file ?verify path)
