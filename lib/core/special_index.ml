module Logp = Pti_prob.Logp
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Transform = Pti_transform.Transform

type t = { engine : Engine.t }

let build ?config ?domains u =
  if Ustring.length u = 0 then invalid_arg "Special_index.build: empty string";
  let tr = Transform.identity u in
  { engine = Engine.build ?config ?domains ~key_of_pos:(fun p -> p) tr }

let query t ~pattern ~tau = Engine.query t.engine ~pattern ~tau
let query_batch ?domains t ~patterns = Engine.query_batch ?domains t.engine ~patterns
let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = Engine.count t.engine ~pattern ~tau
let stream t ~pattern ~tau = Engine.stream t.engine ~pattern ~tau
let query_top_k t ~pattern ~tau ~k = Engine.query_top_k t.engine ~pattern ~tau ~k
let engine t = t.engine
let size_words t = Engine.size_words t.engine
let size_bytes t = Engine.size_bytes t.engine

let save t path = Engine.save t.engine path
let load ?verify path = { engine = Engine.load ?verify ~key_of_pos:(fun p -> p) path }
