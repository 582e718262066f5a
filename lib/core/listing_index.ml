module Logp = Pti_prob.Logp
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Transform = Pti_transform.Transform
module S = Pti_storage

type relevance = Rel_max | Rel_or

type t = {
  engine : Engine.t;
  docs : Ustring.t array Lazy.t;
      (* lazy so opening a mapped index does not deserialize the
         document blobs until a caller actually asks for one *)
  n_docs : int;
  relevance : relevance;
}

let build ?(ladder = Engine.Ladder_geometric)
    ?(relevance = Rel_max) ?backend ?domains ?max_text_len ~tau_min docs =
  if docs = [] then invalid_arg "Listing_index.build: empty collection";
  List.iteri
    (fun k d ->
      if Ustring.length d = 0 then
        invalid_arg (Printf.sprintf "Listing_index.build: empty document %d" k))
    docs;
  let concatenated, starts = Ustring.concat ~sep:(Some Sym.separator) docs in
  let total = Ustring.length concatenated in
  (* Map original (concatenated) positions to document ids. *)
  let doc_of = Array.make total (-1) in
  let n_docs = Array.length starts in
  List.iteri
    (fun k d ->
      let s = starts.(k) in
      for i = s to s + Ustring.length d - 1 do
        doc_of.(i) <- k
      done)
    docs;
  ignore n_docs;
  let tr = Transform.build ?max_text_len ~tau_min concatenated in
  let metric =
    match relevance with Rel_max -> Engine.Max | Rel_or -> Engine.Or_metric
  in
  let config = { Engine.ladder; metric } in
  let engine =
    Engine.build ~config ?backend ?domains ~key_of_pos:(fun p -> doc_of.(p)) tr
  in
  let docs = Array.of_list docs in
  { engine; docs = Lazy.from_val docs; n_docs = Array.length docs; relevance }

let n_docs t = t.n_docs
let doc t k = (Lazy.force t.docs).(k)
let query ?max_range t ~pattern ~tau = Engine.query ?max_range t.engine ~pattern ~tau
let query_batch ?domains t ~patterns = Engine.query_batch ?domains t.engine ~patterns
let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = Engine.count t.engine ~pattern ~tau
let stream t ~pattern ~tau = Engine.stream t.engine ~pattern ~tau
let query_top_k ?max_range t ~pattern ~tau ~k =
  Engine.query_top_k ?max_range t.engine ~pattern ~tau ~k
let relevance t = t.relevance
let engine t = t.engine
let size_words t = Engine.size_words t.engine
let size_bytes t = Engine.size_bytes t.engine

(* The engine's key function maps original (concatenated) positions to
   document ids; it is reconstructed from the persisted documents. *)
let doc_map docs =
  let total =
    Array.fold_left (fun acc d -> acc + Ustring.length d) 0 docs
    + Stdlib.max 0 (Array.length docs - 1)
  in
  let doc_of = Array.make total (-1) in
  let off = ref 0 in
  Array.iteri
    (fun k d ->
      if k > 0 then incr off (* separator *);
      for _ = 1 to Ustring.length d do
        doc_of.(!off) <- k;
        incr off
      done)
    docs;
  doc_of

(* Listing-owned sections of the engine container: the relevance metric
   and document count ("listing.meta"), the original-position → document
   map ("listing.doc_of", read zero-copy to rebuild [key_of_pos]), and
   the documents themselves as a lazily-deserialized blob
   ("listing.docs"). *)
let save ?(extra = fun (_ : S.Writer.t) -> ()) t path =
  let docs = Lazy.force t.docs in
  Engine.save t.engine path ~extra:(fun w ->
      S.Writer.add_bytes w "listing.meta"
        (Marshal.to_string (t.relevance, t.n_docs) []);
      S.Writer.add_ints w "listing.doc_of" (doc_map docs);
      S.Writer.add_bytes w "listing.docs" (Marshal.to_string docs []);
      extra w)

(* The engine is opened first, so a retired engine layout is refused
   before any listing blob is unmarshalled. *)
let open_reader r =
  let doc_of = S.Reader.ints r "listing.doc_of" in
  let engine = Engine.open_reader ~key_of_pos:(S.Ints.get doc_of) r in
  let relevance, n_docs =
    (Marshal.from_string (S.Reader.blob r "listing.meta") 0 : relevance * int)
  in
  let docs = lazy (Marshal.from_string (S.Reader.blob r "listing.docs") 0) in
  { engine; docs; n_docs; relevance }

let load ?verify path = open_reader (S.Reader.open_file ?verify path)
