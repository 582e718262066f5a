module Logp = Pti_prob.Logp
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Transform = Pti_transform.Transform
module S = Pti_storage

type relevance = Rel_max | Rel_or

type t = {
  engine : Engine.t;
  doc_of : S.ints; (* original position -> document id, -1 at separators *)
  doc_offsets : S.ints; (* n_docs + 1 ascending byte offsets into [docs] *)
  docs : string Lazy.t;
      (* the documents' [Ustring.encode] forms back to back; mapped
         ones are copied (and checksummed) on the first [doc] call *)
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
  List.iteri
    (fun k d ->
      let s = starts.(k) in
      for i = s to s + Ustring.length d - 1 do
        doc_of.(i) <- k
      done)
    docs;
  let tr = Transform.build ?max_text_len ~tau_min concatenated in
  let metric =
    match relevance with Rel_max -> Engine.Max | Rel_or -> Engine.Or_metric
  in
  let config = { Engine.ladder; metric } in
  let engine =
    Engine.build ~config ?backend ?domains ~key_of_pos:(fun p -> doc_of.(p)) tr
  in
  let enc = List.map Ustring.encode docs in
  let offsets = Array.make (List.length docs + 1) 0 in
  List.iteri (fun k e -> offsets.(k + 1) <- offsets.(k) + String.length e) enc;
  {
    engine;
    doc_of = S.Ints.of_array doc_of;
    doc_offsets = S.Ints.of_array offsets;
    docs = Lazy.from_val (String.concat "" enc);
    n_docs = List.length docs;
    relevance;
  }

let n_docs t = t.n_docs
let doc t k =
  if k < 0 || k >= t.n_docs then invalid_arg "Listing_index.doc";
  let off = S.Ints.get t.doc_offsets k in
  let len = S.Ints.get t.doc_offsets (k + 1) - off in
  (* damaged offsets fail [String.sub], a damaged encoding [decode] *)
  match Ustring.decode (String.sub (Lazy.force t.docs) off len) with
  | u -> u
  | exception Invalid_argument reason ->
      raise (S.Corrupt { section = "listing.docs"; reason })

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

let relevance_tag = function Rel_max -> 0 | Rel_or -> 1

let relevance_of_tag = function
  | 0 -> Some Rel_max
  | 1 -> Some Rel_or
  | _ -> None

(* Listing-owned sections of the engine container: "listing.meta"
   (relevance tag, document count), "listing.doc_of" (original position
   -> document, read zero-copy as the engine's [key_of_pos]) and the
   documents: their [Ustring.encode] forms back to back in
   "listing.docs", delimited by "listing.doc_offsets" (n_docs + 1
   ascending byte offsets). *)
let save ?(extra = fun (_ : S.Writer.t) -> ()) t path =
  Engine.save t.engine path ~extra:(fun w ->
      S.Writer.add_ints w "listing.meta" [| relevance_tag t.relevance; t.n_docs |];
      S.Writer.add_ints_ba w "listing.doc_of" t.doc_of;
      S.Writer.add_bytes w "listing.docs" (Lazy.force t.docs);
      S.Writer.add_ints_ba w "listing.doc_offsets" t.doc_offsets;
      extra w)

(* The engine is opened first, so a retired engine layout is refused
   before any listing section is read; a bytes "listing.meta" is the
   marshalled pair of earlier layouts. *)
let open_reader r =
  let doc_of = S.Reader.ints r "listing.doc_of" in
  let engine = Engine.open_reader ~key_of_pos:(S.Ints.get doc_of) r in
  if S.Reader.kind r "listing.meta" = Some "bytes" then
    S.retired "listing.meta" "a listing with marshalled metadata";
  let doc_offsets = S.Reader.ints r "listing.doc_offsets" in
  let n_docs = S.Ints.length doc_offsets - 1 in
  match S.Ints.to_array (S.Reader.ints r "listing.meta") with
  | [| tag; n |] when n = n_docs && relevance_of_tag tag <> None ->
      let docs = lazy (S.Reader.blob r "listing.docs") in
      let relevance = Option.get (relevance_of_tag tag) in
      { engine; doc_of; doc_offsets; docs; n_docs; relevance }
  | _ ->
      raise
        (S.Corrupt
           { section = "listing.meta"; reason = "bad relevance tag or document count" })

let load ?verify path = open_reader (S.Reader.open_file ?verify path)
