module Logp = Pti_prob.Logp
module Par = Pti_parallel
module Rmq_block = Pti_rmq.Rmq_block
module Sais = Pti_suffix.Sais
module Lcp = Pti_suffix.Lcp
module Sa_search = Pti_suffix.Sa_search
module Transform = Pti_transform.Transform
module Sym = Pti_ustring.Sym
module S = Pti_storage

type ladder = Ladder_geometric | Ladder_full | Ladder_none
type metric = Max | Or_metric
type config = { ladder : ladder; metric : metric }

let default_config = { ladder = Ladder_geometric; metric = Max }

(* Which persisted layout the engine targets. Both keep the same
   signature block RMQs; the backend only chooses the range search:
   [Packed] binary-searches the suffix array over the text, [Succinct]
   adds an FM index and searches backwards through it. *)
type backend = Packed | Succinct

(* The range search itself: the FM index of a succinct engine, or the
   q-gram bucket table a packed engine derives from its text at build
   and at open (never persisted). *)
type range_search = Fm of Pti_succinct.Fm_index.t | Buckets of Sa_search.Qgram.t

let buckets text = Buckets (Sa_search.Ba.qgram text)

let describe_search = function
  | Buckets tb -> "buckets(" ^ Sa_search.Qgram.describe tb ^ ")"
  | Fm _ -> "fm"

let backend_to_string = function Packed -> "packed" | Succinct -> "succinct"

let backend_of_string = function
  | "packed" -> Some Packed
  | "succinct" -> Some Succinct
  | _ -> None

(* Max-heap of (priority, a, b, c) used for reporting in non-increasing
   probability order. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable payload : (int * int * int) array;
    mutable len : int;
  }

  let create () = { keys = Array.make 64 0.0; payload = Array.make 64 (0, 0, 0); len = 0 }

  let swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let p = h.payload.(i) in
    h.payload.(i) <- h.payload.(j);
    h.payload.(j) <- p

  let push h key payload =
    if h.len = Array.length h.keys then begin
      let nk = Array.make (2 * h.len) 0.0 in
      let np = Array.make (2 * h.len) (0, 0, 0) in
      Array.blit h.keys 0 nk 0 h.len;
      Array.blit h.payload 0 np 0 h.len;
      h.keys <- nk;
      h.payload <- np
    end;
    h.keys.(h.len) <- key;
    h.payload.(h.len) <- payload;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.keys.((!i - 1) / 2) < h.keys.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let key = h.keys.(0) and payload = h.payload.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.keys.(0) <- h.keys.(h.len);
        h.payload.(0) <- h.payload.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < h.len && h.keys.(l) > h.keys.(!best) then best := l;
          if r < h.len && h.keys.(r) > h.keys.(!best) then best := r;
          if !best = !i then continue := false
          else begin
            swap h !i !best;
            i := !best
          end
        done
      end;
      Some (key, payload)
    end
end

(* Every array the query path reads is a storage view: heap-backed right
   after [build], a section of the mapped index file after [load]. One
   code path, zero per-access allocation either way, and a mapped engine
   shares its pages with every domain and OS process serving the same
   file. *)
type t = {
  tr : Transform.t;
  cfg : config;
  backend : backend;
  key_of_pos : int -> int;
  text : S.ints;
  pos : S.ints;
  sa : S.ints;
  n : int;
  max_short : int;
  dead : S.Bits.t array; (* Max metric: per level, bit set = suppressed slot *)
  stored : S.floats array; (* Or metric: per level, metric value per slot *)
  level_rmq : Rmq_block.t array;
  ladder_sizes : int array;
  ladder_rmq : Rmq_block.t array;
  ladder_max : S.floats array;
  search : range_search;
}

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

(* Exact (correlation-corrected) log probability of the length-[len]
   window at suffix-array slot [j]; -inf when the window leaves the
   factor (crosses a separator or the text end). *)
let slot_value_raw ~tr ~pos ~sa ~n j len =
  let a = S.Ints.get sa j in
  if a + len > n then neg_infinity
  else begin
    let p = S.Ints.get pos a in
    if p < 0 || S.Ints.get pos (a + len - 1) <> p + len - 1 then neg_infinity
    else Logp.to_log (Transform.window_logp_corrected tr ~pos:a ~len)
  end

let bit_set b j =
  Bytes.set b (j lsr 3)
    (Char.chr (Char.code (Bytes.get b (j lsr 3)) lor (1 lsl (j land 7))))

(* OR metric over a key's distinct positions: sum - product, clamped to
   [0, 1] (§6; see Oracle.relevance_or). Input: list of (pos, log p). *)
let or_value entries =
  let sum = ref 0.0 and prod = ref 1.0 in
  List.iter
    (fun (_, l) ->
      let p = exp l in
      sum := !sum +. p;
      prod := !prod *. p)
    entries;
  let v = Float.max 0.0 (Float.min 1.0 (!sum -. !prod)) in
  if v <= 0.0 then neg_infinity else Float.min 0.0 (log v)

(* The level-[level] metric value of suffix-array slot [j]: what the
   per-level RMQs index. Shared between construction and mmap reopen so
   both paths attach the same oracle. *)
let make_level_value ~metric ~dead ~stored ~slot_value level j =
  match metric with
  | Max ->
      if S.Bits.get dead.(level - 1) j then neg_infinity else slot_value j level
  | Or_metric -> S.Floats.get stored.(level - 1) j

let build ?(config = default_config) ?(backend = Packed) ?domains ~key_of_pos
    tr =
  let text = Transform.text tr in
  let pos = Transform.pos tr in
  let n = Array.length text in
  let sa = Sais.suffix_array text in
  let lcp = Lcp.kasai ~text ~sa in
  let max_short = Stdlib.max 1 (ceil_log2 (Stdlib.max 2 n)) in
  let sa_s = S.Ints.of_array sa in
  let text_s = Transform.text_storage tr in
  let pos_s = Transform.pos_storage tr in
  let slot_value j len = slot_value_raw ~tr ~pos:pos_s ~sa:sa_s ~n j len in
  let n_levels = max_short in
  let dead = Array.init n_levels (fun _ -> Bytes.make ((n + 7) / 8) '\000') in
  let stored =
    match config.metric with
    | Max -> [||]
    | Or_metric -> Array.init n_levels (fun _ -> Array.make n neg_infinity)
  in
  (* The key of every suffix-array slot, once: duplicate elimination
     compares keys at every level. Slots without a position (negative
     [pos]) are -infinity at every level and never keyed. *)
  let slot_key =
    Array.init n (fun s ->
        let p = pos.(sa.(s)) in
        if p < 0 then -1 else key_of_pos p)
  in
  let key_span = 1 + Array.fold_left Stdlib.max (-1) slot_key in
  (* One pass per level. Within each depth-i lcp-group, keep one
     representative slot per key — the first of its most probable slots
     (Algorithm 3's "duplicate elimination in C_i") — then build the
     level's RMQ over the values that pass computed. Representatives
     live in a key-indexed array stamped with the group's number, so a
     group costs no clearing. Levels are mutually independent — level i
     reads only shared immutable data (sa, lcp, pos, the transform, the
     slot keys) and writes only dead.(i-1) / stored.(i-1) /
     level_built.(i-1) — so they are sharded across the domain pool.
     Scratch arrays are per-domain and reused across groups and levels.
     Negative keys are never deduplicated. *)
  let level_built = Array.make n_levels None in
  Par.parallel_for_init ?domains ~chunk:1 ~start:1 ~finish:n_levels
    ~init:(fun () ->
      (* (slot values, key -> representative slot, key -> its group,
         groups seen) *)
      (Array.make n 0.0, Array.make key_span 0, Array.make key_span 0, ref 0))
    (fun (vals, rep, stamp, groups) level ->
      let dead = dead.(level - 1) in
      let keyed s = vals.(s) <> neg_infinity && slot_key.(s) >= 0 in
      let j = ref 0 in
      while !j < n do
        let g0 = !j in
        let g1 = ref (g0 + 1) in
        while !g1 < n && lcp.(!g1) >= level do
          incr g1
        done;
        incr groups;
        let g = !groups in
        for s = g0 to !g1 - 1 do
          let v = slot_value s level in
          vals.(s) <- v;
          if v = neg_infinity then bit_set dead s
          else begin
            let key = slot_key.(s) in
            if key >= 0 then
              if stamp.(key) <> g then begin
                stamp.(key) <- g;
                rep.(key) <- s
              end
              else if v > vals.(rep.(key)) then rep.(key) <- s
          end
        done;
        (match config.metric with
        | Max ->
            for s = g0 to !g1 - 1 do
              if keyed s && rep.(slot_key.(s)) <> s then begin
                bit_set dead s;
                vals.(s) <- neg_infinity
              end
            done
        | Or_metric ->
            (* Per key, OR-combine over the key's distinct positions and
               store the result at the representative slot. *)
            let occ = Hashtbl.create 16 in
            for s = g0 to !g1 - 1 do
              if keyed s then begin
                let key = slot_key.(s) in
                let h =
                  match Hashtbl.find_opt occ key with
                  | Some h -> h
                  | None ->
                      let h = Hashtbl.create 4 in
                      Hashtbl.replace occ key h;
                      h
                in
                Hashtbl.replace h pos.(sa.(s)) vals.(s)
              end
            done;
            Hashtbl.iter
              (fun key h ->
                let entries = Hashtbl.fold (fun p l acc -> (p, l) :: acc) h [] in
                stored.(level - 1).(rep.(key)) <- or_value entries)
              occ);
        j := !g1
      done;
      let value =
        match config.metric with
        | Max -> Array.get vals
        | Or_metric -> Array.get stored.(level - 1)
      in
      level_built.(level - 1) <-
        Some (Rmq_block.build_oracle ~block:Rmq_block.max_block ~value ~len:n));
  (* Blocking ladder for long patterns. *)
  let ladder_sizes =
    match config.ladder with
    | Ladder_none -> [||]
    | Ladder_geometric ->
        let rec go acc s = if s > n then List.rev acc else go (s :: acc) (2 * s) in
        Array.of_list (go [] (max_short + 1))
    | Ladder_full ->
        if n > 1 lsl 14 then
          invalid_arg
            "Engine.build: Ladder_full is quadratic; refusing n > 16384";
        Array.init (Stdlib.max 0 (n - max_short)) (fun k -> max_short + 1 + k)
  in
  (* Each ladder size costs O(n) slot probes and owns its output array,
     so the per-size block maxima are computed in parallel too. *)
  let ladder_max =
    Par.parallel_map_array ?domains ~chunk:1
      (fun s ->
        let nb = (n + s - 1) / s in
        Array.init nb (fun k ->
            let lo = k * s and hi = Stdlib.min n ((k + 1) * s) - 1 in
            let best = ref neg_infinity in
            for j = lo to hi do
              let v = slot_value j s in
              if v > !best then best := v
            done;
            !best))
      ladder_sizes
  in
  let search =
    match backend with
    | Succinct -> Fm (Pti_succinct.Fm_index.create ~sa text)
    | Packed -> buckets text_s
  in
  let dead = Array.map S.Bits.of_bytes dead in
  let stored = Array.map S.Floats.of_array stored in
  let ladder_max = Array.map S.Floats.of_array ladder_max in
  (* The level RMQs answer through the level-value oracle: a heap
     engine keeps no per-level value array. *)
  let level_value =
    make_level_value ~metric:config.metric ~dead ~stored ~slot_value
  in
  let level_rmq =
    Array.mapi
      (fun k r ->
        Rmq_block.with_oracle (Option.get r) ~value:(level_value (k + 1)))
      level_built
  in
  (* The per-size ladder RMQs are mutually independent, so their builds
     are sharded across the domain pool too. *)
  let ladder_rmq =
    Par.parallel_map_array ?domains ~chunk:1
      (fun pb ->
        Rmq_block.build_oracle ~block:Rmq_block.max_block
          ~value:(S.Floats.get pb) ~len:(S.Floats.length pb))
      ladder_max
  in
  {
    tr;
    cfg = config;
    backend;
    key_of_pos;
    text = text_s;
    pos = pos_s;
    sa = sa_s;
    n;
    max_short;
    dead;
    stored;
    level_rmq;
    ladder_sizes;
    ladder_rmq;
    ladder_max;
    search;
  }

let transform t = t.tr
let config t = t.cfg
let backend t = t.backend
let max_short t = t.max_short

let slot_value t j len = slot_value_raw ~tr:t.tr ~pos:t.pos ~sa:t.sa ~n:t.n j len

let level_value t level j =
  make_level_value ~metric:t.cfg.metric ~dead:t.dead ~stored:t.stored
    ~slot_value:(slot_value t) level j

let validate_pattern pattern =
  if Array.length pattern = 0 then invalid_arg "Engine.query: empty pattern";
  Array.iter
    (fun s ->
      if s = Sym.separator then
        invalid_arg "Engine.query: pattern contains the separator symbol")
    pattern

let raw_range t pattern =
  match t.search with
  | Buckets tb -> Sa_search.Ba.range_in tb ~text:t.text ~sa:t.sa ~pattern
  | Fm fm -> Pti_succinct.Fm_index.range fm ~pattern

let suffix_range t ~pattern =
  validate_pattern pattern;
  raw_range t pattern

(* Report every live slot of the single depth-m group [l, r] whose level
   value exceeds ltau, in non-increasing value order, via iterative
   range-maximum extraction (Algorithm 2 / Algorithm 4). Produced as a
   lazy sequence so top-k consumption stops after k extractions. *)
let short_stream t ~level ~l ~r ~ltau =
  let rmq = t.level_rmq.(level - 1) in
  let heap = Heap.create () in
  let seed l r =
    if l <= r then begin
      let mx = Rmq_block.query rmq ~l ~r in
      let v = level_value t level mx in
      if v > ltau then Heap.push heap v (mx, l, r)
    end
  in
  seed l r;
  let rec next () =
    match Heap.pop heap with
    | None -> Seq.Nil
    | Some (v, (mx, l, r)) ->
        let key = t.key_of_pos (S.Ints.get t.pos (S.Ints.get t.sa mx)) in
        seed l (mx - 1);
        seed (mx + 1) r;
        Seq.Cons ((key, Logp.of_log (Float.min 0.0 v)), next)
  in
  next

let short_query t ~level ~l ~r ~ltau =
  List.of_seq (short_stream t ~level ~l ~r ~ltau)

(* Long patterns, Max metric: block filtering with the largest ladder
   size <= m (upper-bound filter since window probability is
   non-increasing in length), then exact per-slot verification and
   per-key aggregation. *)
let long_query_blocks t ~m ~l ~r ~ltau =
  let li =
    let best = ref (-1) in
    Array.iteri (fun i s -> if s <= m then best := i) t.ladder_sizes;
    !best
  in
  let candidates = Hashtbl.create 64 in
  let add_candidate j =
    let v = slot_value t j m in
    if v > ltau then begin
      let key = t.key_of_pos (S.Ints.get t.pos (S.Ints.get t.sa j)) in
      match Hashtbl.find_opt candidates key with
      | Some bv when bv >= v -> ()
      | _ -> Hashtbl.replace candidates key v
    end
  in
  if li < 0 then
    (* No usable ladder entry: scan the whole range. *)
    for j = l to r do
      add_candidate j
    done
  else begin
    let s = t.ladder_sizes.(li) in
    let rmq = t.ladder_rmq.(li) and pb = t.ladder_max.(li) in
    let bl = l / s and br = r / s in
    let rec go bl br =
      if bl <= br then begin
        let k = Rmq_block.query rmq ~l:bl ~r:br in
        if S.Floats.get pb k > ltau then begin
          let lo = Stdlib.max l (k * s) and hi = Stdlib.min r (((k + 1) * s) - 1) in
          for j = lo to hi do
            add_candidate j
          done;
          go bl (k - 1);
          go (k + 1) br
        end
      end
    in
    go bl br
  end;
  Hashtbl.fold (fun key v acc -> (key, Logp.of_log (Float.min 0.0 v)) :: acc)
    candidates []
  |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)

(* Long patterns, OR metric: the block filter is unsound for OR (a
   document can clear τ only in combination), so scan the range and
   aggregate per key over distinct positions — the paper's complex-
   metric caveat. *)
let long_query_or t ~m ~l ~r ~ltau =
  let per_key = Hashtbl.create 64 in
  for j = l to r do
    let v = slot_value t j m in
    if v > neg_infinity then begin
      let p = S.Ints.get t.pos (S.Ints.get t.sa j) in
      let key = t.key_of_pos p in
      let positions =
        match Hashtbl.find_opt per_key key with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 8 in
            Hashtbl.replace per_key key h;
            h
      in
      Hashtbl.replace positions p v
    end
  done;
  Hashtbl.fold
    (fun key positions acc ->
      let entries = Hashtbl.fold (fun p l acc -> (p, l) :: acc) positions [] in
      let v = or_value entries in
      if v > ltau then (key, Logp.of_log (Float.min 0.0 v)) :: acc else acc)
    per_key []
  |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)

let validate_query t ~pattern ~tau =
  validate_pattern pattern;
  let tau_min = Transform.tau_min t.tr in
  if tau < tau_min -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.query: tau=%g below construction tau_min=%g" tau
         tau_min);
  if tau > 1.0 then invalid_arg "Engine.query: tau > 1"

exception Over_budget

(* The one range search bounds the rest of the query: a short pattern
   makes at most [r - l + 1] extractions, a long one scans at most that
   many slots. A caller with a work budget gets [Over_budget] before
   any of it starts. *)
let within_budget max_range l r =
  match max_range with
  | Some b when r - l + 1 > b -> raise Over_budget
  | _ -> ()

let query ?max_range t ~pattern ~tau =
  validate_query t ~pattern ~tau;
  match raw_range t pattern with
  | None -> []
  | Some (l, r) ->
      within_budget max_range l r;
      let m = Array.length pattern in
      let ltau = Logp.to_log (Logp.of_prob tau) in
      if m <= t.max_short then short_query t ~level:m ~l ~r ~ltau
      else begin
        match t.cfg.metric with
        | Max -> long_query_blocks t ~m ~l ~r ~ltau
        | Or_metric -> long_query_or t ~m ~l ~r ~ltau
      end

let count t ~pattern ~tau = List.length (query t ~pattern ~tau)

let stream ?max_range t ~pattern ~tau =
  validate_query t ~pattern ~tau;
  match raw_range t pattern with
  | None -> Seq.empty
  | Some (l, r) ->
      within_budget max_range l r;
      let m = Array.length pattern in
      let ltau = Logp.to_log (Logp.of_prob tau) in
      if m <= t.max_short then short_stream t ~level:m ~l ~r ~ltau
      else begin
        let answers =
          match t.cfg.metric with
          | Max -> long_query_blocks t ~m ~l ~r ~ltau
          | Or_metric -> long_query_or t ~m ~l ~r ~ltau
        in
        List.to_seq answers
      end

let query_top_k ?max_range t ~pattern ~tau ~k =
  if k < 0 then invalid_arg "Engine.query_top_k: negative k";
  List.of_seq (Seq.take k (stream ?max_range t ~pattern ~tau))

(* Queries only read the engine (suffix array, RMQ structures,
   bitmaps, the transform — all immutable after construction); per-query
   traversal state (heaps, hash tables) is allocated locally. So a batch
   shards across the pool with no locking, each query writing only its
   own result slot. *)
let query_batch ?domains t ~patterns =
  let nq = Array.length patterns in
  let out = Array.make nq [] in
  Par.parallel_for ?domains ~start:0 ~finish:(nq - 1) (fun i ->
      let pattern, tau = patterns.(i) in
      out.(i) <- query t ~pattern ~tau);
  out

let size_words t =
  let rmq_words =
    Array.fold_left (fun acc r -> acc + Rmq_block.size_words r) 0 t.level_rmq
    + Array.fold_left (fun acc r -> acc + Rmq_block.size_words r) 0 t.ladder_rmq
  in
  (* each dead bitmap is (n+7)/8 bytes, i.e. ceil(bytes/8) words *)
  let dead_words = Array.length t.dead * ((((t.n + 7) / 8) + 7) / 8) in
  let stored_words =
    Array.fold_left (fun acc a -> acc + S.Floats.length a) 0 t.stored
  in
  let ladder_words =
    Array.fold_left (fun acc a -> acc + S.Floats.length a) 0 t.ladder_max
  in
  let search_words =
    match t.search with
    | Buckets tb -> Sa_search.Qgram.size_words tb
    | Fm fm -> Pti_succinct.Fm_index.size_words fm
  in
  t.n (* sa *) + rmq_words + dead_words + stored_words + ladder_words
  + search_words + Transform.size_words t.tr

(* Byte-accurate accounting: packed views count at their packed width. *)
let size_bytes t =
  let rmq_bytes =
    Array.fold_left (fun acc r -> acc + Rmq_block.size_bytes r) 0 t.level_rmq
    + Array.fold_left (fun acc r -> acc + Rmq_block.size_bytes r) 0 t.ladder_rmq
  in
  let dead_bytes =
    Array.fold_left (fun acc b -> acc + S.Bits.byte_length b) 0 t.dead
  in
  let stored_bytes =
    Array.fold_left (fun acc a -> acc + S.Floats.byte_size a) 0 t.stored
  in
  let ladder_bytes =
    Array.fold_left (fun acc a -> acc + S.Floats.byte_size a) 0 t.ladder_max
  in
  let search_bytes =
    match t.search with
    | Buckets tb -> 8 * Sa_search.Qgram.size_words tb
    | Fm fm -> Pti_succinct.Fm_index.size_bytes fm
  in
  S.Ints.byte_size t.sa + rmq_bytes + dead_bytes + stored_bytes
  + ladder_bytes + search_bytes + Transform.size_bytes t.tr

let stats t =
  Printf.sprintf
    "engine: N=%d backend=%s range=%s levels=%d ladder=[%s] metric=%s \
     size=%d words | %s"
    t.n
    (backend_to_string t.backend)
    (describe_search t.search)
    t.max_short
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.ladder_sizes)))
    (match t.cfg.metric with Max -> "max" | Or_metric -> "or")
    (size_words t) (Transform.stats t.tr)

(* ------------------------------------------------------------------ *)
(* Persistence: PTI-ENGINE-4 container format (minimal-width packed
   sections).

   Every engine array becomes a named section of a {!Pti_storage}
   container; the RMQ index arrays are persisted too, so [load] is a
   page mapping plus oracle re-attachment — no SA-IS, no duplicate
   elimination, no RMQ rebuild. Section order is fixed, so saving the
   same engine always produces byte-identical files (the parallel test
   suite relies on this across domain counts). *)

let backend_tag = function Packed -> 0 | Succinct -> 1

let ladder_tag = function
  | Ladder_geometric -> 0
  | Ladder_full -> 1
  | Ladder_none -> 2

let metric_tag = function Max -> 0 | Or_metric -> 1

let save_to_writer t w =
  S.Writer.add_ints w "meta"
    [|
      t.n;
      t.max_short;
      backend_tag t.backend;
      ladder_tag t.cfg.ladder;
      metric_tag t.cfg.metric;
    |];
  Transform.save_parts w t.tr;
  S.Writer.add_ints_ba w "sa" t.sa;
  (match t.cfg.metric with
  | Max ->
      Array.iteri
        (fun i b -> S.Writer.add_bits w (Printf.sprintf "dead.%d" (i + 1)) b)
        t.dead
  | Or_metric ->
      Array.iteri
        (fun i a ->
          S.Writer.add_floats_ba w (Printf.sprintf "stored.%d" (i + 1)) a)
        t.stored);
  S.Writer.add_ints w "ladder.sizes" t.ladder_sizes;
  Array.iteri
    (fun i a -> S.Writer.add_floats_ba w (Printf.sprintf "ladder.max.%d" (i + 1)) a)
    t.ladder_max;
  Array.iteri
    (fun i r ->
      Rmq_block.save_parts w ~prefix:(Printf.sprintf "rmq.level.%d" (i + 1)) r)
    t.level_rmq;
  Array.iteri
    (fun i r ->
      Rmq_block.save_parts w ~prefix:(Printf.sprintf "rmq.ladder.%d" (i + 1)) r)
    t.ladder_rmq;
  match t.search with
  | Buckets _ -> ()
  | Fm fm -> Pti_succinct.Fm_index.save_parts w ~prefix:"fm" fm

let save ?extra t path =
  let w = S.Writer.create path in
  save_to_writer t w;
  (match extra with None -> () | Some f -> f w);
  S.Writer.close w

(* Tag [i] of an engine's "meta" section, checked to lie in [0, n). *)
let meta_tag meta i what n =
  let fail reason = raise (S.Corrupt { section = "meta"; reason }) in
  if S.Ints.length meta <> 5 then fail "engine meta has wrong arity";
  let k = S.Ints.get meta i in
  if k < 0 || k >= n then fail (Printf.sprintf "unknown %s tag %d" what k);
  k

let backend_of_meta meta = [| Packed; Succinct |].(meta_tag meta 2 "backend" 2)

let describe_range_search r =
  match backend_of_meta (S.Reader.ints r "meta") with
  | Succinct -> "fm (stored)"
  | Packed ->
      describe_search (buckets (Transform.text_storage (Transform.open_parts r)))
      ^ " (derived at open, not stored)"

let open_reader ~key_of_pos r =
  (* Layouts this code no longer reads are refused before anything else
     is decoded. A "cfg" section is the marshalled config record of
     containers that also held Fischer–Heun RMQs or block RMQs without
     stored block maxima; its record shape is not this one. *)
  if S.Reader.has r "st" then S.retired "st" "a suffix-tree range-search index";
  if S.Reader.has r "fm" then S.retired "fm" "a marshalled FM-index";
  let meta = S.Reader.ints r "meta" in
  if S.Ints.length meta = 2 then S.retired "meta" "a pre-backend engine";
  if S.Reader.has r "cfg" then S.retired "cfg" "an engine with a marshalled config";
  let backend = backend_of_meta meta in
  let tag = meta_tag meta in
  let n = S.Ints.get meta 0 and max_short = S.Ints.get meta 1 in
  let cfg =
    {
      ladder = [| Ladder_geometric; Ladder_full; Ladder_none |].(tag 3 "ladder" 3);
      metric = [| Max; Or_metric |].(tag 4 "metric" 2);
    }
  in
  let tr = Transform.open_parts r in
  let text = Transform.text_storage tr in
  let pos = Transform.pos_storage tr in
  if S.Ints.length text <> n then
    raise
      (S.Corrupt
         {
           section = "meta";
           reason =
             Printf.sprintf "text length %d does not match declared N=%d"
               (S.Ints.length text) n;
         });
  let sa = S.Reader.ints r "sa" in
  if S.Ints.length sa <> n then
    raise
      (S.Corrupt { section = "sa"; reason = "suffix array length mismatch with N" });
  let dead, stored =
    match cfg.metric with
    | Max ->
        ( Array.init max_short (fun i ->
              S.Reader.bits r (Printf.sprintf "dead.%d" (i + 1))),
          [||] )
    | Or_metric ->
        ( [||],
          Array.init max_short (fun i ->
              S.Reader.floats r (Printf.sprintf "stored.%d" (i + 1))) )
  in
  let ladder_sizes = S.Ints.to_array (S.Reader.ints r "ladder.sizes") in
  let ladder_max =
    Array.init (Array.length ladder_sizes) (fun i ->
        S.Reader.floats r (Printf.sprintf "ladder.max.%d" (i + 1)))
  in
  let slot_value j len = slot_value_raw ~tr ~pos ~sa ~n j len in
  let level_value =
    make_level_value ~metric:cfg.metric ~dead ~stored ~slot_value
  in
  let level_rmq =
    Array.init max_short (fun i ->
        Rmq_block.open_parts r
          ~prefix:(Printf.sprintf "rmq.level.%d" (i + 1))
          ~value:(level_value (i + 1)))
  in
  let ladder_rmq =
    Array.init (Array.length ladder_sizes) (fun i ->
        Rmq_block.open_parts r
          ~prefix:(Printf.sprintf "rmq.ladder.%d" (i + 1))
          ~value:(S.Floats.get ladder_max.(i)))
  in
  let search =
    match backend with
    | Succinct -> Fm (Pti_succinct.Fm_index.open_parts r ~prefix:"fm")
    | Packed -> buckets text
  in
  {
    tr;
    cfg;
    backend;
    key_of_pos;
    text;
    pos;
    sa;
    n;
    max_short;
    dead;
    stored;
    level_rmq;
    ladder_sizes;
    ladder_rmq;
    ladder_max;
    search;
  }

let load ?verify ~key_of_pos path =
  open_reader ~key_of_pos (S.Reader.open_file ?verify path)
