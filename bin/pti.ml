(* pti — command-line driver for probabilistic threshold indexing.

   Subcommands:
     gen     generate a synthetic uncertain-string dataset (§8.1)
     build   build an index and persist it to disk
     query   substring search in an uncertain string (Problem 1)
     list    uncertain string listing over a collection (Problem 2)
     stats   transformation / index statistics
     worlds  enumerate possible worlds of a small uncertain string

     serve   serve saved indexes over TCP (DESIGN.md §10)
     loadgen drive a running server with a reproducible query mix

   Dataset files contain one uncertain string per line in the
   Ustring.parse format ("A:.3,B:.7 C D:.5,E:.5 ..."). A single-line
   file is one string; a multi-line file is a collection. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp
module D = Pti_workload.Dataset
module G = Pti_core.General_index
module Si = Pti_core.Simple_index
module A = Pti_core.Approx_index
module L = Pti_core.Listing_index

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
        let line = String.trim line in
        go (if line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let read_docs path =
  match List.map U.parse (read_lines path) with
  | [] -> failwith (path ^ ": empty dataset")
  | docs -> docs

let read_single path =
  match read_docs path with
  | [ u ] -> u
  | docs ->
      (* multi-line file: concatenate (no separators) *)
      fst (U.concat ~sep:None docs)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* User errors (τ < τ_min, bad pattern symbols, unknown kinds, corrupt
   files) exit 2 with a one-line message instead of cmdliner's
   uncaught-exception backtrace; a failed system call (a full disk, an
   I/O error, an injected failpoint) exits 3 the same way. The server
   maps the same conditions to typed error replies; the CLI maps them
   to an exit code. *)
let run_checked f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Printf.eprintf "pti: %s\n" msg;
      exit 2
  | Pti_storage.Corrupt { section; reason } ->
      Printf.eprintf "pti: corrupt index (section %s): %s\n" section reason;
      exit 2
  | Unix.Unix_error (e, call, arg) ->
      Printf.eprintf "pti: %s%s failed: %s\n" call
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 3

(* ------------------------------------------------------------------ *)
(* gen *)

let gen total theta docs seed output =
  let params = { (D.default ~total ~theta) with seed } in
  let collection = D.collection params in
  let lines =
    if docs then List.map U.to_text collection
    else [ U.to_text (fst (U.concat ~sep:None collection)) ]
  in
  let oc = match output with "-" -> stdout | p -> open_out p in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  if output <> "-" then close_out oc;
  Printf.eprintf "wrote %d position(s) in %d string(s) to %s\n" total
    (List.length lines) output

(* ------------------------------------------------------------------ *)
(* query *)

let print_hits hits =
  if hits = [] then print_endline "no occurrence above the threshold"
  else
    List.iter
      (fun (pos, p) -> Printf.printf "%d\t%s\n" pos (Logp.to_string p))
      hits

let build_cmd_impl input output tau_min docs_mode relevance backend =
  run_checked @@ fun () ->
  let backend =
    match Pti_core.Engine.backend_of_string backend with
    | Some b -> b
    | None -> failwith ("unknown backend: " ^ backend ^ " (packed or succinct)")
  in
  if docs_mode then begin
    let docs = read_docs input in
    let rel = if relevance = "or" then L.Rel_or else L.Rel_max in
    let l, built =
      time (fun () -> L.build ~relevance:rel ~backend ~tau_min docs)
    in
    L.save l output;
    Printf.eprintf "listing index (%d docs, %s) built in %.3fs, saved to %s\n"
      (L.n_docs l)
      (Pti_core.Engine.backend_to_string backend)
      built output
  end
  else begin
    let u = read_single input in
    let g, built = time (fun () -> G.build ~backend ~tau_min u) in
    G.save g output;
    Printf.eprintf "index (%s) built in %.3fs (%s), saved to %s\n"
      (Pti_core.Engine.backend_to_string backend)
      built
      (Pti_core.Space.bytes_to_string (G.size_bytes g))
      output
  end

let query input load pattern tau tau_min index_kind epsilon top =
  run_checked @@ fun () ->
  match load with
  | Some path ->
      let g, loaded = time (fun () -> G.load path) in
      Printf.eprintf "index loaded in %.3fs\n" loaded;
      let pat = Sym.of_string pattern in
      let hits, elapsed =
        match top with
        | Some k -> time (fun () -> G.query_top_k g ~pattern:pat ~tau ~k)
        | None -> time (fun () -> G.query g ~pattern:pat ~tau)
      in
      Printf.eprintf "query answered in %.6fs\n" elapsed;
      print_hits hits
  | None ->
  let u = read_single (Option.get input) in
  let pat = Sym.of_string pattern in
  let truncate hits =
    match top with
    | None -> hits
    | Some k -> List.filteri (fun i _ -> i < k) hits
  in
  let hits, elapsed =
    match index_kind with
    | "exact" ->
        let g, built = time (fun () -> G.build ~tau_min u) in
        Printf.eprintf "exact index built in %.3fs (%s)\n" built
          (Pti_core.Space.to_string (G.size_words g));
        (match top with
        | Some k -> time (fun () -> G.query_top_k g ~pattern:pat ~tau ~k)
        | None -> time (fun () -> G.query g ~pattern:pat ~tau))
    | "simple" ->
        let s, built = time (fun () -> Si.build ~tau_min u) in
        Printf.eprintf "simple index built in %.3fs\n" built;
        let r, e = time (fun () -> Si.query s ~pattern:pat ~tau) in
        (truncate r, e)
    | "approx" ->
        let a, built = time (fun () -> A.build ~epsilon ~tau_min u) in
        Printf.eprintf "approximate index built in %.3fs (%d links)\n" built
          (A.n_links a);
        let r, e = time (fun () -> A.query a ~pattern:pat ~tau) in
        (truncate r, e)
    | "hsv" ->
        let a, built =
          time (fun () -> Pti_core.Approx_hsv.build ~epsilon ~tau_min u)
        in
        Printf.eprintf "hsv approximate index built in %.3fs (%d links)\n"
          built
          (Pti_core.Approx_hsv.n_links a);
        let r, e = time (fun () -> Pti_core.Approx_hsv.query a ~pattern:pat ~tau) in
        (truncate r, e)
    | "property" ->
        let p, built =
          time (fun () -> Pti_core.Property_index.build ~tau_c:tau u)
        in
        Printf.eprintf "property index (tau_c=%g) built in %.3fs\n" tau built;
        let r, e = time (fun () -> Pti_core.Property_index.query p ~pattern:pat) in
        (truncate r, e)
    | "oracle" ->
        let r, e =
          time (fun () ->
              Pti_ustring.Oracle.occurrences u ~pattern:pat
                ~tau:(Logp.of_prob tau))
        in
        (truncate r, e)
    | other -> failwith ("unknown index kind: " ^ other)
  in
  Printf.eprintf "query answered in %.6fs\n" elapsed;
  print_hits hits

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd input load pattern tau tau_min relevance =
  run_checked @@ fun () ->
  let l =
    match load with
    | Some path ->
        let l, loaded = time (fun () -> L.load path) in
        Printf.eprintf "listing index (%d docs) loaded in %.3fs\n" (L.n_docs l)
          loaded;
        l
    | None ->
        let docs = read_docs (Option.get input) in
        let rel =
          match relevance with
          | "max" -> L.Rel_max
          | "or" -> L.Rel_or
          | other -> failwith ("unknown relevance metric: " ^ other)
        in
        let l, built = time (fun () -> L.build ~relevance:rel ~tau_min docs) in
        Printf.eprintf "listing index over %d document(s) built in %.3fs\n"
          (L.n_docs l) built;
        l
  in
  let hits, elapsed =
    time (fun () -> L.query l ~pattern:(Sym.of_string pattern) ~tau)
  in
  Printf.eprintf "query answered in %.6fs\n" elapsed;
  if hits = [] then print_endline "no document above the threshold"
  else
    List.iter
      (fun (doc, p) -> Printf.printf "%d\t%s\n" doc (Logp.to_string p))
      hits

(* ------------------------------------------------------------------ *)
(* stats *)

module S = Pti_storage

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Section table of a saved container: name, kind, element width,
   sentinel bias, bytes, element count, checksum status. *)
let container_stats path =
  let r = S.Reader.open_file ~verify:false path in
  let infos = S.Reader.table r in
  let payload =
    List.fold_left (fun a i -> a + i.S.Reader.si_bytes) 0 infos
  in
  let file_bytes = (Unix.stat path).Unix.st_size in
  Printf.printf "container:  %s  %s\n" (String.trim S.magic) path;
  Printf.printf "sections:   %d  (%s payload, %s file)\n" (List.length infos)
    (Pti_core.Space.bytes_to_string payload)
    (Pti_core.Space.bytes_to_string file_bytes);
  (* engine containers: backend kind + space-per-position summary *)
  (if S.Reader.has r "meta" then
     let meta = S.Reader.ints r "meta" in
     if S.Ints.length meta >= 3 then begin
       let n = S.Ints.get meta 0 in
       let backend =
         match S.Ints.get meta 2 with
         | 0 -> "packed"
         | 1 -> "succinct"
         | k -> Printf.sprintf "unknown(%d)" k
       in
       Printf.printf "backend:    %s  (%.2f words/position over %d positions)\n"
         backend
         (Pti_core.Space.words_per_position ~bytes:file_bytes ~positions:n)
         n;
       if S.Ints.get meta 2 = 0 || S.Ints.get meta 2 = 1 then
         Printf.printf "range:      %s\n"
           (try Pti_core.Engine.describe_range_search r
            with S.Corrupt { section; _ } ->
              Printf.sprintf "unavailable (corrupt section %s)" section)
     end);
  Printf.printf "%-22s %-7s %5s %4s %12s %12s  %s\n" "name" "kind" "width"
    "bias" "bytes" "elems" "checksum";
  List.iter
    (fun i ->
      Printf.printf "%-22s %-7s %5d %4d %12d %12d  %s\n" i.S.Reader.si_name
        i.S.Reader.si_kind i.S.Reader.si_width i.S.Reader.si_bias
        i.S.Reader.si_bytes i.S.Reader.si_elems
        (if i.S.Reader.si_checksum_ok then "ok" else "FAILED"))
    infos

let dataset_stats input tau_min =
  let u = read_single input in
  Printf.printf "positions:      %d\n" (U.length u);
  Printf.printf "choices:        %d (max %d per position)\n" (U.n_choices u)
    (U.max_choices u);
  Printf.printf "uncertainty:    %.3f\n" (D.uncertainty u);
  Printf.printf "special:        %b\n" (U.is_special u);
  let tr, t = time (fun () -> Pti_transform.Transform.build ~tau_min u) in
  Printf.printf "transform:      %s (%.3fs)\n"
    (Pti_transform.Transform.stats tr) t;
  let g, t = time (fun () -> G.build ~tau_min u) in
  Printf.printf "index:          built in %.3fs\n" t;
  Printf.printf "index size:     %s\n"
    (Pti_core.Space.bytes_to_string (G.size_bytes g));
  Printf.printf "engine:         %s\n" (Pti_core.Engine.stats (G.engine g))

let container_stats_json path =
  let r = S.Reader.open_file ~verify:false path in
  let infos = S.Reader.table r in
  let payload = List.fold_left (fun a i -> a + i.S.Reader.si_bytes) 0 infos in
  let file_bytes = (Unix.stat path).Unix.st_size in
  let sections =
    String.concat ","
      (List.map
         (fun i ->
           Printf.sprintf
             {|{"name":%s,"kind":%s,"width":%d,"bias":%d,"bytes":%d,"elems":%d,"checksum_ok":%b}|}
             (json_str i.S.Reader.si_name)
             (json_str i.S.Reader.si_kind)
             i.S.Reader.si_width i.S.Reader.si_bias i.S.Reader.si_bytes
             i.S.Reader.si_elems i.S.Reader.si_checksum_ok)
         infos)
  in
  Printf.printf
    {|{"container":%s,"path":%s,"payload_bytes":%d,"file_bytes":%d,"sections":[%s]}|}
    (json_str (String.trim S.magic)) (json_str path) payload file_bytes sections;
  print_newline ()

(* Shared by [pti stats DIR] and [pti corpus stats DIR]. *)
let corpus_stats ~json dir =
  let s = Pti_segment.Segment_store.open_dir ~read_only:true dir in
  let module St = Pti_segment.Segment_store in
  let st = St.stats s in
  if json then begin
    Printf.printf
      {|{"dir":%s,"generation":%d,"segments":%d,"segment_bytes":%d,"memtable_docs":%d,"memtable_bytes":%d,"live_docs":%d,"tombstones":%d,"tombstone_ratio":%.6f,"next_doc_id":%d,"degraded_segments":%d,"wal_records":%d,"wal_bytes":%d}|}
      (json_str dir) st.St.st_generation st.St.st_segments st.St.st_segment_bytes
      st.St.st_memtable_docs st.St.st_memtable_bytes st.St.st_live_docs
      st.St.st_tombstones (St.tombstone_ratio st) st.St.st_next_doc_id
      st.St.st_degraded_segments st.St.st_wal_records st.St.st_wal_bytes;
    print_newline ()
  end
  else begin
    Printf.printf "corpus:         %s\n" dir;
    Printf.printf "generation:     %d\n" st.St.st_generation;
    Printf.printf "segments:       %d (%s)\n" st.St.st_segments
      (Pti_core.Space.bytes_to_string st.St.st_segment_bytes);
    Printf.printf "live docs:      %d\n" st.St.st_live_docs;
    Printf.printf "tombstones:     %d (ratio %.3f)\n" st.St.st_tombstones
      (St.tombstone_ratio st);
    Printf.printf "memtable:       %d doc(s)\n" st.St.st_memtable_docs;
    Printf.printf "next doc id:    %d\n" st.St.st_next_doc_id;
    if st.St.st_degraded_segments > 0 then
      Printf.printf "DEGRADED:       %d quarantined segment(s)\n"
        st.St.st_degraded_segments;
    Printf.printf "wal:            %d record(s), %s\n" st.St.st_wal_records
      (Pti_core.Space.bytes_to_string st.St.st_wal_bytes)
  end

let stats index_file input tau_min json =
  run_checked @@ fun () ->
  match (index_file, input) with
  | Some path, _ ->
      if Sys.is_directory path then corpus_stats ~json path
      else if json then container_stats_json path
      else container_stats path
  | None, Some input ->
      if json then begin
        let u = read_single input in
        let g, built = time (fun () -> G.build ~tau_min u) in
        Printf.printf
          {|{"positions":%d,"choices":%d,"max_choices":%d,"uncertainty":%.6f,"special":%b,"build_seconds":%.6f,"index_bytes":%d}|}
          (U.length u) (U.n_choices u) (U.max_choices u) (D.uncertainty u)
          (U.is_special u) built (G.size_bytes g);
        print_newline ()
      end
      else dataset_stats input tau_min
  | None, None ->
      failwith "stats: pass an INDEX_FILE argument or a dataset via -i"

(* ------------------------------------------------------------------ *)
(* worlds *)

let worlds input limit =
  run_checked @@ fun () ->
  let u = read_single input in
  let ws = Pti_ustring.Worlds.enumerate ~limit u in
  List.iter
    (fun (w, p) -> Printf.printf "%s\t%s\n" (Sym.to_string w) (Logp.to_string p))
    ws;
  Printf.eprintf "%d possible world(s)\n" (List.length ws)

(* ------------------------------------------------------------------ *)
(* corpus — mutate/inspect a dynamic segment directory (DESIGN.md §15) *)

let corpus_cmd_impl action dir input doc_id tau_min relevance backend mem_max
    wal_sync scrub_mb_s json =
  run_checked @@ fun () ->
  let module St = Pti_segment.Segment_store in
  let wal_sync =
    match St.wal_sync_of_string wal_sync with
    | w -> w
    | exception Failure _ ->
        failwith
          ("bad --wal-sync " ^ wal_sync ^ " (always, interval:MS or never)")
  in
  if Float.is_nan scrub_mb_s || scrub_mb_s < 0.0 then
    failwith "corpus: --scrub-mb-s must be >= 0";
  match action with
  | "init" ->
      let relevance =
        match relevance with
        | "max" -> L.Rel_max
        | "or" -> L.Rel_or
        | other -> failwith ("unknown relevance metric: " ^ other)
      in
      let backend =
        match Pti_core.Engine.backend_of_string backend with
        | Some b -> b
        | None ->
            failwith ("unknown backend: " ^ backend ^ " (packed or succinct)")
      in
      let config =
        {
          (St.default_config ~tau_min) with
          relevance;
          backend;
          memtable_max_docs = mem_max;
        }
      in
      let s = St.create ~config ~wal_sync dir in
      Printf.eprintf "initialized corpus %s (generation %d)\n" dir
        (St.generation s)
  | "insert" ->
      let input =
        match input with
        | Some i -> i
        | None -> failwith "corpus insert: pass a dataset via -i"
      in
      let docs = read_docs input in
      let s = St.open_dir ~wal_sync dir in
      let ids = List.map (St.insert s) docs in
      (* seal so the documents land in an immutable segment right away
         (they would survive in the write-ahead log regardless, but a
         one-shot CLI insert should leave a compact corpus, not a
         replay-pending log) *)
      ignore (St.seal s : bool);
      List.iter (fun id -> Printf.printf "%d\n" id) ids;
      Printf.eprintf "inserted %d document(s) into %s (generation %d)\n"
        (List.length ids) dir (St.generation s)
  | "delete" ->
      let id =
        match doc_id with
        | Some id -> id
        | None -> failwith "corpus delete: pass --id"
      in
      let s = St.open_dir ~wal_sync dir in
      if St.delete s id then
        Printf.eprintf "deleted document %d (generation %d)\n" id
          (St.generation s)
      else begin
        Printf.eprintf "document %d not found or already dead\n" id;
        exit 1
      end
  | "flush" ->
      let s = St.open_dir ~wal_sync dir in
      if St.seal s then
        Printf.eprintf "sealed memtable (generation %d)\n" (St.generation s)
      else Printf.eprintf "memtable empty; nothing to flush\n"
  | "compact" ->
      let s = St.open_dir ~wal_sync dir in
      let did, elapsed = time (fun () -> St.compact ~force:true s) in
      if did then
        Printf.eprintf "compacted %s to generation %d in %.3fs\n" dir
          (St.generation s) elapsed
      else Printf.eprintf "nothing to compact\n"
  | "scrub" ->
      (* open WITHOUT per-container verification: a corrupt segment
         must not stop the store from opening — finding and evicting it
         is exactly this command's job *)
      let s = St.open_dir ~verify:false ~wal_sync dir in
      let r, elapsed = time (fun () -> St.scrub ~budget_mb_s:scrub_mb_s s) in
      Printf.eprintf
        "scrubbed %d segment(s), %s in %.3fs: %d corrupt, %d quarantined, %d \
         io error(s)\n"
        r.St.sc_scanned
        (Pti_core.Space.bytes_to_string r.St.sc_bytes)
        elapsed
        (List.length r.St.sc_corrupt)
        r.St.sc_quarantined r.St.sc_io_errors;
      List.iter
        (fun (seg, section) ->
          Printf.eprintf "  %s: corrupt section %s -> %s/\n" seg section
            St.quarantine_dir_name)
        r.St.sc_corrupt;
      if r.St.sc_quarantined > 0 then
        Printf.eprintf
          "run `pti corpus compact %s` to rewrite the survivors into a clean \
           corpus\n"
          dir;
      if r.St.sc_corrupt <> [] || r.St.sc_io_errors > 0 then exit 1
  | "stats" -> corpus_stats ~json dir
  | other ->
      failwith
        ("unknown corpus action: " ^ other
       ^ " (init, insert, delete, flush, compact, scrub or stats)")

(* ------------------------------------------------------------------ *)
(* serve / loadgen *)

module Server = Pti_server.Server
module Loadgen = Pti_server.Loadgen
module Ec = Pti_server.Engine_cache
module SP = Pti_server.Protocol
module Store = Pti_segment.Segment_store

let serve indexes corpora host port workers queue_cap deadline_ms cache_cap
    no_verify debug_slow send_timeout_ms drain_timeout_ms max_conns
    max_json_line batch_max result_cache_mb no_result_cache
    compact_interval_ms wal_sync scrub_interval_ms scrub_mb_s warmup_ms =
  run_checked @@ fun () ->
  if indexes = [] && corpora = [] then
    failwith "serve: pass at least one index file or --corpus directory";
  if max_conns < 1 then failwith "serve: --max-conns must be >= 1";
  if max_json_line < 64 then failwith "serve: --max-json-line must be >= 64";
  if batch_max < 1 then failwith "serve: --batch-max must be >= 1";
  if result_cache_mb < 0 then
    failwith "serve: --result-cache-mb must be >= 0";
  if Float.is_nan compact_interval_ms || compact_interval_ms < 0.0 then
    failwith "serve: --compact-interval-ms must be >= 0 (0 disables)";
  if Float.is_nan scrub_interval_ms || scrub_interval_ms < 0.0 then
    failwith "serve: --scrub-interval-ms must be >= 0 (0 disables)";
  if Float.is_nan scrub_mb_s || scrub_mb_s < 0.0 then
    failwith "serve: --scrub-mb-s must be >= 0 (0 = unthrottled)";
  if Float.is_nan warmup_ms || warmup_ms < 0.0 then
    failwith "serve: --warmup-ms must be >= 0 (0 disables)";
  let wal_sync =
    match Store.wal_sync_of_string wal_sync with
    | w -> w
    | exception Failure _ ->
        failwith
          ("serve: bad --wal-sync " ^ wal_sync
         ^ " (always, interval:MS or never)")
  in
  let config =
    {
      Server.host;
      port;
      workers =
        (match workers with Some w -> w | None -> Pti_parallel.num_domains ());
      queue_cap;
      deadline_ms;
      cache_cap;
      verify = not no_verify;
      debug_slow;
      send_timeout_ms;
      drain_timeout_ms;
      max_conns;
      max_json_line;
      batch_max;
      result_cache_mb = (if no_result_cache then 0 else result_cache_mb);
      compact_interval_ms;
      scrub_interval_ms;
      scrub_mb_s;
    }
  in
  (* corpus directories follow the index files in the id space, so
     existing position-addressed clients are unaffected by --corpus *)
  let sources =
    List.map (fun p -> Server.Source_file p) indexes
    @ List.map
        (fun dir ->
          Server.Source_corpus
            (Store.open_dir ~verify:(not no_verify) ~wal_sync dir))
        corpora
  in
  (* Warmup prefault: walk each index container's checksums before
     accepting traffic, so the first queries hit warm page cache
     instead of paying cold mmap faults. Best effort and bounded by
     the deadline — a huge corpus just gets a partial prefault. *)
  if warmup_ms > 0.0 then begin
    let deadline = Unix.gettimeofday () +. (warmup_ms /. 1000.0) in
    let prefault path =
      if Unix.gettimeofday () < deadline then
        try ignore (S.Reader.open_file ~verify:true path : S.Reader.t)
        with _ -> ()
    in
    List.iter prefault indexes;
    List.iter
      (fun dir ->
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".pti" then
              prefault (Filename.concat dir name))
          (try Sys.readdir dir with Sys_error _ -> [||]))
      corpora
  end;
  let srv = Server.create ~config sources in
  (* the port line is machine-read by serve_smoke.sh; keep its shape *)
  Printf.printf "pti-serve: listening on %s:%d (%d workers, queue %d, \
                 deadline %.0f ms, %d index(es))\n%!"
    host (Server.port srv) config.workers config.queue_cap config.deadline_ms
    (List.length indexes + List.length corpora);
  let stop_handler _ = Server.stop srv in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_handler);
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Server.request_stats_dump srv));
  Sys.set_signal Sys.sighup
    (Sys.Signal_handle (fun _ -> Server.request_reload srv));
  Server.run srv;
  Printf.eprintf "pti-serve: final stats %s\n" (Server.stats_json srv)

(* Byte-for-byte verification for [loadgen --verify]: open the served
   index files locally (in the same position order as [pti serve]) and
   recompute every reply with a direct engine query. Floats travel as
   raw IEEE-754 bits, so equality is exact. A directory argument opens
   a segment corpus read-only; on a mismatch the corpus reloads its
   manifest and recomputes once, so a concurrent compaction or an
   externally committed delete (both answer-preserving or
   generation-bumping) never reads as a false verification failure. *)
type verify_backend = V_engine of Ec.handle | V_corpus of Store.t

let make_verifier files =
  let backends =
    Array.of_list
      (List.map
         (fun p ->
           if Sys.is_directory p then
             V_corpus (Store.open_dir ~read_only:true p)
           else V_engine (Ec.load_handle p))
         files)
  in
  let wire hits = List.map (fun (key, p) -> (key, Logp.to_log p)) hits in
  fun op reply ->
    let check index direct =
      index >= 0
      && index < Array.length backends
      &&
      match reply with
      | SP.Hits hs -> (
          match backends.(index) with
          | V_corpus s -> (
              match direct (`Corpus s) with
              | None -> false
              | Some want ->
                  hs = wire want
                  || begin
                       ignore (Store.reload s : bool);
                       match direct (`Corpus s) with
                       | Some want -> hs = wire want
                       | None -> false
                     end)
          | V_engine h -> (
              match direct (`Engine h) with
              | Some want -> hs = wire want
              | None -> false))
      | _ -> false
    in
    try
      match op with
      | SP.Query { index; pattern; tau } ->
          let pattern = Sym.of_string pattern in
          check index (function
            | `Engine (Ec.General g) -> Some (G.query g ~pattern ~tau)
            | `Engine (Ec.Listing l) -> Some (L.query l ~pattern ~tau)
            | `Corpus s -> Some (Store.query s ~pattern ~tau))
      | SP.Top_k { index; pattern; tau; k } ->
          let pattern = Sym.of_string pattern in
          check index (function
            | `Engine (Ec.General g) -> Some (G.query_top_k g ~pattern ~tau ~k)
            | `Engine (Ec.Listing l) -> Some (L.query_top_k l ~pattern ~tau ~k)
            | `Corpus s -> Some (Store.query_top_k s ~pattern ~tau ~k))
      | SP.Listing { index; pattern; tau } ->
          let pattern = Sym.of_string pattern in
          check index (function
            | `Engine (Ec.Listing l) -> Some (L.query l ~pattern ~tau)
            | `Engine (Ec.General _) -> None
            | `Corpus s -> Some (Store.query s ~pattern ~tau))
      | SP.Insert _ | SP.Delete _ | SP.Flush _ -> (
          (* mutations have no local replay; accept any well-formed ack *)
          match reply with SP.Ack _ -> true | _ -> false)
      | SP.Stats | SP.Ping | SP.Slow _ -> true
    with _ -> false

let loadgen input host port concurrency duration requests mix seed tau lengths
    index listing_index k check verify_files retry backoff_ms warmup_ms
    pattern_pool =
  run_checked @@ fun () ->
  let u = read_single input in
  let mix =
    match mix with
    | Some spec -> Loadgen.mix_of_string spec
    | None -> Loadgen.default_mix ~listing_index
  in
  if warmup_ms < 0.0 then failwith "loadgen: --warmup-ms must be >= 0";
  (match pattern_pool with
  | Some n when n < 1 -> failwith "loadgen: --pattern-pool must be >= 1"
  | _ -> ());
  let lengths =
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some v -> v
        | None -> failwith ("loadgen: bad pattern length " ^ s))
      (String.split_on_char ',' lengths)
  in
  (* with a per-client request budget the duration only bounds
     stragglers; 0 = "auto" keeps budgeted runs deterministic *)
  let duration_s =
    if duration > 0.0 then duration
    else match requests with Some _ -> infinity | None -> 1.0
  in
  let verify =
    match verify_files with [] -> None | files -> Some (make_verifier files)
  in
  let r =
    Loadgen.run ~host ~port ~concurrency ~duration_s
      ?requests_per_client:requests ~warmup_s:(warmup_ms /. 1000.0)
      ?pattern_pool ?verify ~index ?listing_index ~k ~lengths ~tau ~seed
      ~retries:retry ~backoff_ms ~mix ~source:u ()
  in
  print_string (Loadgen.summary r);
  let failures =
    List.fold_left (fun a (_, n) -> a + n) 0 r.Loadgen.errors
    + r.Loadgen.protocol_failures + r.Loadgen.verify_failures
  in
  if check && failures > 0 then begin
    Printf.eprintf "pti-loadgen: %d failure(s) with --check\n" failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing *)

open Cmdliner

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input dataset file.")

let input_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input dataset file.")

let load_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Load a previously built index instead of building from a \
              dataset.")

let tau_arg =
  Arg.(
    value & opt float 0.2
    & info [ "tau" ] ~docv:"TAU" ~doc:"Query probability threshold τ.")

let tau_min_arg =
  Arg.(
    value & opt float 0.1
    & info [ "tau-min" ] ~docv:"TAU_MIN"
        ~doc:"Construction-time threshold τ_min (queries need τ ≥ τ_min).")

let pattern_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc:"Deterministic query string.")

let gen_cmd =
  let total =
    Arg.(value & opt int 10_000 & info [ "total" ] ~doc:"Total positions n.")
  in
  let theta =
    Arg.(
      value & opt float 0.3
      & info [ "theta" ] ~doc:"Fraction of uncertain positions (0..1).")
  in
  let docs =
    Arg.(
      value & flag
      & info [ "docs" ]
          ~doc:"Write one string per line (collection) instead of one line.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let output =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (- = stdout).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic uncertain dataset (§8.1).")
    Term.(const gen $ total $ theta $ docs $ seed $ output)

let query_cmd =
  let index_kind =
    Arg.(
      value & opt string "exact"
      & info [ "index" ] ~docv:"KIND"
          ~doc:"Index to use: exact, simple, approx, hsv, property or oracle.")
  in
  let epsilon =
    Arg.(
      value & opt float 0.05
      & info [ "epsilon" ] ~doc:"Additive error for the approximate index.")
  in
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"K" ~doc:"Report only the K most probable answers.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Substring search in an uncertain string.")
    Term.(
      const query $ input_opt_arg $ load_arg $ pattern_arg $ tau_arg
      $ tau_min_arg $ index_kind $ epsilon $ top)

let build_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Index file to write.")
  in
  let docs_mode =
    Arg.(
      value & flag
      & info [ "docs" ] ~doc:"Build a listing index over the file's lines.")
  in
  let relevance =
    Arg.(
      value & opt string "max"
      & info [ "relevance" ] ~doc:"Relevance metric for --docs: max or or.")
  in
  let backend =
    Arg.(
      value & opt string "packed"
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Range search and with it the persisted layout: $(b,packed) \
             (suffix-array binary search over the text; the smaller \
             container) or $(b,succinct) (FM-index backward search; adds \
             the BWT's wavelet tree). Both store the same signature block \
             RMQs.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an index and persist it to disk.")
    Term.(
      const build_cmd_impl $ input_arg $ output $ tau_min_arg $ docs_mode
      $ relevance $ backend)

let list_cmdliner =
  let relevance =
    Arg.(
      value & opt string "max"
      & info [ "relevance" ] ~docv:"METRIC" ~doc:"Relevance metric: max or or.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List documents containing the pattern (Problem 2).")
    Term.(
      const list_cmd $ input_opt_arg $ load_arg $ pattern_arg $ tau_arg
      $ tau_min_arg $ relevance)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let stats_cmd =
  let index_file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"INDEX_FILE"
          ~doc:
            "Saved index container: print its section table (name, kind, \
             width, bytes, checksum status) instead of dataset statistics. A \
             corpus directory prints its manifest/segment statistics.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Transformation/index statistics of a dataset (-i), the section \
          table of a saved index container, or the segment statistics of a \
          corpus directory (positional INDEX_FILE).")
    Term.(const stats $ index_file $ input_opt_arg $ tau_min_arg $ json_flag)

let corpus_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"One of $(b,init), $(b,insert), $(b,delete), $(b,flush), \
                $(b,compact), $(b,scrub), $(b,stats).")
  in
  let dir =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let doc_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "id" ] ~docv:"ID" ~doc:"Document id ($(b,delete)).")
  in
  let relevance =
    Arg.(
      value & opt string "max"
      & info [ "relevance" ] ~docv:"METRIC"
          ~doc:"Relevance metric at $(b,init): max or or.")
  in
  let backend =
    Arg.(
      value & opt string "packed"
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"Segment layout at $(b,init): packed or succinct.")
  in
  let mem_max =
    Arg.(
      value & opt int 256
      & info [ "memtable-max" ] ~docv:"N"
          ~doc:"Auto-seal threshold at $(b,init) (0 = only explicit flush).")
  in
  let wal_sync =
    Arg.(
      value & opt string "interval:5"
      & info [ "wal-sync" ] ~docv:"POLICY"
          ~doc:"Write-ahead-log fsync policy: $(b,always) (every \
                acknowledged mutation survives power loss), \
                $(b,interval:MS) (fsync at most every MS milliseconds) or \
                $(b,never). Unsealed documents survive a process crash \
                under any policy; the knob governs OS-crash/power-loss \
                durability only.")
  in
  let scrub_mb_s =
    Arg.(
      value & opt float 0.0
      & info [ "scrub-mb-s" ] ~docv:"MB_S"
          ~doc:"IO budget of $(b,scrub) in MB/s (0 = unthrottled).")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Manage a dynamic corpus directory: initialize it, insert documents \
          from a dataset file (sealed into a segment on exit), tombstone a \
          document, flush the memtable, force a full compaction, verify \
          every live segment's checksums (quarantining corrupt ones), or \
          print statistics. The same directory can be served live with pti \
          serve --corpus; a serving daemon picks up external compactions on \
          SIGHUP.")
    Term.(
      const corpus_cmd_impl $ action $ dir $ input_opt_arg $ doc_id
      $ tau_min_arg $ relevance $ backend $ mem_max $ wal_sync $ scrub_mb_s
      $ json_flag)

let worlds_cmd =
  let limit =
    Arg.(
      value & opt int 10_000
      & info [ "limit" ] ~doc:"Refuse to enumerate more worlds than this.")
  in
  Cmd.v
    (Cmd.info "worlds" ~doc:"Enumerate possible worlds of a small string.")
    Term.(const worlds $ input_arg $ limit)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind/connect to.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let serve_cmd =
  let indexes =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"INDEX_FILE"
          ~doc:"Saved index container(s); requests address them by position.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: available cores, PTI_DOMAINS aware).")
  in
  let queue_cap =
    Arg.(
      value & opt int 1024
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Bounded request queue; beyond it requests get overloaded \
                replies.")
  in
  let deadline_ms =
    Arg.(
      value & opt float 5000.0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Requests still queued after this long get timeout replies.")
  in
  let cache_cap =
    Arg.(
      value & opt int 8
      & info [ "cache-cap" ] ~docv:"N" ~doc:"LRU capacity for open engines.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ] ~doc:"Skip checksum verification on index load.")
  in
  let debug_slow =
    Arg.(
      value & flag
      & info [ "debug-slow" ]
          ~doc:"Accept the slow debug op (testing aid; off by default).")
  in
  let send_timeout_ms =
    Arg.(
      value & opt float 5000.0
      & info [ "send-timeout-ms" ] ~docv:"MS"
          ~doc:"Drop a client whose reply write stalls this long (0 \
                disables).")
  in
  let drain_timeout_ms =
    Arg.(
      value & opt float 5000.0
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:"On SIGTERM/SIGINT, let queued requests finish for this \
                long before answering the rest shutting_down.")
  in
  let max_conns =
    Arg.(
      value & opt int 4096
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; accepts beyond it are closed \
                immediately (counted as connections_shed). The epoll \
                loop has no FD_SETSIZE ceiling, so this may exceed 1024 \
                up to the process fd limit. Must be >= 1 (exit 2 \
                otherwise).")
  in
  let max_json_line =
    Arg.(
      value & opt int SP.max_json_line
      & info [ "max-json-line" ] ~docv:"BYTES"
          ~doc:"Longest accepted line of the newline-delimited JSON \
                fallback protocol; a connection exceeding it without a \
                newline is answered bad_request and closed. Must be >= \
                64 (exit 2 otherwise).")
  in
  let batch_max =
    Arg.(
      value & opt int 32
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Most queued requests a worker domain takes in one pop; \
                it runs them one by one and writes each connection's \
                replies together. Cheap queries never reach the queue: \
                the accept loop answers them. Must be >= 1 (exit 2 \
                otherwise).")
  in
  let result_cache_mb =
    Arg.(
      value & opt int 64
      & info [ "result-cache-mb" ] ~docv:"MIB"
          ~doc:"Byte budget of the server-side query-result cache \
                (encoded reply bodies keyed by index/op/pattern/τ/k, \
                admitted on a key's second sighting, single-flight herd \
                suppression; hits are byte-identical to direct engine \
                replies). 0 disables it; must be >= 0 \
                (exit 2 otherwise). The cache is flushed on SIGHUP \
                revalidation, so reloaded containers never serve stale \
                bytes.")
  in
  let no_result_cache =
    Arg.(
      value & flag
      & info [ "no-result-cache" ]
          ~doc:"Disable the query-result cache (same as \
                --result-cache-mb 0).")
  in
  let corpora =
    Arg.(
      value & opt_all dir []
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Serve a dynamic corpus directory read-write (repeatable): \
                queries scatter-gather across its memtable and segments, \
                and insert/delete/flush requests are accepted. Corpus ids \
                follow the index-file positions. SIGHUP re-reads each \
                manifest, picking up externally run compactions.")
  in
  let compact_interval_ms =
    Arg.(
      value & opt float 50.0
      & info [ "compact-interval-ms" ] ~docv:"MS"
          ~doc:"Poll period of the background compaction domain over \
                --corpus sources (0 disables background compaction; must \
                be >= 0, exit 2 otherwise). The same tick flushes each \
                corpus's write-ahead log under interval sync policies.")
  in
  let wal_sync =
    Arg.(
      value & opt string "interval:5"
      & info [ "wal-sync" ] ~docv:"POLICY"
          ~doc:"Write-ahead-log fsync policy for --corpus sources: \
                $(b,always), $(b,interval:MS) or $(b,never). Acknowledged \
                inserts/deletes survive a daemon crash under any policy; \
                the knob governs OS-crash/power-loss durability only \
                (see the durability matrix in the README).")
  in
  let scrub_interval_ms =
    Arg.(
      value & opt float 600_000.0
      & info [ "scrub-interval-ms" ] ~docv:"MS"
          ~doc:"Period of the background integrity scrubber over --corpus \
                sources (default 10 minutes; 0 disables; must be >= 0, \
                exit 2 otherwise). Each pass re-verifies every live \
                segment's checksums, quarantines corrupt segments and \
                read-repairs via compaction.")
  in
  let scrub_mb_s =
    Arg.(
      value & opt float 64.0
      & info [ "scrub-mb-s" ] ~docv:"MB_S"
          ~doc:"IO budget of a scrub pass in MB/s (0 = unthrottled; must \
                be >= 0, exit 2 otherwise).")
  in
  let warmup_ms =
    Arg.(
      value & opt float 0.0
      & info [ "warmup-ms" ] ~docv:"MS"
          ~doc:"Prefault index and segment pages (a bounded checksum walk) \
                for up to MS milliseconds before accepting traffic, so \
                first queries do not pay cold mmap faults (0 disables; \
                must be >= 0, exit 2 otherwise).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve saved indexes over TCP.")
    Term.(
      const serve $ indexes $ corpora $ host_arg $ port_arg ~default:7071
      $ workers $ queue_cap $ deadline_ms $ cache_cap $ no_verify $ debug_slow
      $ send_timeout_ms $ drain_timeout_ms $ max_conns $ max_json_line
      $ batch_max $ result_cache_mb $ no_result_cache $ compact_interval_ms
      $ wal_sync $ scrub_interval_ms $ scrub_mb_s $ warmup_ms)

let loadgen_cmd =
  let concurrency =
    Arg.(
      value & opt int 8
      & info [ "c"; "concurrency" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Run length (default 1s, or unbounded when --requests is set).")
  in
  let requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client (default: until \
                                            the duration elapses).")
  in
  let mix =
    Arg.(
      value
      & opt (some string) None
      & info [ "mix" ] ~docv:"SPEC"
          ~doc:"Relative op weights, e.g. query=8,topk=1,listing=1. Default: \
                query=8,topk=1, plus listing=1 when --listing-index is \
                given. An explicit listing weight without --listing-index \
                sends listings to --index.")
  in
  let seed =
    Arg.(
      value & opt int Pti_workload.Querygen.default_seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed (runs are reproducible).")
  in
  let lengths =
    Arg.(
      value & opt string "4,8"
      & info [ "lengths" ] ~docv:"M,M,..." ~doc:"Pattern lengths to draw from.")
  in
  let index =
    Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"I" ~doc:"Index id to target (serve position).")
  in
  let listing_index =
    Arg.(
      value
      & opt (some int) None
      & info [ "listing-index" ] ~docv:"I"
          ~doc:"Index id listing ops target (default: --index; set it when \
                the main index is not a listing container).")
  in
  let k =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"k for top-k requests.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit 1 if any request failed, errored, or (with --verify) \
                returned a response that differs from a direct engine \
                query.")
  in
  let verify_files =
    Arg.(
      value & opt_all file []
      & info [ "verify" ] ~docv:"INDEX_FILE"
          ~doc:"Load this index file locally and check every reply \
                byte-for-byte against a direct engine query. Repeat in \
                the same position order as the files passed to pti \
                serve. Without it, --check only detects error replies \
                and protocol failures.")
  in
  let retry =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:"Extra attempts per request on transport failures and \
                overloaded/timeout/shutting_down replies (reconnecting \
                as needed), with seeded exponential backoff.")
  in
  let backoff_ms =
    Arg.(
      value & opt float 50.0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry backoff; attempt a waits MS*2^a with ±50% \
                seeded jitter.")
  in
  let warmup_ms =
    Arg.(
      value & opt float 0.0
      & info [ "warmup-ms" ] ~docv:"MS"
          ~doc:"Discard measurements from the run's first MS \
                milliseconds: requests started inside the window are \
                excluded from sent/ok counts and the latency \
                percentiles, and throughput divides by the post-warmup \
                window only — connection setup and cold server caches \
                stop polluting steady-state rows. Correctness is never \
                discarded: warmup replies are still verified and their \
                failures always count. Must be >= 0 (exit 2 otherwise).")
  in
  let pattern_pool =
    Arg.(
      value
      & opt (some int) None
      & info [ "pattern-pool" ] ~docv:"N"
          ~doc:"Each client pre-draws N patterns from its seeded stream \
                and draws every request from that pool — a repetitive, \
                production-shaped workload (what gives the server's \
                result cache hits). Default: unlimited fresh patterns. \
                Must be >= 1 (exit 2 otherwise).")
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc:"Generate load against a running pti serve.")
    Term.(
      const loadgen $ input_arg $ host_arg $ port_arg ~default:7071
      $ concurrency $ duration $ requests $ mix $ seed $ tau_arg $ lengths
      $ index $ listing_index $ k $ check $ verify_files $ retry $ backoff_ms
      $ warmup_ms $ pattern_pool)

let () =
  let doc = "probabilistic threshold indexing for uncertain strings" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pti" ~version:"1.0.0" ~doc)
          [
            gen_cmd;
            build_cmd;
            query_cmd;
            list_cmdliner;
            stats_cmd;
            worlds_cmd;
            corpus_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))
