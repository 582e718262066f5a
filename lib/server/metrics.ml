(* Atomic counters + power-of-two latency histograms. Kind and error
   labels are small closed sets, so each lives in a fixed array indexed
   by label position; unknown labels fall into a trailing "other"
   slot rather than raising from a hot path. *)

let kinds =
  [|
    "query";
    "top_k";
    "listing";
    "stats";
    "ping";
    "slow";
    "insert";
    "delete";
    "flush";
    "seal";
    "compact";
    "other";
  |]
let errs =
  [|
    "bad_request";
    "bad_index";
    "overloaded";
    "timeout";
    "server_error";
    "shutting_down";
  |]

let index_of label table =
  let n = Array.length table in
  let rec go i = if i >= n - 1 then i else if table.(i) = label then i else go (i + 1) in
  go 0

let kind_index k = index_of k kinds
let err_index e = index_of e errs

(* Histogram buckets: bucket i counts values in (2^(i-1), 2^i]; bucket
   0 is <= 1. For latencies the unit is µs (28 buckets reach ~134 s);
   the queue-depth and batch-size histograms reuse the same buckets
   with the value itself as the unit. *)
let n_buckets = 28

let bucket_of_us us =
  let us = int_of_float us in
  if us <= 1 then 0
  else begin
    let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
    Stdlib.min (n_buckets - 1) (go 0 (us - 1) + 1)
  end

let bucket_upper_us i = Float.of_int (1 lsl i)

type hist = int Atomic.t array

type t = {
  started : float;
  received : int Atomic.t array; (* per kind *)
  ok : int Atomic.t array; (* per kind *)
  errors : int Atomic.t array; (* per err *)
  connections : int Atomic.t;
  connections_shed : int Atomic.t;
  dropped_replies : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  cache_open_failures : int Atomic.t;
  worker_deaths : int Atomic.t;
  accept_failures : int Atomic.t;
  reloads : int Atomic.t;
  max_queue_depth : int Atomic.t;
  queue_depth_hist : hist; (* depth observed at each enqueue *)
  batches : int Atomic.t; (* pop_batch rounds executed by workers *)
  batched_jobs : int Atomic.t; (* jobs delivered through those rounds *)
  max_batch : int Atomic.t;
  batch_hist : hist; (* batch sizes *)
  hists : hist array; (* latency per kind *)
  (* the daemon's own socket syscalls, counted where it makes them *)
  loop_sends : int Atomic.t;
  worker_writes : int Atomic.t;
  reads : int Atomic.t;
  epoll_waits : int Atomic.t;
  (* GC work accumulated across every participating domain (the accept
     loop and each worker report their own deltas; see [gc_sampler]) *)
  gc_minor_words : int Atomic.t;
  gc_major_words : int Atomic.t;
  gc_minor_collections : int Atomic.t;
  gc_major_collections : int Atomic.t;
  (* result-cache counters (see Result_cache) *)
  rcache_hits : int Atomic.t;
  rcache_misses : int Atomic.t;
  rcache_bypassed : int Atomic.t;
  rcache_waits : int Atomic.t;
  rcache_invalidations : int Atomic.t;
  (* background integrity scrubber (see Segment_store.scrub) *)
  scrub_passes : int Atomic.t;
  scrub_segments : int Atomic.t;
  scrub_corrupt : int Atomic.t;
  scrub_quarantined : int Atomic.t;
}

let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    started = Unix.gettimeofday ();
    received = atomic_array (Array.length kinds);
    ok = atomic_array (Array.length kinds);
    errors = atomic_array (Array.length errs);
    connections = Atomic.make 0;
    connections_shed = Atomic.make 0;
    dropped_replies = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_open_failures = Atomic.make 0;
    worker_deaths = Atomic.make 0;
    accept_failures = Atomic.make 0;
    reloads = Atomic.make 0;
    max_queue_depth = Atomic.make 0;
    queue_depth_hist = atomic_array n_buckets;
    batches = Atomic.make 0;
    batched_jobs = Atomic.make 0;
    max_batch = Atomic.make 0;
    batch_hist = atomic_array n_buckets;
    hists = Array.init (Array.length kinds) (fun _ -> atomic_array n_buckets);
    loop_sends = Atomic.make 0;
    worker_writes = Atomic.make 0;
    reads = Atomic.make 0;
    epoll_waits = Atomic.make 0;
    gc_minor_words = Atomic.make 0;
    gc_major_words = Atomic.make 0;
    gc_minor_collections = Atomic.make 0;
    gc_major_collections = Atomic.make 0;
    rcache_hits = Atomic.make 0;
    rcache_misses = Atomic.make 0;
    rcache_bypassed = Atomic.make 0;
    rcache_waits = Atomic.make 0;
    rcache_invalidations = Atomic.make 0;
    scrub_passes = Atomic.make 0;
    scrub_segments = Atomic.make 0;
    scrub_corrupt = Atomic.make 0;
    scrub_quarantined = Atomic.make 0;
  }

let incr a = Atomic.incr a

let incr_received t ~kind = incr t.received.(kind_index kind)
let incr_ok t ~kind = incr t.ok.(kind_index kind)
let incr_error t ~err = incr t.errors.(err_index err)
let incr_connections t = incr t.connections
let incr_connection_shed t = incr t.connections_shed
let incr_dropped_replies t = incr t.dropped_replies
let incr_cache_hit t = incr t.cache_hits
let incr_cache_miss t = incr t.cache_misses
let incr_cache_open_failure t = incr t.cache_open_failures
let incr_worker_death t = incr t.worker_deaths
let incr_accept_failure t = incr t.accept_failures
let incr_reload t = incr t.reloads
let cache_open_failures t = Atomic.get t.cache_open_failures
let worker_deaths t = Atomic.get t.worker_deaths
let accept_failures t = Atomic.get t.accept_failures
let reloads t = Atomic.get t.reloads
let connections_shed t = Atomic.get t.connections_shed

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let observe_queue_depth t d =
  atomic_max t.max_queue_depth d;
  incr t.queue_depth_hist.(bucket_of_us (float_of_int d))

let record_batch_size t n =
  incr t.batches;
  ignore (Atomic.fetch_and_add t.batched_jobs n : int);
  atomic_max t.max_batch n;
  incr t.batch_hist.(bucket_of_us (float_of_int n))

let batches t = Atomic.get t.batches
let batched_jobs t = Atomic.get t.batched_jobs
let max_batch_size t = Atomic.get t.max_batch

let incr_loop_send t = incr t.loop_sends
let incr_worker_write t = incr t.worker_writes
let incr_read t = incr t.reads
let incr_epoll_wait t = incr t.epoll_waits
let loop_sends t = Atomic.get t.loop_sends
let worker_writes t = Atomic.get t.worker_writes
let reads t = Atomic.get t.reads
let epoll_waits t = Atomic.get t.epoll_waits

let add n a = ignore (Atomic.fetch_and_add a n : int)

(* [Gc.quick_stat] counters are per-domain in OCaml 5, so each domain
   that does request work owns a sampler closure: every call adds the
   delta since its previous call to the shared atomics. Cheap enough to
   call once per worker batch / accept-loop tick (quick_stat reads a
   handful of domain-local fields and allocates one small record). *)
let gc_sampler t =
  let last = ref (Gc.quick_stat ()) in
  fun () ->
    let now = Gc.quick_stat () in
    let prev = !last in
    last := now;
    add (int_of_float (now.Gc.minor_words -. prev.Gc.minor_words))
      t.gc_minor_words;
    add (int_of_float (now.Gc.major_words -. prev.Gc.major_words))
      t.gc_major_words;
    add (now.Gc.minor_collections - prev.Gc.minor_collections)
      t.gc_minor_collections;
    add (now.Gc.major_collections - prev.Gc.major_collections)
      t.gc_major_collections

let gc_minor_words t = Atomic.get t.gc_minor_words

let incr_result_cache_hit t = incr t.rcache_hits
let incr_result_cache_miss t = incr t.rcache_misses
let incr_result_cache_bypass t = incr t.rcache_bypassed
let incr_result_cache_wait t = incr t.rcache_waits
let incr_result_cache_invalidation t = incr t.rcache_invalidations
let result_cache_hits t = Atomic.get t.rcache_hits
let result_cache_misses t = Atomic.get t.rcache_misses
let result_cache_bypassed t = Atomic.get t.rcache_bypassed
let result_cache_waits t = Atomic.get t.rcache_waits
let result_cache_invalidations t = Atomic.get t.rcache_invalidations

let record_scrub_pass t ~segments ~corrupt ~quarantined =
  Atomic.incr t.scrub_passes;
  ignore (Atomic.fetch_and_add t.scrub_segments segments : int);
  ignore (Atomic.fetch_and_add t.scrub_corrupt corrupt : int);
  ignore (Atomic.fetch_and_add t.scrub_quarantined quarantined : int)

let scrub_corrupt t = Atomic.get t.scrub_corrupt
let scrub_quarantined t = Atomic.get t.scrub_quarantined

let record_latency t ~kind ~seconds =
  incr t.hists.(kind_index kind).(bucket_of_us (seconds *. 1e6))

(* Percentiles are computed over an immutable snapshot, so one read
   sees one consistent histogram. *)
let snap h = Array.map Atomic.get h
let snap_total s = Array.fold_left ( + ) 0 s

let percentile_of_snap s q =
  let total = snap_total s in
  if total = 0 then nan
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.round (q *. float_of_int total)))
    in
    let rec go i acc =
      if i >= n_buckets then bucket_upper_us (n_buckets - 1)
      else begin
        let acc = acc + s.(i) in
        if acc >= target then bucket_upper_us i else go (i + 1) acc
      end
    in
    go 0 0
  end

let requests_received t ~kind = Atomic.get t.received.(kind_index kind)
let errors t ~err = Atomic.get t.errors.(err_index err)
let overloaded t = errors t ~err:"overloaded"
let timeouts t = errors t ~err:"timeout"

let to_json ?cache_shards ?result_cache ?corpora t ~queue_depth =
  let b = Buffer.create 512 in
  let field first name v =
    if not first then Buffer.add_char b ',';
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" name v)
  in
  let obj_of_labels labels values =
    let bb = Buffer.create 64 in
    Buffer.add_char bb '{';
    let wrote = ref false in
    Array.iteri
      (fun i label ->
        let v = Atomic.get values.(i) in
        if v > 0 then begin
          if !wrote then Buffer.add_char bb ',';
          Buffer.add_string bb (Printf.sprintf "\"%s\":%d" label v);
          wrote := true
        end)
      labels;
    Buffer.add_char bb '}';
    Buffer.contents bb
  in
  Buffer.add_char b '{';
  field true "uptime_s"
    (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started));
  field false "connections" (string_of_int (Atomic.get t.connections));
  field false "connections_shed"
    (string_of_int (Atomic.get t.connections_shed));
  field false "requests" (obj_of_labels kinds t.received);
  field false "ok" (obj_of_labels kinds t.ok);
  field false "errors" (obj_of_labels errs t.errors);
  field false "cache"
    (Printf.sprintf "{\"hits\":%d,\"misses\":%d,\"open_failures\":%d}"
       (Atomic.get t.cache_hits)
       (Atomic.get t.cache_misses)
       (Atomic.get t.cache_open_failures));
  (match cache_shards with
  | None -> ()
  | Some shards ->
      let bb = Buffer.create 64 in
      Buffer.add_char bb '[';
      Array.iteri
        (fun i (h, m, f, entries) ->
          if i > 0 then Buffer.add_char bb ',';
          Buffer.add_string bb
            (Printf.sprintf
               "{\"hits\":%d,\"misses\":%d,\"open_failures\":%d,\"entries\":%d}"
               h m f entries))
        shards;
      Buffer.add_char bb ']';
      field false "cache_shards" (Buffer.contents bb));
  (let ds = snap t.queue_depth_hist in
   field false "queue"
     (Printf.sprintf
        "{\"depth\":%d,\"max_depth\":%d,\"p50_depth\":%.0f,\"p95_depth\":%.0f}"
        queue_depth
        (Atomic.get t.max_queue_depth)
        (let p = percentile_of_snap ds 0.50 in
         if Float.is_nan p then 0.0 else p)
        (let p = percentile_of_snap ds 0.95 in
         if Float.is_nan p then 0.0 else p)));
  (let bs = snap t.batch_hist in
   field false "batches"
     (Printf.sprintf
        "{\"count\":%d,\"jobs\":%d,\"max_size\":%d,\"p50_size\":%.0f,\"p95_size\":%.0f}"
        (Atomic.get t.batches)
        (Atomic.get t.batched_jobs)
        (Atomic.get t.max_batch)
        (let p = percentile_of_snap bs 0.50 in
         if Float.is_nan p then 0.0 else p)
        (let p = percentile_of_snap bs 0.95 in
         if Float.is_nan p then 0.0 else p)));
  field false "result_cache"
    (Printf.sprintf
       "{\"hits\":%d,\"misses\":%d,\"bypassed\":%d,\
        \"single_flight_waits\":%d,\"invalidations\":%d%s}"
       (Atomic.get t.rcache_hits)
       (Atomic.get t.rcache_misses)
       (Atomic.get t.rcache_bypassed)
       (Atomic.get t.rcache_waits)
       (Atomic.get t.rcache_invalidations)
       (match result_cache with
       | None -> ""
       | Some (entries, bytes, capacity_bytes, evictions) ->
           Printf.sprintf
             ",\"entries\":%d,\"bytes\":%d,\"capacity_bytes\":%d,\
              \"evictions\":%d"
             entries bytes capacity_bytes evictions));
  field false "gc"
    (Printf.sprintf
       "{\"minor_words\":%d,\"major_words\":%d,\"minor_collections\":%d,\
        \"major_collections\":%d}"
       (Atomic.get t.gc_minor_words)
       (Atomic.get t.gc_major_words)
       (Atomic.get t.gc_minor_collections)
       (Atomic.get t.gc_major_collections));
  field false "scrub"
    (Printf.sprintf
       "{\"passes\":%d,\"segments_checked\":%d,\"corrupt\":%d,\
        \"quarantined\":%d}"
       (Atomic.get t.scrub_passes)
       (Atomic.get t.scrub_segments)
       (Atomic.get t.scrub_corrupt)
       (Atomic.get t.scrub_quarantined));
  (* pre-rendered by the server, which owns the segment stores *)
  (match corpora with None -> () | Some json -> field false "corpora" json);
  field false "syscalls"
    (Printf.sprintf
       "{\"loop_sends\":%d,\"worker_writes\":%d,\"reads\":%d,\
        \"epoll_waits\":%d}"
       (Atomic.get t.loop_sends)
       (Atomic.get t.worker_writes)
       (Atomic.get t.reads)
       (Atomic.get t.epoll_waits));
  field false "dropped_replies" (string_of_int (Atomic.get t.dropped_replies));
  field false "worker_deaths" (string_of_int (Atomic.get t.worker_deaths));
  field false "accept_failures" (string_of_int (Atomic.get t.accept_failures));
  field false "reloads" (string_of_int (Atomic.get t.reloads));
  (* Latency per op type *)
  let lat = Buffer.create 64 in
  Buffer.add_char lat '{';
  let wrote = ref false in
  Array.iteri
    (fun i kind ->
      let s = snap t.hists.(i) in
      if snap_total s > 0 then begin
        if !wrote then Buffer.add_char lat ',';
        Buffer.add_string lat
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f}"
             kind (snap_total s)
             (percentile_of_snap s 0.50)
             (percentile_of_snap s 0.95)
             (percentile_of_snap s 0.99));
        wrote := true
      end)
    kinds;
  Buffer.add_char lat '}';
  field false "latency" (Buffer.contents lat);
  Buffer.add_char b '}';
  Buffer.contents b
