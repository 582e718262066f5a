(* The serving daemon: an epoll-based accept loop that answers cache
   hits and cheap misses itself, and worker domains behind a bounded
   request queue for the rest. See the mli and DESIGN.md §10/§12. *)

module G = Pti_core.General_index
module L = Pti_core.Listing_index
module Sym = Pti_ustring.Sym
module U = Pti_ustring.Ustring
module Logp = Pti_prob.Logp
module P = Protocol
module Bq = Pti_parallel.Bqueue
module Store = Pti_segment.Segment_store

type source =
  | Source_file of string
  | Source_general of G.t
  | Source_listing of L.t
  | Source_corpus of Store.t

type config = {
  host : string;
  port : int;
  workers : int;
  queue_cap : int;
  deadline_ms : float;
  cache_cap : int;
  verify : bool;
  debug_slow : bool;
  send_timeout_ms : float;
  drain_timeout_ms : float;
  max_conns : int;
  max_json_line : int;
  batch_max : int;
  result_cache_mb : int;
  compact_interval_ms : float;
  scrub_interval_ms : float;
  scrub_mb_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = Pti_parallel.num_domains ();
    queue_cap = 1024;
    deadline_ms = 5000.0;
    cache_cap = 8;
    verify = true;
    debug_slow = false;
    send_timeout_ms = 5000.0;
    drain_timeout_ms = 5000.0;
    max_conns = 4096;
    max_json_line = P.max_json_line;
    batch_max = 32;
    result_cache_mb = 64;
    compact_interval_ms = 50.0;
    scrub_interval_ms = 600_000.0;
    scrub_mb_s = 64.0;
  }

(* Per-connection read buffer: a growable byte window [start, start+len)
   that [read(2)] appends to and the framers consume from the front —
   no intermediate copy, no per-frame string slice. It reaches its
   high-water mark once and is then reused for the connection's whole
   lifetime (shrunk back only after an unusually large frame). *)
type rbuf = { mutable data : Bytes.t; mutable start : int; mutable len : int }

let rbuf_create n = { data = Bytes.create n; start = 0; len = 0 }

(* Make room to append [want] bytes: slide the window to the front when
   the tail is exhausted (cheap memmove of the unconsumed remainder,
   usually empty), growing only when a message is larger than the
   whole buffer. *)
let rbuf_room rb want =
  if rb.len = 0 then rb.start <- 0;
  let cap = Bytes.length rb.data in
  if rb.start + rb.len + want > cap then
    if rb.len + want <= cap then begin
      Bytes.blit rb.data rb.start rb.data 0 rb.len;
      rb.start <- 0
    end
    else begin
      let ncap = ref (Stdlib.max 16 (2 * cap)) in
      while !ncap < rb.len + want do
        ncap := 2 * !ncap
      done;
      let d = Bytes.create !ncap in
      Bytes.blit rb.data rb.start d 0 rb.len;
      rb.data <- d;
      rb.start <- 0
    end

(* After a >1 MiB message drained, give the memory back — one huge
   frame must not pin a huge buffer per connection forever. *)
let rbuf_shrink rb =
  if rb.len = 0 && Bytes.length rb.data > 1024 * 1024 then begin
    rb.data <- Bytes.create 65536;
    rb.start <- 0
  end

(* One TCP connection. [rbuf] accumulates raw bytes until complete
   frames (binary) or lines (JSON) can be cut off the front; [scan] is
   the offset (relative to [rbuf.start]) up to which the input is known
   to hold no newline (JSON mode), so a client trickling bytes is not
   rescanned quadratically; [mode] latches on the first byte.

   Writing. Workers encode a batch's replies for the connection into
   the pooled [wbuf] and write them with one blocking syscall (bounded
   by SO_SNDTIMEO), under [write_m] because several workers may hold
   jobs of one pipelined connection. The accept loop answers some
   requests itself (cache hits, Ping, Stats, refusals) and must never
   block: it only [try_lock]s [write_m] and sends without waiting.
   Bytes the socket did not take go to [pend] (under [write_m]); every
   writer flushes [pend] before its own frames. When the loop finds
   [write_m] busy it leaves its encoded replies in [handoff], which
   the lock holder sends before and after it unlocks (see
   [take_handoff] and [drain_handoff]), so no reply waits for a timer.

   The fd is closed ONLY while holding [write_m] (see [try_close]): a
   writer that passed its [alive] check must never hold the fd across a
   close, or the kernel could reuse the fd number and the stale reply
   would land in an unrelated client's stream.

   [stalled_since] and [parked] belong to the loop: the instant [pend]
   last became non-empty (the loop then watches the socket for
   writability instead of reading it) and whether the fd is out of the
   readiness set while a worker holds [write_m]. *)
type conn = {
  fd : Unix.file_descr;
  write_m : Mutex.t;
  rbuf : rbuf;
  wbuf : P.Wbuf.t;
  pend : rbuf;
  handoff : string list Atomic.t;
  mutable scan : int;
  mutable json : bool option;
  mutable alive : bool;
  mutable closed : bool;
  mutable stalled_since : float;
  mutable parked : bool;
}

(* Where a reply goes: a request's connection, id, op kind and arrival
   time. A request that joined the in-flight computation of its cache
   key waits as one of these; the job owning the flight answers it. *)
type waiter = { wconn : conn; wid : int; wkind : string; warrival : float }

(* [jtoken]: the result-cache flight this job owns, until settled. *)
type job = {
  jconn : conn;
  jid : int;
  jop : P.op;
  jkind : string;
  arrival : float;
  deadline : float;
  mutable jtoken : waiter Result_cache.token option;
}

(* What the accept loop answered itself during one read: the cache hits
   and misses it ran, whose latency is recorded once their bytes are
   sent. *)
type inline = {
  mutable n : int;
  mutable kinds : string array;
  mutable arrivals : float array;
}

type t = {
  cfg : config;
  sources : source array;
  listen_fd : Unix.file_descr;
  bound_port : int;
  queue : job Bq.t;
  cache : Engine_cache.t;
  rcache : waiter Result_cache.t option;
  (* requests joined to a flight; they count against [queue_cap] *)
  joined : int Atomic.t;
  (* the accept loop's reply buffer for the connection being read *)
  lout : P.Wbuf.t;
  inline : inline;
  metrics : Metrics.t;
  stop_flag : bool Atomic.t;
  dump_flag : bool Atomic.t;
  reload_flag : bool Atomic.t;
  (* wall-clock instant after which draining workers stop executing
     queued jobs and answer [Shutting_down]; infinity while serving *)
  drain_deadline : float Atomic.t;
  workers_m : Mutex.t;
  mutable workers : unit Domain.t list;
}

let create ?(config = default_config) sources =
  if sources = [] then invalid_arg "Server.create: no index sources";
  if config.max_conns < 1 then invalid_arg "Server.create: max_conns < 1";
  if config.max_json_line < 64 then
    invalid_arg "Server.create: max_json_line < 64";
  if config.batch_max < 1 then invalid_arg "Server.create: batch_max < 1";
  if config.result_cache_mb < 0 then
    invalid_arg "Server.create: result_cache_mb < 0";
  if
    Float.is_nan config.compact_interval_ms || config.compact_interval_ms < 0.0
  then invalid_arg "Server.create: compact_interval_ms < 0";
  if Float.is_nan config.scrub_interval_ms || config.scrub_interval_ms < 0.0
  then invalid_arg "Server.create: scrub_interval_ms < 0";
  if Float.is_nan config.scrub_mb_s || config.scrub_mb_s < 0.0 then
    invalid_arg "Server.create: scrub_mb_s < 0";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  {
    cfg = config;
    sources = Array.of_list sources;
    listen_fd = fd;
    bound_port;
    queue = Bq.create ~capacity:config.queue_cap;
    cache =
      Engine_cache.create ~verify:config.verify ~capacity:config.cache_cap
        ~shards:(Stdlib.max 1 config.workers) ();
    rcache =
      (if config.result_cache_mb = 0 then None
       else
         Some
           (Result_cache.create
              ~capacity_bytes:(config.result_cache_mb * 1024 * 1024)
              ~shards:(Stdlib.max 1 config.workers) ()));
    joined = Atomic.make 0;
    lout = P.Wbuf.create 4096;
    inline = { n = 0; kinds = Array.make 16 ""; arrivals = Array.make 16 0.0 };
    metrics = Metrics.create ();
    stop_flag = Atomic.make false;
    dump_flag = Atomic.make false;
    reload_flag = Atomic.make false;
    drain_deadline = Atomic.make infinity;
    workers_m = Mutex.create ();
    workers = [];
  }

let port t = t.bound_port
let metrics t = t.metrics
let stop t = Atomic.set t.stop_flag true
let request_stats_dump t = Atomic.set t.dump_flag true
let request_reload t = Atomic.set t.reload_flag true

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Per-corpus gauges: the LSM health signals operators watch (segment
   count creeping up = compaction falling behind, tombstone ratio =
   space awaiting reclaim, memtable bytes = unsealed volatile data). *)
let corpora_json t =
  let items =
    Array.to_list t.sources
    |> List.filter_map (function
         | Source_corpus store ->
             let st = Store.stats store in
             Some
               (Printf.sprintf
                  "{\"dir\":\"%s\",\"generation\":%d,\"segments\":%d,\
                   \"segment_bytes\":%d,\"memtable_docs\":%d,\
                   \"memtable_bytes\":%d,\"live_docs\":%d,\"tombstones\":%d,\
                   \"tombstone_ratio\":%.4f,\"degraded_segments\":%d,\
                   \"wal_records\":%d,\"wal_bytes\":%d,\"wal_sync\":\"%s\"}"
                  (json_escape (Store.dir store))
                  st.Store.st_generation st.Store.st_segments
                  st.Store.st_segment_bytes st.Store.st_memtable_docs
                  st.Store.st_memtable_bytes st.Store.st_live_docs
                  st.Store.st_tombstones
                  (Store.tombstone_ratio st)
                  st.Store.st_degraded_segments st.Store.st_wal_records
                  st.Store.st_wal_bytes
                  (json_escape
                     (Store.wal_sync_to_string (Store.wal_policy store))))
         | _ -> None)
  in
  match items with
  | [] -> None
  | items -> Some ("[" ^ String.concat "," items ^ "]")

let stats_json t =
  let result_cache =
    Option.map
      (fun rc ->
        let s = Result_cache.stats rc in
        (s.Result_cache.entries, s.bytes, s.capacity_bytes, s.evictions))
      t.rcache
  in
  Metrics.to_json t.metrics ~queue_depth:(Bq.length t.queue)
    ~cache_shards:(Engine_cache.shard_stats t.cache) ?result_cache
    ?corpora:(corpora_json t)

(* ------------------------------------------------------------------ *)
(* Replies *)

(* A reply to put on the wire: either a value to encode, or a cache
   entry whose pre-encoded body is spliced after a fresh (tag, id)
   prefix — byte-identical to encoding the reply it came from (Protocol
   guarantees it), with no per-hit work. A JSON connection decodes the
   body back into the reply. *)
type outcome_r = O_value of P.reply | O_cached of Result_cache.cached

let encode_outcome b conn ~id o =
  if conn.json = Some true then begin
    let reply =
      match o with
      | O_value r -> r
      | O_cached c ->
          P.decode_reply_body ~tag:c.Result_cache.ctag c.Result_cache.cbody
    in
    P.Wbuf.add_string b (P.reply_to_json ~id reply);
    P.Wbuf.add_string b "\n"
  end
  else
    match o with
    | O_value r -> P.encode_reply_into b ~id r
    | O_cached c ->
        P.encode_cached_reply_into b ~id ~tag:c.Result_cache.ctag
          ~body:c.Result_cache.cbody

(* [pend] and [handoff] (see [conn]); every function below that
   touches [pend] runs under [write_m]. *)
let pend_add pb b off len =
  rbuf_room pb len;
  Bytes.blit b off pb.data (pb.start + pb.len) len;
  pb.len <- pb.len + len

(* Move handed-off replies into [pend]. They pass the [server.reply]
   failpoint here, as every reply does on its way out; an empty hand-off
   list costs one atomic exchange. [true] when an injected short write
   cut them: the caller sends what is left in [pend], then breaks the
   connection. *)
let take_handoff conn =
  match Atomic.exchange conn.handoff [] with
  | [] -> false
  | l -> (
      let pb = conn.pend in
      let before = pb.len in
      List.iter
        (fun s -> pend_add pb (Bytes.unsafe_of_string s) 0 (String.length s))
        (List.rev l);
      match Pti_fault.hit "server.reply" with
      | None -> false
      | Some short ->
          pb.len <- Stdlib.min pb.len (before + short);
          true)

let torn_reply call = raise (Unix.Unix_error (Unix.EPIPE, call, "failpoint"))

let pend_consume pb n =
  pb.start <- pb.start + n;
  pb.len <- pb.len - n;
  rbuf_shrink pb

(* A dead connection's unsent bytes go nowhere. *)
let discard conn =
  Atomic.set conn.handoff [];
  pend_consume conn.pend conn.pend.len

(* A worker's flush: blocking, like the frames that follow it. *)
let flush_pend t conn =
  let torn = take_handoff conn in
  let pb = conn.pend in
  if pb.len > 0 then begin
    Metrics.incr_worker_write t.metrics;
    P.write_sub conn.fd pb.data pb.start pb.len;
    pend_consume pb pb.len
  end;
  if torn then torn_reply "write"

(* The loop's send: flush what is pending, then [b[off, off+len)],
   without ever waiting; whatever the socket refuses stays in [pend]. *)
let send_nonblock t conn b off len =
  let torn = take_handoff conn in
  let pb = conn.pend in
  let full = ref false in
  while pb.len > 0 && not !full do
    Metrics.incr_loop_send t.metrics;
    match Pti_epoll.send conn.fd pb.data pb.start pb.len with
    | -1 -> full := true
    | n -> pend_consume pb n
  done;
  if torn then torn_reply "send";
  let off = ref off and len = ref len in
  while !len > 0 && not !full do
    Metrics.incr_loop_send t.metrics;
    match Pti_epoll.send conn.fd b !off !len with
    | -1 -> full := true
    | n ->
        off := !off + n;
        len := !len - n
  done;
  if !len > 0 then pend_add pb b !off !len

(* Handed-off bytes are sent by whoever holds [write_m]: a holder
   looks again after unlocking, since the loop may have handed bytes
   off between the holder's last look and its unlock (the loop, after
   handing off, tries the lock once more for the same reason). *)
let rec drain_handoff t conn =
  if Atomic.get conn.handoff <> [] && Mutex.try_lock conn.write_m then begin
    (try if conn.alive then flush_pend t conn else discard conn
     with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
    Mutex.unlock conn.write_m;
    drain_handoff t conn
  end

(* Write a popped batch's replies to one connection from a worker:
   encode them all into the connection's pooled write buffer under
   [write_m], then write once — one syscall (and, with TCP_NODELAY, a
   single segment train) instead of one write per reply. *)
let write_outcomes t conn items =
  let dropped () = List.iter (fun _ -> Metrics.incr_dropped_replies t.metrics) items in
  Mutex.lock conn.write_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_m)
    (fun () ->
      if conn.alive then begin
        let b = conn.wbuf in
        P.Wbuf.reset b;
        List.iter (fun (id, o) -> encode_outcome b conn ~id o) items;
        try
          flush_pend t conn;
          Metrics.incr_worker_write t.metrics;
          match Pti_fault.hit "server.reply" with
          | Some short ->
              (* injected torn reply: a prefix goes out, then the
                 "connection" breaks *)
              P.write_sub conn.fd (P.Wbuf.unsafe_data b) 0
                (Stdlib.min short (P.Wbuf.length b));
              torn_reply "write"
          | None -> P.write_wbuf conn.fd b
        with Unix.Unix_error _ | Sys_error _ ->
          conn.alive <- false;
          dropped ()
      end
      else begin
        discard conn;
        dropped ()
      end);
  drain_handoff t conn

(* Write replies grouped by connection (physical equality; a batch
   rarely spans more than a handful of conns), one coalesced write
   each, in the order given. *)
let deliver t items =
  let conns = ref [] in
  List.iter
    (fun (conn, id, o) ->
      let r =
        match List.find_opt (fun (c, _) -> c == conn) !conns with
        | Some (_, r) -> r
        | None ->
            let r = ref [] in
            conns := (conn, r) :: !conns;
            r
      in
      r := (id, o) :: !r)
    items;
  List.iter (fun (conn, r) -> write_outcomes t conn (List.rev !r)) (List.rev !conns)

(* Accept-loop replies: encoded into [t.lout] while the connection's
   input is processed, sent by [loop_flush] afterwards. *)
let loop_reply t conn ~id reply = encode_outcome t.lout conn ~id (O_value reply)

let loop_error t conn ~id err msg =
  Metrics.incr_error t.metrics ~err:(P.err_to_string err);
  loop_reply t conn ~id (P.Error (err, msg))

(* Send [b[off, off+len)] from the loop if [write_m] is free; [Some
   pending] says whether unsent bytes are left in [pend]. Replies pass
   the [server.reply] failpoint here as they do on the workers' path. *)
let loop_send t conn b off len =
  if Mutex.try_lock conn.write_m then begin
    (try
       if not conn.alive then discard conn
       else
         match if len > 0 then Pti_fault.hit "server.reply" else None with
         | Some short ->
             send_nonblock t conn b off (Stdlib.min short len);
             torn_reply "send"
         | None -> send_nonblock t conn b off len
     with Unix.Unix_error _ -> conn.alive <- false);
    let pending = conn.alive && conn.pend.len > 0 in
    Mutex.unlock conn.write_m;
    Some pending
  end
  else None

(* Send what the loop encoded for [conn] during this read; [true] when
   bytes are left pending and the loop must stop reading [conn] until
   they are out. A busy [write_m] hands the bytes to its holder. The
   queries the loop answered record their latency here, decode to
   send. *)
let loop_flush t conn =
  let b = t.lout in
  let pending =
    if P.Wbuf.length b = 0 then false
    else
      match loop_send t conn (P.Wbuf.unsafe_data b) 0 (P.Wbuf.length b) with
      | Some pending -> pending
      | None -> (
          let s = P.Wbuf.contents b in
          let rec push () =
            let l = Atomic.get conn.handoff in
            if not (Atomic.compare_and_set conn.handoff l (s :: l)) then push ()
          in
          push ();
          match loop_send t conn Bytes.empty 0 0 with
          | Some p -> p
          | None -> (
              (* the holder sends them; if it has not yet taken an
                 earlier hand-off, stop reading until it has, so a
                 long write cannot pile up replies without bound *)
              match Atomic.get conn.handoff with _ :: _ :: _ -> true | _ -> false))
  in
  P.Wbuf.reset b;
  let inl = t.inline in
  if inl.n > 0 then begin
    let now = Unix.gettimeofday () in
    for i = 0 to inl.n - 1 do
      Metrics.record_latency t.metrics ~kind:inl.kinds.(i)
        ~seconds:(now -. inl.arrivals.(i))
    done;
    inl.n <- 0
  end;
  pending

(* ------------------------------------------------------------------ *)
(* Request execution (worker side) *)

type handle = Engine_cache.handle = General of G.t | Listing of L.t

(* What an index id resolves to: an immutable engine handle, or a live
   segment store whose scatter-gather read path replaces the single
   engine call. *)
type resolved = R_engine of handle | R_corpus of Store.t

let resolve t index =
  if index < 0 || index >= Array.length t.sources then
    Result.Error
      (P.Bad_index, Printf.sprintf "no index %d (serving %d)" index
         (Array.length t.sources))
  else
    match t.sources.(index) with
    | Source_general g -> Ok (R_engine (General g))
    | Source_listing l -> Ok (R_engine (Listing l))
    | Source_corpus s -> Ok (R_corpus s)
    | Source_file path -> (
        match Engine_cache.get t.cache ~metrics:t.metrics path with
        | handle -> Ok (R_engine handle)
        | exception e ->
            (* the engine cache just evicted (or refused) a corrupt /
               unopenable container — cached reply bytes may describe
               the evicted contents, so flush them too: the result
               cache must never outlive the handle that produced it *)
            Option.iter
              (fun rc -> Result_cache.invalidate ~metrics:t.metrics rc)
              t.rcache;
            (match e with
            | Pti_storage.Corrupt { section; reason } ->
                Result.Error
                  ( P.Bad_index,
                    Printf.sprintf "%s: corrupt section %s (%s)" path section
                      reason )
            | Sys_error m | Failure m | Invalid_argument m ->
                Result.Error (P.Bad_index, m)
            | Unix.Unix_error (e, _, _) ->
                Result.Error (P.Bad_index, path ^ ": " ^ Unix.error_message e)
            | e -> raise e))

let hits_of l = List.map (fun (key, p) -> (key, Logp.to_log p)) l

let corpus_only index =
  P.Error
    ( P.Bad_request,
      Printf.sprintf "index %d is not a dynamic corpus (mutations need --corpus)"
        index )

(* [handle], when given, is the engine every index id resolves to: the
   accept loop passes the handle it looked up without blocking. *)
let execute ?max_range ?handle t op =
  let resolve index =
    match handle with Some h -> Ok (R_engine h) | None -> resolve t index
  in
  match op with
  | P.Query { index; pattern; tau } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_engine (General g)) ->
          P.Hits (hits_of (G.query ?max_range g ~pattern:(Sym.of_string pattern) ~tau))
      | Ok (R_engine (Listing l)) ->
          P.Hits (hits_of (L.query ?max_range l ~pattern:(Sym.of_string pattern) ~tau))
      | Ok (R_corpus s) ->
          P.Hits (hits_of (Store.query s ~pattern:(Sym.of_string pattern) ~tau)))
  | P.Top_k { index; pattern; tau; k } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_engine (General g)) ->
          P.Hits
            (hits_of
               (G.query_top_k ?max_range g ~pattern:(Sym.of_string pattern) ~tau ~k))
      | Ok (R_engine (Listing l)) ->
          P.Hits
            (hits_of
               (L.query_top_k ?max_range l ~pattern:(Sym.of_string pattern) ~tau ~k))
      | Ok (R_corpus s) ->
          P.Hits
            (hits_of
               (Store.query_top_k s ~pattern:(Sym.of_string pattern) ~tau ~k)))
  | P.Listing { index; pattern; tau } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_engine (Listing l)) ->
          P.Hits (hits_of (L.query ?max_range l ~pattern:(Sym.of_string pattern) ~tau))
      | Ok (R_corpus s) ->
          (* a corpus IS a listing collection; same reply as Query *)
          P.Hits (hits_of (Store.query s ~pattern:(Sym.of_string pattern) ~tau))
      | Ok (R_engine (General _)) ->
          P.Error
            ( P.Bad_request,
              Printf.sprintf "index %d is not a listing index" index ))
  | P.Insert { index; doc } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_corpus s) -> P.Ack (Store.insert s (U.parse doc))
      | Ok (R_engine _) -> corpus_only index)
  | P.Delete { index; doc_id } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_corpus s) -> P.Ack (if Store.delete s doc_id then 1 else 0)
      | Ok (R_engine _) -> corpus_only index)
  | P.Flush { index } -> (
      match resolve index with
      | Result.Error (e, m) -> P.Error (e, m)
      | Ok (R_corpus s) ->
          let t0 = Unix.gettimeofday () in
          if Store.seal s then
            Metrics.record_latency t.metrics ~kind:"seal"
              ~seconds:(Unix.gettimeofday () -. t0);
          P.Ack (Store.generation s)
      | Ok (R_engine _) -> corpus_only index)
  | P.Slow ms ->
      if t.cfg.debug_slow then begin
        Unix.sleepf (float_of_int ms /. 1000.0);
        P.Pong
      end
      else P.Error (P.Bad_request, "slow op disabled (no --debug-slow)")
  | P.Stats | P.Ping ->
      (* answered inline by the accept loop; unreachable here *)
      P.Error (P.Server_error, "inline op reached a worker")

(* Every failure becomes a typed reply, except [Over_budget]: the loop
   hands such a query to a worker. *)
let execute_one ?max_range ?handle t op =
  try execute ?max_range ?handle t op with
  | Pti_core.Engine.Over_budget as e -> raise e
  | Invalid_argument m | Failure m -> P.Error (P.Bad_request, m)
  | Pti_storage.Corrupt { section; reason } ->
      P.Error (P.Bad_index, Printf.sprintf "corrupt %s: %s" section reason)
  | Store.Conflict { disk_gen; mem_gen; _ } ->
      P.Error
        ( P.Server_error,
          Printf.sprintf
            "corpus manifest moved under the daemon (disk generation %d, \
             served %d); reload (SIGHUP) and retry"
            disk_gen mem_gen )
  | e -> P.Error (P.Server_error, Printexc.to_string e)

let record_outcome t ~kind = function
  | O_value (P.Error (e, _)) ->
      Metrics.incr_error t.metrics ~err:(P.err_to_string e)
  | O_value _ | O_cached _ -> Metrics.incr_ok t.metrics ~kind

let record_finish t ~kind ~arrival outcome =
  record_outcome t ~kind outcome;
  Metrics.record_latency t.metrics ~kind
    ~seconds:(Unix.gettimeofday () -. arrival)

(* Cache key for a job. Corpus-backed indexes suffix the manifest
   version: a mutation bumps the version, making every old key
   unreachable (LRU evicts the dead bytes) — the cache never needs a
   flush to stay coherent with a moving corpus. *)
let cache_key t op =
  match Result_cache.key op with
  | None -> None
  | Some key -> (
      let index =
        match op with
        | P.Query { index; _ } | P.Top_k { index; _ } | P.Listing { index; _ }
          ->
            index
        | _ -> -1
      in
      if index < 0 || index >= Array.length t.sources then Some key
      else
        match t.sources.(index) with
        | Source_corpus s -> Some (key ^ Printf.sprintf "#g%d" (Store.version s))
        | _ -> Some key)

(* Settle a flight [token], if any, with its [reply]: cacheable replies
   ([Hits], including empty ones — negative caching) fill the cache,
   anything else cancels, so errors are never cached. Returns the
   outcome to send and the waiters that joined the flight. *)
let settle t token reply =
  let o, waiters =
    match (t.rcache, token, reply) with
    | Some rc, Some tok, P.Hits _ ->
        let cached =
          { Result_cache.ctag = P.reply_tag reply; cbody = P.encode_reply_body reply }
        in
        (O_cached cached, Result_cache.fill rc tok cached)
    | Some rc, Some tok, _ -> (O_value reply, Result_cache.cancel rc tok)
    | _ -> (O_value reply, [])
  in
  if waiters <> [] then
    ignore (Atomic.fetch_and_add t.joined (-List.length waiters) : int);
  (o, waiters)

(* Settle the flight [job] owns: every request that gets the outcome,
   the job first. *)
let settle_job t job reply =
  let token = job.jtoken in
  job.jtoken <- None;
  let o, waiters = settle t token reply in
  let own =
    { wconn = job.jconn; wid = job.jid; wkind = job.jkind; warrival = job.arrival }
  in
  (o, own :: waiters)

(* Answer [job] (and its flight's waiters) with [reply] without running
   it: a drain or deadline refusal, or a job a dying batch dropped. *)
let refuse t job reply =
  let o, dests = settle_job t job reply in
  List.iter (fun w -> record_finish t ~kind:w.wkind ~arrival:w.warrival o) dests;
  deliver t (List.map (fun w -> (w.wconn, w.wid, o)) dests)

(* Run a popped batch of jobs, one by one. Cache lookups already
   happened on the accept loop: a job here either owns its key's
   flight ([jtoken]) or runs uncached. Every token is settled and the
   replies — the jobs' and their waiters' — go out one coalesced write
   per connection. Nothing here waits on another worker. A token is
   settled even if execution dies mid-batch: the [finally] answers the
   job and its waiters with a typed error. *)
let execute_jobs t jobs =
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun job ->
          if job.jtoken <> None then
            refuse t job (P.Error (P.Server_error, "request dropped")))
        jobs)
    (fun () ->
      let items = ref [] in
      List.iter
        (fun job ->
          let o, dests = settle_job t job (execute_one t job.jop) in
          List.iter
            (fun w ->
              record_finish t ~kind:w.wkind ~arrival:w.warrival o;
              items := (w.wconn, w.wid, o) :: !items)
            dests)
        jobs;
      deliver t (List.rev !items))

let worker_loop t =
  (* flush this domain's GC deltas into the shared registry once per
     drained batch — outside the per-job path, so the observability
     itself stays off the hot path *)
  let gc_flush = Metrics.gc_sampler t.metrics in
  let rec go () =
    (* [server.worker] simulates a worker domain dying on a poisoned
       task; the uncaught exception is logged, counted and the domain
       respawned by [worker_shell] below *)
    ignore (Pti_fault.hit "server.worker" : int option);
    match Bq.pop_batch t.queue ~max:t.cfg.batch_max ~deadline:infinity with
    | None -> ()
    | Some [] -> go ()
    | Some jobs ->
        Metrics.record_batch_size t.metrics (List.length jobs);
        let now = Unix.gettimeofday () in
        (* drain-expired and deadline-expired jobs get their typed
           replies first; their waiters get the same reply *)
        let runnable =
          List.filter
            (fun job ->
              if now > Atomic.get t.drain_deadline then begin
                refuse t job (P.Error (P.Shutting_down, "drain timeout expired"));
                false
              end
              else if now > job.deadline then begin
                refuse t job
                  (P.Error
                     ( P.Timeout,
                       Printf.sprintf "deadline (%.0f ms) expired in queue"
                         t.cfg.deadline_ms ));
                false
              end
              else true)
            jobs
        in
        execute_jobs t runnable;
        gc_flush ();
        go ()
  in
  go ()

(* A worker domain that dies on an uncaught exception is logged,
   counted and replaced — one poisoned request must not silently shrink
   the pool. No respawn once shutdown has begun (the queue is closing;
   the drain deadline bounds any leftover work). *)
let rec spawn_worker t =
  let d = Domain.spawn (fun () -> worker_shell t) in
  Mutex.lock t.workers_m;
  t.workers <- d :: t.workers;
  Mutex.unlock t.workers_m

and worker_shell t =
  try worker_loop t
  with e ->
    Printf.eprintf "pti: worker domain died: %s\n%!" (Printexc.to_string e);
    Metrics.incr_worker_death t.metrics;
    if not (Atomic.get t.stop_flag) then spawn_worker t

(* Join every worker, including respawns registered while joining: a
   dying worker registers its replacement before its domain exits, so
   re-snapshotting until the list stays empty cannot miss one. *)
let join_workers t =
  let rec drain () =
    Mutex.lock t.workers_m;
    let ds = t.workers in
    t.workers <- [];
    Mutex.unlock t.workers_m;
    if ds <> [] then begin
      List.iter Domain.join ds;
      drain ()
    end
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Accept loop *)

(* Requests queued or joined to a flight stay under [queue_cap]. *)
let has_room t = Bq.length t.queue + Atomic.get t.joined < t.cfg.queue_cap

let overloaded t conn ~id =
  loop_error t conn ~id P.Overloaded
    (Printf.sprintf "request queue full (cap %d)" t.cfg.queue_cap)

let enqueue t conn ~id ~kind ~now op token =
  let job =
    {
      jconn = conn;
      jid = id;
      jop = op;
      jkind = kind;
      arrival = now;
      deadline = now +. (t.cfg.deadline_ms /. 1000.0);
      jtoken = token;
    }
  in
  if (Atomic.get t.joined = 0 || has_room t) && Bq.try_push t.queue job then
    Metrics.observe_queue_depth t.metrics (Bq.length t.queue)
  else begin
    (* a token just taken has no waiters yet (only this loop joins),
       but settle it all the same: nothing may keep a flight open *)
    (match (t.rcache, token) with
    | Some rc, Some tok -> ignore (Result_cache.cancel rc tok : waiter list)
    | _ -> ());
    overloaded t conn ~id
  end

let add_inline t ~kind ~arrival =
  let inl = t.inline in
  if inl.n = Array.length inl.kinds then begin
    inl.kinds <- Array.append inl.kinds inl.kinds;
    inl.arrivals <- Array.append inl.arrivals inl.arrivals
  end;
  inl.kinds.(inl.n) <- kind;
  inl.arrivals.(inl.n) <- arrival;
  inl.n <- inl.n + 1

let loop_range_budget = 16
let loop_pattern_max = 32

(* The engine a query may run against on the loop: an in-memory index,
   or a container some worker already opened. Corpus sources, cold or
   busy files, patterns longer than [loop_pattern_max] (their decoding,
   validation and range search grow with the length, which the range
   budget does not bound) and every other op have none. *)
let loop_handle t op =
  match op with
  | P.Query { index; pattern; _ }
  | P.Top_k { index; pattern; _ }
  | P.Listing { index; pattern; _ }
    when index >= 0
         && index < Array.length t.sources
         && String.length pattern <= loop_pattern_max -> (
      match t.sources.(index) with
      | Source_general g -> Some (General g)
      | Source_listing l -> Some (Listing l)
      | Source_file path -> Engine_cache.find_open t.cache ~metrics:t.metrics path
      | Source_corpus _ -> None)
  | _ -> None

(* A result-cache miss (or an uncached op): run right here when it is
   a cheap engine query, its reply joining the read's single send;
   otherwise queue it for a worker with the flight [token]. A flight
   the loop owns has no waiters: only the loop joins flights, and it
   settles this one before it decodes the next request. *)
let miss t conn ~id ~kind ~now op token =
  match loop_handle t op with
  | None -> enqueue t conn ~id ~kind ~now op token
  | Some handle -> (
      match execute_one ~max_range:loop_range_budget ~handle t op with
      | exception Pti_core.Engine.Over_budget ->
          enqueue t conn ~id ~kind ~now op token
      | reply ->
          let o, waiters = settle t token reply in
          assert (waiters = []);
          record_outcome t ~kind o;
          encode_outcome t.lout conn ~id o;
          add_inline t ~kind ~arrival:now)

(* Where a request is answered: Stats, Ping, refusals, result-cache
   hits and cheap misses right here on the accept loop (into [t.lout],
   sent once the read's input is processed); a key in flight joins its
   owner, who answers it; everything else is queued for a worker,
   carrying the flight token it must settle, if the lookup gave it
   one. The cache lookup happens here, once per request (twice to join
   a flight). *)
let dispatch t conn (req : P.request) =
  let kind = P.op_kind req.op in
  Metrics.incr_received t.metrics ~kind;
  match req.op with
  | P.Stats -> loop_reply t conn ~id:req.id (P.Stats_reply (stats_json t))
  | P.Ping ->
      Metrics.incr_ok t.metrics ~kind;
      loop_reply t conn ~id:req.id P.Pong
  | _ when Atomic.get t.stop_flag ->
      (* draining: queued work still completes, new work is refused with
         a typed reply so clients fail over instead of hanging *)
      loop_error t conn ~id:req.id P.Shutting_down "server is draining"
  | op -> (
      let now = Unix.gettimeofday () in
      match (t.rcache, cache_key t op) with
      | Some rc, Some key -> (
          (* a key in flight is looked up again to join it, if there is
             room; the flight may have settled in between, so the
             second answer can be anything. [joined] is counted before
             the join, so the owner's settle never sees it short. *)
          match
            match Result_cache.find rc ~metrics:t.metrics key with
            | Result_cache.Busy when has_room t -> (
                Atomic.incr t.joined;
                match
                  Result_cache.find rc ~metrics:t.metrics
                    ~join:{ wconn = conn; wid = req.id; wkind = kind; warrival = now }
                    key
                with
                | Result_cache.Joined -> Result_cache.Joined
                | o ->
                    Atomic.decr t.joined;
                    o)
            | o -> o
          with
          | Result_cache.Hit c ->
              Metrics.incr_ok t.metrics ~kind;
              encode_outcome t.lout conn ~id:req.id (O_cached c);
              add_inline t ~kind ~arrival:now
          | Result_cache.Joined -> ()
          | Result_cache.Busy -> overloaded t conn ~id:req.id
          | Result_cache.Fresh tok -> miss t conn ~id:req.id ~kind ~now op (Some tok)
          | Result_cache.Bypass -> miss t conn ~id:req.id ~kind ~now op None)
      | _ -> miss t conn ~id:req.id ~kind ~now op None)

(* A JSON connection whose pending input holds no newline is a client
   that either streams an oversized line or never frames at all; cap it
   (binary mode is capped by [max_frame]). *)
let json_line_overflow t conn =
  if conn.rbuf.len > t.cfg.max_json_line then begin
    loop_error t conn ~id:0 P.Bad_request
      (Printf.sprintf "line exceeds %d bytes" t.cfg.max_json_line);
    false
  end
  else true

(* Cut complete binary frames off the front of the read buffer, decoding
   each payload in place: no flatten, no per-frame slice. The
   [unsafe_to_string] view is sound because the decode completes before
   the buffer can be mutated again (the accept loop is the only reader)
   and every string field is copied out by the decoder. *)
let rec process_binary t conn =
  let rb = conn.rbuf in
  if rb.len < 4 then begin
    rbuf_shrink rb;
    true
  end
  else begin
    let len = Int32.to_int (Bytes.get_int32_be rb.data rb.start) land 0xffffffff in
    if len > P.max_frame then begin
      loop_error t conn ~id:0 P.Bad_request
        (Printf.sprintf "frame length %d exceeds limit" len);
      false
    end
    else if rb.len < 4 + len then true
    else begin
      (match
         P.decode_request_sub
           (Bytes.unsafe_to_string rb.data)
           ~pos:(rb.start + 4) ~len
       with
      | req -> dispatch t conn req
      | exception P.Protocol_error m ->
          (* frame boundary is intact: answer and continue *)
          loop_error t conn ~id:0 P.Bad_request m);
      rb.start <- rb.start + 4 + len;
      rb.len <- rb.len - (4 + len);
      process_binary t conn
    end
  end

(* Newline-delimited JSON; a parse error is answered but the line
   framing survives, so the connection stays up. *)
let rec process_json t conn =
  let rb = conn.rbuf in
  let stop = rb.start + rb.len in
  let rec find i =
    if i >= stop then None
    else if Bytes.get rb.data i = '\n' then Some i
    else find (i + 1)
  in
  match find (rb.start + conn.scan) with
  | None ->
      conn.scan <- rb.len;
      rbuf_shrink rb;
      json_line_overflow t conn
  | Some nl ->
      let line = String.trim (Bytes.sub_string rb.data rb.start (nl - rb.start)) in
      let consumed = nl - rb.start + 1 in
      rb.start <- rb.start + consumed;
      rb.len <- rb.len - consumed;
      conn.scan <- 0;
      if line <> "" then begin
        match P.request_of_json line with
        | req -> dispatch t conn req
        | exception P.Protocol_error m ->
            loop_error t conn ~id:0 P.Bad_request m
      end;
      process_json t conn

(* Cut complete messages off the front of [conn.rbuf]. Returns [false]
   when the connection must be closed (framing lost or input bound
   exceeded). Incomplete input stays buffered. *)
let process_input t conn =
  (match conn.json with
  | Some _ -> ()
  | None ->
      if conn.rbuf.len > 0 then
        conn.json <- Some (Bytes.get conn.rbuf.data conn.rbuf.start = '{'));
  match conn.json with
  | None -> true
  | Some true -> process_json t conn
  | Some false -> process_binary t conn

(* Close the fd under [write_m] so no writer can hold it across the
   close; never blocks (the caller retries while a writer is mid-write,
   which [send_timeout_ms] bounds). Returns [true] once the fd is
   closed. *)
let try_close conn =
  if Mutex.try_lock conn.write_m then begin
    conn.alive <- false;
    if not conn.closed then begin
      conn.closed <- true;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end;
    Mutex.unlock conn.write_m;
    true
  end
  else false

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  for _ = 1 to Stdlib.max 1 t.cfg.workers do
    spawn_worker t
  done;
  (* Background compactor: one domain polling every corpus source's
     size-tiered policy. Merges run concurrently with serving (queries
     read immutable snapshots; the store serializes mutations
     internally), so the only cost the hot path sees is the manifest
     swap. Disabled when there are no corpora or the interval is 0. *)
  let corpora =
    Array.to_list t.sources
    |> List.filter_map (function Source_corpus s -> Some s | _ -> None)
  in
  let compactor =
    if corpora = [] || t.cfg.compact_interval_ms <= 0.0 then None
    else
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get t.stop_flag) do
               List.iter
                 (fun s ->
                   try
                     if Store.needs_compaction s then begin
                       let t0 = Unix.gettimeofday () in
                       if Store.compact s then
                         Metrics.record_latency t.metrics ~kind:"compact"
                           ~seconds:(Unix.gettimeofday () -. t0)
                     end
                   with
                   | Store.Conflict _ ->
                       (* an external writer committed first: adopt its
                          generation now and let the next tick retry *)
                       (try ignore (Store.reload s : bool)
                        with e ->
                          Printf.eprintf "pti: corpus reload %s: %s\n%!"
                            (Store.dir s) (Printexc.to_string e))
                   | e ->
                       Printf.eprintf "pti: compaction %s: %s\n%!" (Store.dir s)
                         (Printexc.to_string e))
                 corpora;
               (* idle WAL flush: an acknowledged insert on a
                  Wal_interval store must not sit unfsynced forever
                  just because traffic stopped *)
               List.iter
                 (fun s -> try Store.sync_wal s with _ -> ())
                 corpora;
               Unix.sleepf (t.cfg.compact_interval_ms /. 1000.0)
             done))
  in
  (* Background scrubber: periodically re-walks every live segment's
     section checksums at a bounded IO rate. A corrupt segment is
     quarantined through a manifest commit (queries degrade, they do
     not crash), then read-repair is attempted: a forced compaction
     rewrites the survivors and clears the degraded marker. *)
  let scrubber =
    if corpora = [] || t.cfg.scrub_interval_ms <= 0.0 then None
    else
      Some
        (Domain.spawn (fun () ->
             (* sleep in short slices so stop is prompt despite the
                long interval *)
             let sleep_until deadline =
               while
                 (not (Atomic.get t.stop_flag))
                 && Unix.gettimeofday () < deadline
               do
                 Unix.sleepf
                   (Stdlib.min 0.05 (deadline -. Unix.gettimeofday ()))
               done
             in
             while not (Atomic.get t.stop_flag) do
               sleep_until
                 (Unix.gettimeofday () +. (t.cfg.scrub_interval_ms /. 1000.0));
               if not (Atomic.get t.stop_flag) then
                 List.iter
                   (fun s ->
                     try
                       let r = Store.scrub ~budget_mb_s:t.cfg.scrub_mb_s s in
                       Metrics.record_scrub_pass t.metrics
                         ~segments:r.Store.sc_scanned
                         ~corrupt:(List.length r.Store.sc_corrupt)
                         ~quarantined:r.Store.sc_quarantined;
                       List.iter
                         (fun (seg, section) ->
                           Printf.eprintf
                             "pti: scrub %s: %s: corrupt section %s, \
                              quarantined\n\
                              %!"
                             (Store.dir s) seg section)
                         r.Store.sc_corrupt;
                       if r.Store.sc_quarantined > 0 then
                         (* read-repair: rewrite the survivors so the
                            corpus is fully verified again *)
                         ignore (Store.compact ~force:true s : bool)
                     with
                     | Store.Conflict _ -> (
                         try ignore (Store.reload s : bool)
                         with e ->
                           Printf.eprintf "pti: corpus reload %s: %s\n%!"
                             (Store.dir s) (Printexc.to_string e))
                     | e ->
                         Printf.eprintf "pti: scrub %s: %s\n%!" (Store.dir s)
                           (Printexc.to_string e))
                   corpora
             done))
  in
  (* Readiness set: level-triggered, no FD_SETSIZE limit (epoll on
     Linux, poll elsewhere — see Pti_epoll). A connection is watched
     for input, or — while it holds reply bytes its socket refused —
     for writability only, so a client that stops reading stops being
     read. Accepted sockets stay blocking for the workers' writes (the
     loop's own sends never wait, whatever the socket's mode); only the
     listen fd is non-blocking so one readiness event can drain the
     whole accept backlog. *)
  let ep = Pti_epoll.create () in
  Unix.set_nonblock t.listen_fd;
  Pti_epoll.add ep t.listen_fd;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  (* connections removed from [conns] whose fd could not be closed yet
     because a worker held [write_m]; retried every loop tick *)
  let pending = ref [] in
  (* deregister from [ep] before the fd can be closed: a closed fd
     auto-leaves an epoll set, but the poll fallback would keep
     polling it (POLLNVAL) forever *)
  let nparked = ref 0 in
  let close_conn conn =
    conn.alive <- false;
    if conn.parked then begin
      conn.parked <- false;
      decr nparked
    end;
    if Hashtbl.mem conns conn.fd then begin
      Hashtbl.remove conns conn.fd;
      Pti_epoll.remove ep conn.fd
    end;
    if not (try_close conn) then pending := conn :: !pending
  in
  let shed fd =
    Metrics.incr_connection_shed t.metrics;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* Returns [true] when another accept may succeed immediately. *)
  let accept_one () =
    match
      ignore (Pti_fault.hit "server.accept" : int option);
      Unix.accept t.listen_fd
    with
    | fd, _ ->
        if Hashtbl.length conns >= t.cfg.max_conns then
          (* explicit connection cap (--max-conns): shed instead of
             accumulating fds without bound *)
          shed fd
        else begin
          Metrics.incr_connections t.metrics;
          (* replies are small frames written after the request is
             fully read — Nagle would hold them for the delayed-ACK
             timer; send them immediately *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          if t.cfg.send_timeout_ms > 0.0 then
            (try
               Unix.setsockopt_float fd Unix.SO_SNDTIMEO
                 (t.cfg.send_timeout_ms /. 1000.0)
             with Unix.Unix_error _ -> ());
          let conn =
            {
              fd;
              write_m = Mutex.create ();
              rbuf = rbuf_create 4096;
              wbuf = P.Wbuf.create 1024;
              pend = rbuf_create 0;
              handoff = Atomic.make [];
              scan = 0;
              json = None;
              alive = true;
              closed = false;
              stalled_since = infinity;
              parked = false;
            }
          in
          match Pti_epoll.add ep fd with
          | () -> Hashtbl.replace conns fd conn
          | exception _ ->
              (* readiness registration failed (fd limit, memory):
                 shed this connection, keep the loop alive *)
              shed fd
        end;
        true
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        false
    | exception Unix.Unix_error (_, _, _) ->
        (* transient accept failure (EMFILE, ECONNABORTED, an injected
           fault): count it and keep listening — the loop must survive.
           Stop the burst; level-triggered readiness re-reports the
           backlog next tick. *)
        Metrics.incr_accept_failure t.metrics;
        false
  in
  let accept_burst () =
    (* drain the accept backlog, bounded so a connect flood cannot
       starve established connections of reads *)
    let budget = ref 128 in
    while accept_one () && !budget > 0 do
      decr budget
    done
  in
  (* Reply bytes left pending: stop reading [conn] and wait until its
     socket takes them (or [send_timeout_ms] passes, see [tick]). *)
  let stall conn =
    if conn.stalled_since = infinity then begin
      conn.stalled_since <- Unix.gettimeofday ();
      Pti_epoll.set_interest ep conn.fd Pti_epoll.Writable
    end
  in
  let watch conn interest =
    if conn.parked then begin
      conn.parked <- false;
      decr nparked;
      Pti_epoll.add ep ~interest conn.fd
    end
    else Pti_epoll.set_interest ep conn.fd interest
  in
  (* A stalled connection is writable again (or parked, see below):
     flush what is pending and go back to reading once it is all out.
     When a worker holds [write_m] it flushes [pend] itself; the fd
     leaves the readiness set meanwhile, since it would report
     writable on every wait, and [tick] retries every millisecond. *)
  let resume conn =
    match loop_send t conn Bytes.empty 0 0 with
    | Some true -> watch conn Pti_epoll.Writable
    | Some false ->
        conn.stalled_since <- infinity;
        watch conn Pti_epoll.Readable
    | None ->
        if not conn.parked then begin
          Pti_epoll.remove ep conn.fd;
          conn.parked <- true;
          incr nparked
        end
  in
  let read_conn conn =
    (* read straight into the connection's pooled buffer — no shared
       staging copy. Small chunks while the connection only trickles
       small requests; step up once a large frame is mid-transfer. *)
    let rb = conn.rbuf in
    let want = if rb.len >= 4096 then 65536 else 4096 in
    rbuf_room rb want;
    Metrics.incr_read t.metrics;
    match Unix.read conn.fd rb.data (rb.start + rb.len) want with
    | 0 -> close_conn conn
    | n ->
        rb.len <- rb.len + n;
        let ok = process_input t conn in
        if loop_flush t conn then stall conn;
        if not ok then close_conn conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn conn
  in
  (* One event-loop iteration, shared by the serving and draining
     phases (draining no longer watches the listen socket). *)
  let gc_flush = Metrics.gc_sampler t.metrics in
  (* SIGUSR1/SIGHUP requests. Handled after each wait, before any
     input it reported is read: a reload requested while the loop
     slept must not let a request that arrived meanwhile be answered
     from the pre-reload result cache. *)
  let handle_flags () =
    if Atomic.get t.dump_flag then begin
      Atomic.set t.dump_flag false;
      Printf.eprintf "%s\n%!" (stats_json t)
    end;
    if Atomic.get t.reload_flag then begin
      Atomic.set t.reload_flag false;
      (* Order matters: flush the result cache BEFORE the engine cache
         revalidates. The generation bump fences in-flight fills against
         pre-reload handles, and doing it first closes the window where
         a freshly revalidated engine could coexist with cached replies
         encoding the old container's bytes — a request arriving between
         the two steps would have served stale hits. (Tested: the
         invalidation counter must already be bumped when the first
         engine reopen is observed.) *)
      Option.iter
        (fun rc -> Result_cache.invalidate ~metrics:t.metrics rc)
        t.rcache;
      let evicted = Engine_cache.revalidate t.cache ~metrics:t.metrics () in
      List.iter
        (fun (path, e) ->
          Printf.eprintf "pti: reload evicted %s: %s\n%!" path
            (Printexc.to_string e))
        evicted;
      (* pick up externally produced segment manifests (an offline
         compaction, a second writer): a reload re-reads each corpus
         manifest and swaps in the new generation atomically *)
      Array.iter
        (function
          | Source_corpus s -> (
              try ignore (Store.reload s)
              with e ->
                Printf.eprintf "pti: corpus reload %s: %s\n%!" (Store.dir s)
                  (Printexc.to_string e))
          | _ -> ())
        t.sources;
      Metrics.incr_reload t.metrics
    end
  in
  let tick ~listening timeout_ms =
    gc_flush ();
    (* sweep: close deferred fds, reap connections a worker marked dead
       (its write failed or timed out) or whose pending replies did not
       drain within [send_timeout_ms] (the loop's counterpart of the
       workers' SO_SNDTIMEO), retry parked connections *)
    pending := List.filter (fun conn -> not (try_close conn)) !pending;
    let now = Unix.gettimeofday () in
    let send_timeout = t.cfg.send_timeout_ms /. 1000.0 in
    let dead =
      Hashtbl.fold
        (fun _ conn acc ->
          if
            (not conn.alive)
            || (send_timeout > 0.0 && now -. conn.stalled_since > send_timeout)
          then conn :: acc
          else begin
            if conn.parked then resume conn;
            acc
          end)
        conns []
    in
    List.iter close_conn dead;
    List.iter
      (fun fd ->
        if listening && fd = t.listen_fd then accept_burst ()
        else
          match Hashtbl.find_opt conns fd with
          | Some conn ->
              if conn.stalled_since < infinity then resume conn
              else read_conn conn
          | None -> ())
      (let ready =
         Metrics.incr_epoll_wait t.metrics;
         Pti_epoll.wait ep ~timeout_ms:(if !nparked > 0 then 1 else timeout_ms)
       in
       handle_flags ();
       ready)
  in
  while not (Atomic.get t.stop_flag) do
    tick ~listening:true 100
  done;
  (* graceful drain: stop accepting; requests already queued keep
     completing until the queue is empty or the drain window closes
     (workers answer [Shutting_down] past the deadline); connections
     are still read so drained replies flush and late requests get
     their typed refusal from [dispatch] *)
  Pti_epoll.remove ep t.listen_fd;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let drain_deadline =
    Unix.gettimeofday () +. (Stdlib.max 0.0 t.cfg.drain_timeout_ms /. 1000.0)
  in
  Atomic.set t.drain_deadline drain_deadline;
  while Bq.length t.queue > 0 && Unix.gettimeofday () < drain_deadline do
    tick ~listening:false 50
  done;
  Bq.close t.queue;
  join_workers t;
  Option.iter Domain.join compactor;
  Option.iter Domain.join scrubber;
  (* workers are joined, so every try_close below succeeds *)
  Hashtbl.iter (fun _ conn -> ignore (try_close conn)) conns;
  List.iter (fun conn -> ignore (try_close conn)) !pending;
  pending := [];
  Hashtbl.reset conns;
  Pti_epoll.close ep
