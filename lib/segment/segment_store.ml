(* LSM-style segment store. See the mli for the contract and
   DESIGN.md §15 for the invariants; the notes here cover what the
   signature can't say.

   Durability protocol: segment containers are written FIRST, the
   manifest LAST, both through Pti_storage.Writer (tmp + fsync +
   rename + directory fsync, instrumented by the storage.* failpoints).
   A crash between the two leaves an orphan segment file that no
   manifest references — harmless, reclaimed by the next compaction's
   sweep. In-memory state is mutated only AFTER the manifest rename
   succeeded, so a failed commit (ENOSPC, injected fault) leaves both
   the directory and the store exactly at the previous generation.

   The memtable is backed by a write-ahead log (wal-NNNNNN.log beside
   the MANIFEST): insert/delete/seal append a checksummed record
   BEFORE the in-memory mutation takes effect (same critical section),
   fsynced per the wal_sync policy, and open_dir replays the log on
   top of the manifest generation — so acknowledged-but-unsealed
   operations survive a crash. The log is rotated (fresh file, old one
   unlinked) by the first commit that leaves the memtable empty, which
   every record then being covered by the manifest makes safe; replay
   is therefore bounded by roughly one memtable's worth of records.
   Replay is idempotent — a record whose document the manifest already
   seals is skipped — which is what makes the crash windows of
   rotation (two log files alive) and of the seal (manifest renamed,
   log not yet rotated) recover to exactly the acknowledged state.

   Concurrency: three locks plus two atomics.

   - [m], the state lock, guards every mutable field and is only ever
     held for short critical sections — IO-free except for the single
     buffered write(2) of a WAL record append (a memtable mutation and
     its log record must be atomic with respect to each other, or a
     delete racing an insert could replay in the wrong order; an fsync
     is NEVER issued under [m]). Queries take it just long enough to
     (lazily build and) snapshot the memtable engine plus the segment
     list; the scatter-gather itself runs lock-free on the snapshot.
     Tombstone bitmaps are never mutated in place — a delete installs
     a copy — so a snapshot taken before a delete keeps answering from
     consistent pre-delete state.
   - [wm], the WAL lock, guards the active log writer (fd swap on
     rotation, the dirty flag) so a policy fsync runs without blocking
     readers behind the disk. Acquired inside [m] on the append path,
     alone on the sync path; never the other way around.
   - [cm], the commit lock, serializes everything that writes or
     adopts a manifest: seal, delete-commit, compaction's swap and
     orphan sweep, and reload. Manifest builds and fsyncs run while
     holding [cm] but never [m], so a burst of tombstone commits
     cannot stall reader snapshots behind the disk.
   - [generation] and [vversion] are atomics so server worker domains
     can key result caches off them without taking any lock (a plain
     mutable int would let a worker read an arbitrarily stale value
     under the multicore memory model and serve stale cached replies
     after an acked mutation).

   Lock order: [cm] before [m] before [wm]; nothing acquires [cm] (or
   the directory lock below) while holding [m] or [wm].

   Cross-process writers: the documented external-compaction flow
   means a second process may commit to the same directory. Every
   manifest commit therefore (1) takes an exclusive [Unix.lockf] lock
   on the sidecar LOCK file and (2) re-reads the on-disk generation
   under that lock; if it no longer matches the generation this store
   last loaded, the commit raises [Conflict] — failing loudly instead
   of clobbering the other writer's commit (last-writer-wins would
   silently resurrect its deletes). [reload] is how the loser adopts
   the winner's generation. POSIX record locks neither exclude nor
   survive other threads of the same process touching the lock file,
   which is exactly why in-process writers serialize on [cm] first
   and only one LOCK fd is ever open per store. *)

module Logp = Pti_prob.Logp
module U = Pti_ustring.Ustring
module L = Pti_core.Listing_index
module Engine = Pti_core.Engine
module S = Pti_storage
module F = Pti_fault

type config = {
  tau_min : float;
  relevance : L.relevance;
  backend : Engine.backend;
  memtable_max_docs : int;
  compact_min_segments : int;
}

let default_config ~tau_min =
  {
    tau_min;
    relevance = L.Rel_max;
    backend = Engine.Packed;
    memtable_max_docs = 256;
    compact_min_segments = 4;
  }

type wal_sync = Wal_always | Wal_interval of float | Wal_never

let default_wal_sync = Wal_interval 5.0

let wal_sync_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "always" -> Wal_always
  | "never" -> Wal_never
  | _ ->
      let bad () =
        failwith
          (Printf.sprintf
             "bad wal-sync policy %S (always, interval:<ms> or never)" s)
      in
      if String.length s > 9 && String.sub s 0 9 = "interval:" then
        match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
        | Some ms when ms > 0.0 && Float.is_finite ms -> Wal_interval ms
        | _ -> bad ()
      else bad ()

let wal_sync_to_string = function
  | Wal_always -> "always"
  | Wal_never -> "never"
  | Wal_interval ms -> Printf.sprintf "interval:%g" ms

exception Conflict of { dir : string; disk_gen : int; mem_gen : int }

let () =
  Printexc.register_printer (function
    | Conflict { dir; disk_gen; mem_gen } ->
        Some
          (Printf.sprintf
             "Segment_store.Conflict(%s: on-disk generation %d, in-memory %d \
              — another writer committed; reload to adopt it)"
             dir disk_gen mem_gen)
    | _ -> None)

(* An immutable sealed segment: a mapped listing container plus its
   slot → corpus-id section and the manifest-owned tombstone bitmap. *)
type seg = {
  sg_name : string;
  sg_handle : L.t;
  sg_ids : S.ints; (* local slot -> corpus doc id, strictly ascending *)
  sg_n : int;
  sg_tombs : Bytes.t; (* bit j set = slot j dead; copy-on-write *)
  sg_dead : int;
  sg_bytes : int; (* container file size, for the size-tiered policy *)
}

type t = {
  dir : string;
  cfg : config;
  read_only : bool;
  verify : bool;
  wal_sync : wal_sync;
  m : Mutex.t; (* state lock: short sections; see the header comment *)
  cm : Mutex.t; (* commit lock: serializes manifest writers; see above *)
  wm : Mutex.t; (* WAL lock: active writer fd + dirty flag *)
  generation : int Atomic.t;
  vversion : int Atomic.t;
  mutable next_doc_id : int;
  mutable seg_seq : int; (* next segment file number (monotonic) *)
  mutable segs : seg list; (* manifest order *)
  mutable mem : (int * U.t) list; (* memtable, newest first *)
  mutable mem_engine : (L.t * int array) option; (* lazily rebuilt *)
  mutable compacting : bool;
  mutable wal : S.Wal.writer option; (* None iff read-only; under [wm] *)
  mutable wal_seq : int; (* active log file number; under [m] *)
  mutable wal_records : int; (* records in the active log; under [m] *)
  mutable wal_bytes : int; (* bytes of the active log; under [m] *)
  mutable wal_dirty : bool; (* appended since last fsync; under [wm] *)
  mutable wal_last_sync : float; (* Wal_interval clock; under [wm] *)
  mutable quarantined : string list; (* scrub evictions; under [m] *)
}

let manifest_name = "MANIFEST"
let lock_name = "LOCK"
let quarantine_dir_name = "quarantine"
let manifest_path dir = Filename.concat dir manifest_name
let seg_path t name = Filename.concat t.dir name
let seg_file_name seq = Printf.sprintf "seg-%06d.pti" seq
let wal_file_name seq = Printf.sprintf "wal-%06d.log" seq

(* [Some seq] iff [name] is exactly [seg_file_name seq] (or
   [wal_file_name seq]): the round trip is what makes the match strict,
   since "%d" also reads "+3", "-1" or "1_0", and compaction's orphan
   sweep would unlink a user's "seg-+3.pti". *)
let seg_file_seq name =
  match Scanf.sscanf_opt name "seg-%d.pti%!" Fun.id with
  | Some seq when seq >= 0 && seg_file_name seq = name -> Some seq
  | _ -> None

let wal_file_seq name =
  match Scanf.sscanf_opt name "wal-%d.log%!" Fun.id with
  | Some seq when seq >= 0 && wal_file_name seq = name -> Some seq
  | _ -> None

let wal_path dir seq = Filename.concat dir (wal_file_name seq)

(* Every wal-*.log in [dir], ascending by sequence number. *)
let wal_files dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun n ->
         match wal_file_seq n with Some s -> Some (s, n) | None -> None)
  |> List.sort compare

let dir t = t.dir
let generation t = Atomic.get t.generation
let version t = Atomic.get t.vversion

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let committing t f =
  Mutex.lock t.cm;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cm) f

(* Exclusive cross-process lock held for the duration of one manifest
   commit. Closing the fd releases the lock even if the process dies
   mid-commit (the kernel drops record locks with the descriptor). *)
let with_dir_lock dir f =
  let fd =
    Unix.openfile (Filename.concat dir lock_name)
      [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* ------------------------------------------------------------------ *)
(* Write-ahead log records. One [wal_op] per framed record
   (Pti_storage.Wal does the length + checksum framing): a tag byte
   ('I' insert, 'D' delete, 'S' seal), the document id or generation as
   an 8-byte little-endian int, and for an insert the document in
   [Ustring.encode] form. W_seal is a marker only — the seal's
   durability is its manifest commit — but having every mutation leave
   a record makes the log a complete, ordered account of the write
   path for forensics and tests. *)

type wal_op = W_insert of int * U.t | W_delete of int | W_seal of int

let wal_encode op =
  let tag, v, doc =
    match op with
    | W_insert (id, u) -> ('I', id, U.encode u)
    | W_delete id -> ('D', id, "")
    | W_seal gen -> ('S', gen, "")
  in
  let b = Buffer.create (9 + String.length doc) in
  Buffer.add_char b tag;
  Buffer.add_int64_le b (Int64.of_int v);
  Buffer.add_string b doc;
  Buffer.contents b

let wal_decode s =
  let bad reason = raise (S.Corrupt { section = "wal"; reason }) in
  let len = String.length s in
  (* 0x84 opens every OCaml Marshal header, the record format of
     earlier logs; no tag byte takes that value *)
  if len > 0 && s.[0] = '\x84' then S.retired "wal" "a log of marshalled records";
  if len < 9 then bad "record shorter than its header";
  let v = Int64.to_int (String.get_int64_le s 1) in
  if v < 0 then bad "negative id";
  match s.[0] with
  | 'I' -> (
      match U.decode (String.sub s 9 (len - 9)) with
      | u when U.length u > 0 -> W_insert (v, u)
      | _ -> bad "empty document"
      | exception Invalid_argument reason -> bad reason)
  | 'D' when len = 9 -> W_delete v
  | 'S' when len = 9 -> W_seal v
  | _ -> bad "unknown record tag or trailing bytes"

(* Caller holds [t.m]: the record lands in the log in exactly the
   order the memtable mutation becomes visible. An exception here
   (ENOSPC, injected fault) aborts the mutation before any in-memory
   state changed — at worst a torn tail the next open truncates. *)
let wal_append_locked t op =
  match t.wal with
  | None -> ()
  | Some w ->
      let payload = wal_encode op in
      Mutex.lock t.wm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () ->
          S.Wal.append w payload;
          t.wal_dirty <- true);
      t.wal_records <- t.wal_records + 1;
      t.wal_bytes <- t.wal_bytes + S.Wal.header_bytes + String.length payload

(* Policy fsync, outside [t.m] so readers never wait on the disk.
   [force] flushes regardless of the interval clock (but still never
   under Wal_never) — the idle-flusher entry point. *)
let wal_flush ?(force = false) t =
  let due now =
    match t.wal_sync with
    | Wal_never -> false
    | Wal_always -> true
    | Wal_interval ms -> force || now -. t.wal_last_sync >= ms /. 1000.0
  in
  match t.wal_sync with
  | Wal_never -> ()
  | _ ->
      let now = Unix.gettimeofday () in
      if due now then begin
        Mutex.lock t.wm;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.wm)
          (fun () ->
            if t.wal_dirty then begin
              (match t.wal with Some w -> S.Wal.sync w | None -> ());
              t.wal_dirty <- false;
              t.wal_last_sync <- now
            end)
      end

let sync_wal t = wal_flush ~force:true t
let wal_policy t = t.wal_sync

(* ------------------------------------------------------------------ *)
(* Tombstone bitmaps *)

let bitmap_len n = Stdlib.max 1 ((n + 7) / 8)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let popcount b n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if bit_get b i then incr c
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Manifest: a small PTI-ENGINE-4 container, one per commit, every
   section typed. Segment files are named by their sequence number
   ([seg_file_name]), so the manifest stores numbers:
     corpus.meta       ints   [| format; generation; next_doc_id; seg_seq |]
     corpus.quarantine ints   scrub-evicted segments (only when non-empty)
     corpus.config     ints   [| relevance; backend; memtable_max_docs;
                                 compact_min_segments |]
     corpus.tau_min    floats [| tau_min |]
     corpus.segments   ints   segment sequence numbers, manifest order
     corpus.counts     ints   documents per segment
     corpus.tombs.<i>  bits   per-segment tombstone bitmap
   Writing it through Pti_storage.Writer buys checksums, typed Corrupt
   rejection and the crash-safe rename for free. Format 1 held
   marshalled config, segment and quarantine blobs; it is refused. *)

let manifest_format = 2

let backend_tag = function Engine.Packed -> 0 | Engine.Succinct -> 1

(* raises on any write/fsync/rename fault with the destination
   manifest untouched *)
let write_manifest ~dir ~cfg ~gen ~next_doc_id ~seg_seq ~quarantined ~segs =
  let w = S.Writer.create (manifest_path dir) in
  (* every segment file is named [seg_file_name seq] *)
  let seqs names = Array.of_list (List.map (fun n -> Option.get (seg_file_seq n)) names) in
  S.Writer.add_ints w "corpus.meta" [| manifest_format; gen; next_doc_id; seg_seq |];
  if quarantined <> [] then S.Writer.add_ints w "corpus.quarantine" (seqs quarantined);
  S.Writer.add_ints w "corpus.config"
    [|
      L.relevance_tag cfg.relevance;
      backend_tag cfg.backend;
      cfg.memtable_max_docs;
      cfg.compact_min_segments;
    |];
  S.Writer.add_floats w "corpus.tau_min" [| cfg.tau_min |];
  S.Writer.add_ints w "corpus.segments" (seqs (List.map (fun s -> s.sg_name) segs));
  S.Writer.add_ints w "corpus.counts"
    (Array.of_list (List.map (fun s -> s.sg_n) segs));
  List.iteri
    (fun i s ->
      S.Writer.add_bits w
        (Printf.sprintf "corpus.tombs.%d" i)
        (S.Bits.of_bytes s.sg_tombs))
    segs;
  S.Writer.close w

type manifest = {
  mf_gen : int;
  mf_next_doc_id : int;
  mf_seg_seq : int;
  mf_cfg : config;
  mf_segs : (string * int * Bytes.t) list; (* name, n_docs, tombstones *)
  mf_quarantine : string list; (* scrub-evicted segment files *)
}

let corrupt section reason = raise (S.Corrupt { section; reason })

let read_manifest ?(verify = true) dir =
  let r = S.Reader.open_file ~verify (manifest_path dir) in
  let ints ?arity ?(min = min_int) section =
    let a = S.Ints.to_array (S.Reader.ints r section) in
    if Option.fold ~none:false ~some:(( <> ) (Array.length a)) arity then
      corrupt section "wrong arity";
    if Array.exists (fun v -> v < min) a then corrupt section "value out of range";
    a
  in
  let meta = ints ~arity:4 ~min:0 "corpus.meta" in
  if meta.(0) = 1 then
    S.retired "corpus.meta" "a format-1 manifest (marshalled sections)";
  if meta.(0) <> manifest_format then
    corrupt "corpus.meta" (Printf.sprintf "unsupported manifest format %d" meta.(0));
  let config = ints ~arity:4 "corpus.config" in
  let relevance =
    match L.relevance_of_tag config.(0) with
    | Some rel -> rel
    | None -> corrupt "corpus.config" "unknown relevance tag"
  in
  let backend =
    match config.(1) with
    | 0 -> Engine.Packed
    | 1 -> Engine.Succinct
    | n -> corrupt "corpus.config" (Printf.sprintf "unknown backend tag %d" n)
  in
  let tau = S.Reader.floats r "corpus.tau_min" in
  let tau_min = if S.Floats.length tau = 1 then S.Floats.get tau 0 else nan in
  if not (tau_min > 0.0 && tau_min < 1.0) then
    corrupt "corpus.tau_min" "expected one tau_min in (0, 1)";
  let names section = Array.to_list (Array.map seg_file_name (ints ~min:0 section)) in
  let segments = names "corpus.segments" in
  let counts = ints ~arity:(List.length segments) ~min:0 "corpus.counts" in
  let segs =
    List.mapi
      (fun i name ->
        let section = Printf.sprintf "corpus.tombs.%d" i in
        let b = S.Bits.to_bytes (S.Reader.bits r section) in
        if Bytes.length b < bitmap_len counts.(i) then
          corrupt section "tombstone bitmap shorter than segment";
        (name, counts.(i), b))
      segments
  in
  {
    mf_gen = meta.(1);
    mf_next_doc_id = meta.(2);
    mf_seg_seq = meta.(3);
    mf_cfg =
      {
        tau_min;
        relevance;
        backend;
        memtable_max_docs = config.(2);
        compact_min_segments = config.(3);
      };
    mf_segs = segs;
    mf_quarantine =
      (if S.Reader.has r "corpus.quarantine" then names "corpus.quarantine" else []);
  }

(* The generation currently committed on disk; [~verify:false] checks
   only the envelope, enough to trust the meta words. *)
let disk_generation dir =
  let r = S.Reader.open_file ~verify:false (manifest_path dir) in
  let meta = S.Reader.ints r "corpus.meta" in
  if S.Ints.length meta < 4 then corrupt "corpus.meta" "short meta section";
  S.Ints.get meta 1

(* ------------------------------------------------------------------ *)
(* Segment open/close *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let open_segment ~dir ~verify (name, n, tombs) =
  let path = Filename.concat dir name in
  let handle = L.load ~verify path in
  if L.n_docs handle <> n then
    corrupt "segment.docids"
      (Printf.sprintf "%s: manifest says %d docs, container has %d" name n
         (L.n_docs handle));
  (* the id map lives in the same container; the verified open above
     already checksummed every section, so this reader can skip it *)
  let r = S.Reader.open_file ~verify:false path in
  let ids = S.Reader.ints r "segment.docids" in
  if S.Ints.length ids <> n then
    corrupt "segment.docids" (name ^ ": id map length mismatch");
  {
    sg_name = name;
    sg_handle = handle;
    sg_ids = ids;
    sg_n = n;
    sg_tombs = tombs;
    sg_dead = popcount tombs n;
    sg_bytes = file_size path;
  }

(* strictly-ascending id map: binary search for [id], None if absent *)
let slot_of_id ids n id =
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = S.Ints.get ids mid in
    if v = id then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < id then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 then Some !found else None

(* ------------------------------------------------------------------ *)
(* Construction *)

let of_manifest ~dir ~read_only ~verify ~wal_sync (m : manifest) =
  {
    dir;
    cfg = m.mf_cfg;
    read_only;
    verify;
    wal_sync;
    m = Mutex.create ();
    cm = Mutex.create ();
    wm = Mutex.create ();
    generation = Atomic.make m.mf_gen;
    vversion = Atomic.make 0;
    next_doc_id = m.mf_next_doc_id;
    seg_seq = m.mf_seg_seq;
    segs = List.map (open_segment ~dir ~verify) m.mf_segs;
    mem = [];
    mem_engine = None;
    compacting = false;
    wal = None;
    wal_seq = 0;
    wal_records = 0;
    wal_bytes = 0;
    wal_dirty = false;
    wal_last_sync = Unix.gettimeofday ();
    quarantined = m.mf_quarantine;
  }

let create ?config ?(wal_sync = default_wal_sync) dir_ =
  let cfg =
    match config with Some c -> c | None -> default_config ~tau_min:0.1
  in
  if cfg.tau_min <= 0.0 || cfg.tau_min >= 1.0 then
    invalid_arg "Segment_store.create: tau_min must be in (0, 1)";
  if Sys.file_exists (manifest_path dir_) then
    invalid_arg
      (Printf.sprintf "Segment_store.create: %s already holds a manifest" dir_);
  if not (Sys.file_exists dir_) then Unix.mkdir dir_ 0o755;
  with_dir_lock dir_ (fun () ->
      (* re-check under the lock: two concurrent inits must not both
         write generation 0 *)
      if Sys.file_exists (manifest_path dir_) then
        invalid_arg
          (Printf.sprintf "Segment_store.create: %s already holds a manifest"
             dir_);
      (* a stale log from a previous life of this directory must not
         replay into the fresh corpus *)
      List.iter
        (fun (seq, _) -> S.Wal.remove (wal_path dir_ seq))
        (wal_files dir_);
      write_manifest ~dir:dir_ ~cfg ~gen:0 ~next_doc_id:0 ~seg_seq:0
        ~quarantined:[] ~segs:[]);
  let t =
    of_manifest ~dir:dir_ ~read_only:false ~verify:true ~wal_sync
      {
        mf_gen = 0;
        mf_next_doc_id = 0;
        mf_seg_seq = 0;
        mf_cfg = cfg;
        mf_segs = [];
        mf_quarantine = [];
      }
  in
  t.wal <- Some (S.Wal.open_writer (wal_path dir_ 0));
  t

(* Replay one scanned WAL payload into the just-opened store. The log
   can hold records the manifest already covers (crash after a seal's
   manifest commit but before its WAL rotation finished), so replay is
   idempotent: an insert whose id is already sealed — or already
   replayed — is skipped. File order is oldest-first; prepending keeps
   [t.mem] in its newest-first invariant. *)
let replay_record t payload =
  match wal_decode payload with
  | W_seal _ -> ()
  | W_insert (id, u) ->
      let sealed =
        List.exists (fun s -> slot_of_id s.sg_ids s.sg_n id <> None) t.segs
      in
      if (not sealed) && not (List.mem_assoc id t.mem) then
        t.mem <- (id, u) :: t.mem;
      t.next_doc_id <- Stdlib.max t.next_doc_id (id + 1)
  | W_delete id ->
      if List.mem_assoc id t.mem then t.mem <- List.remove_assoc id t.mem

(* Replay every wal-NNNNNN.log (ascending) on top of the manifest
   generation. Torn tails are truncated on disk (writable stores) or
   ignored in memory (read-only); Pti_storage.Wal.scan already raised
   [Corrupt] for a damaged record that is NOT the tail. A writable open
   then consolidates: with more than one log on disk (a crash left a
   half-finished rotation) the surviving memtable is re-logged into one
   fresh fsynced file under the directory lock; a single clean log is
   simply reopened for append, so an external [pti corpus ...] process
   never destroys a live daemon's active log. *)
let recover_wal t =
  let files = wal_files t.dir in
  let torn = ref false in
  List.iter
    (fun (seq, _) ->
      let path = wal_path t.dir seq in
      let scan = S.Wal.scan path in
      if scan.S.Wal.ws_torn then begin
        torn := true;
        if not t.read_only then S.Wal.truncate path scan.S.Wal.ws_valid_bytes
      end;
      List.iter (replay_record t) scan.S.Wal.ws_records;
      t.wal_records <- t.wal_records + List.length scan.S.Wal.ws_records;
      t.wal_bytes <- t.wal_bytes + scan.S.Wal.ws_valid_bytes)
    files;
  if not t.read_only then begin
    let max_seq = List.fold_left (fun a (s, _) -> Stdlib.max a s) (-1) files in
    if List.length files > 1 then
      (* consolidate under the lock so a racing external writer can't
         observe (or produce) a second active log mid-swap *)
      with_dir_lock t.dir (fun () ->
          let seq = max_seq + 1 in
          let w = S.Wal.open_writer (wal_path t.dir seq) in
          let records = List.rev_map (fun (id, u) -> wal_encode (W_insert (id, u))) t.mem in
          List.iter (S.Wal.append w) records;
          S.Wal.sync w;
          t.wal <- Some w;
          t.wal_seq <- seq;
          t.wal_records <- List.length records;
          t.wal_bytes <-
            List.fold_left (fun a r -> a + S.Wal.header_bytes + String.length r) 0 records;
          List.iter (fun (s, _) -> S.Wal.remove (wal_path t.dir s)) files)
    else begin
      let seq = Stdlib.max max_seq 0 in
      t.wal_seq <- seq;
      t.wal <- Some (S.Wal.open_writer (wal_path t.dir seq));
      if files = [] then begin
        t.wal_records <- 0;
        t.wal_bytes <- 0
      end
    end
  end

let open_dir ?(read_only = false) ?(verify = true)
    ?(wal_sync = default_wal_sync) dir_ =
  if not (Sys.file_exists (manifest_path dir_)) then
    raise (Sys_error (dir_ ^ ": not a corpus directory (no MANIFEST)"));
  let t =
    of_manifest ~dir:dir_ ~read_only ~verify ~wal_sync
      (read_manifest ~verify dir_)
  in
  recover_wal t;
  if t.mem <> [] then Atomic.incr t.vversion;
  t

(* ------------------------------------------------------------------ *)
(* Commit: durable manifest first, in-memory state second. The caller
   holds [t.cm] and passes the full candidate segment list; nothing is
   mutated on failure. [install] runs under [t.m] in the same critical
   section that publishes the new list, so a reader snapshot can never
   observe the segment swap without its side effects (e.g. seal
   clearing the sealed documents from the memtable — splitting the two
   would let one query see a document both sealed and unsealed). *)

let commit t ?(install = fun () -> ()) ?quarantined ~segs () =
  let mem_gen = Atomic.get t.generation in
  let gen = mem_gen + 1 in
  let next_doc_id, seg_seq = locked t (fun () -> (t.next_doc_id, t.seg_seq)) in
  let quarantined =
    match quarantined with Some q -> q | None -> t.quarantined
  in
  with_dir_lock t.dir (fun () ->
      (* commit-time check, race-free under the directory lock: if
         another process moved the manifest since this store loaded
         it, refuse — last-writer-wins here would silently resurrect
         the other writer's deletes *)
      let disk_gen = disk_generation t.dir in
      if disk_gen <> mem_gen then
        raise (Conflict { dir = t.dir; disk_gen; mem_gen });
      write_manifest ~dir:t.dir ~cfg:t.cfg ~gen ~next_doc_id ~seg_seq
        ~quarantined ~segs);
  locked t (fun () ->
      Atomic.set t.generation gen;
      t.segs <- segs;
      t.quarantined <- quarantined;
      Atomic.incr t.vversion;
      install ())

(* Retire the write-ahead log after a commit emptied the memtable:
   every record it holds is now manifest-covered, so the file can be
   unlinked and a fresh (empty) one started — this is what bounds
   replay to one memtable's worth of records. Caller holds [t.cm]
   (seal/compact), so no concurrent seal races the swap; concurrent
   inserts are handled by re-checking the memtable under [t.m] and
   abandoning the rotation if one slipped in (its record is in the OLD
   file, which must then survive). *)
let rotate_wal t =
  if (not t.read_only) && t.wal <> None then begin
    let want = locked t (fun () -> t.mem = [] && t.wal_records > 0) in
    if want then begin
      let new_seq = t.wal_seq + 1 in
      let nw = S.Wal.open_writer (wal_path t.dir new_seq) in
      let retired =
        locked t (fun () ->
            if t.mem <> [] then None
            else begin
              Mutex.lock t.wm;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock t.wm)
                (fun () ->
                  let old = t.wal in
                  t.wal <- Some nw;
                  t.wal_dirty <- false;
                  (match old with Some w -> S.Wal.close w | None -> ()));
              let old_seq = t.wal_seq in
              t.wal_seq <- new_seq;
              t.wal_records <- 0;
              t.wal_bytes <- 0;
              Some old_seq
            end)
      in
      (* the unlink (and its directory fsync) happens outside [t.m] so
         a rotation never stalls the read path *)
      match retired with
      | Some old_seq -> S.Wal.remove (wal_path t.dir old_seq)
      | None ->
          S.Wal.close nw;
          S.Wal.remove (wal_path t.dir new_seq)
    end
  end

let check_writable t name =
  if t.read_only then invalid_arg ("Segment_store." ^ name ^ ": read-only store")

(* ------------------------------------------------------------------ *)
(* Memtable *)

let build_listing t docs =
  L.build ~relevance:t.cfg.relevance ~backend:t.cfg.backend
    ~tau_min:t.cfg.tau_min docs

(* caller holds [t.m] *)
let mem_snapshot t =
  match (t.mem, t.mem_engine) with
  | [], _ -> None
  | _, Some e -> Some e
  | docs_rev, None ->
      let docs = List.rev docs_rev in
      let e =
        ( build_listing t (List.map snd docs),
          Array.of_list (List.map fst docs) )
      in
      t.mem_engine <- Some e;
      Some e

(* rough heap footprint of the unsealed documents, for the metrics
   gauge: choices dominate (a sym + boxed float per choice) *)
let mem_bytes_estimate docs =
  List.fold_left
    (fun acc (_, u) -> acc + 48 + (24 * U.length u) + (32 * U.n_choices u))
    0 docs

(* ------------------------------------------------------------------ *)
(* Seal *)

let seal t =
  check_writable t "seal";
  committing t (fun () ->
      (* snapshot the memtable under the state lock; inserts landing
         after this point stay in the memtable untouched. A cached
         engine always corresponds to the current memtable (every
         insert/delete invalidates it under the same lock). *)
      let docs_rev, cached = locked t (fun () -> (t.mem, t.mem_engine)) in
      match List.rev docs_rev with
      | [] -> false
      | docs ->
          ignore (F.hit "segment.seal" : int option);
          (* marker record: closes this memtable's run in the log, so a
             post-crash forensic read of a retired-late WAL shows where
             the durable boundary was *)
          locked t (fun () ->
              wal_append_locked t (W_seal (Atomic.get t.generation + 1)));
          wal_flush t;
          let ids = Array.of_list (List.map fst docs) in
          let l =
            match cached with
            | Some (e, _) -> e
            | None -> build_listing t (List.map snd docs)
          in
          let reserved =
            locked t (fun () ->
                let s = t.seg_seq in
                t.seg_seq <- s + 1;
                s)
          in
          let name = seg_file_name reserved in
          (match
             L.save l (seg_path t name) ~extra:(fun w ->
                 S.Writer.add_ints w "segment.docids" ids);
             let seg =
               open_segment ~dir:t.dir ~verify:t.verify
                 ( name,
                   Array.length ids,
                   Bytes.make (bitmap_len (Array.length ids)) '\000' )
             in
             let sealed = Hashtbl.create (Array.length ids) in
             Array.iter (fun id -> Hashtbl.replace sealed id ()) ids;
             let segs = locked t (fun () -> t.segs) @ [ seg ] in
             commit t ~segs
               ~install:(fun () ->
                 t.mem <-
                   List.filter (fun (id, _) -> not (Hashtbl.mem sealed id)) t.mem;
                 t.mem_engine <- None)
               ()
           with
          | () -> ()
          | exception e ->
              (* the manifest still names the old set. Release the
                 reserved sequence number ONLY if no later reservation
                 happened meanwhile: sequence numbers must never be
                 handed out twice, or a retried seal could rename its
                 file over a pending compaction output *)
              locked t (fun () ->
                  if t.seg_seq = reserved + 1 then t.seg_seq <- reserved);
              raise e);
          (* the commit emptied the memtable (unless a concurrent
             insert slipped in): every WAL record is now
             manifest-covered, so retire the log — this bounds replay
             to one memtable *)
          rotate_wal t;
          true)

(* ------------------------------------------------------------------ *)
(* Insert / delete *)

let insert t u =
  check_writable t "insert";
  if U.length u = 0 then invalid_arg "Segment_store.insert: empty document";
  let id, want_seal =
    locked t (fun () ->
        let id = t.next_doc_id in
        (* log first, mutate second: if the append raises (disk full,
           injected fault) no state changed and the id was not burned *)
        wal_append_locked t (W_insert (id, u));
        t.next_doc_id <- id + 1;
        t.mem <- (id, u) :: t.mem;
        t.mem_engine <- None;
        Atomic.incr t.vversion;
        ( id,
          t.cfg.memtable_max_docs > 0
          && List.length t.mem >= t.cfg.memtable_max_docs ))
  in
  wal_flush t;
  if want_seal then ignore (seal t : bool);
  id

let delete t id =
  check_writable t "delete";
  committing t (fun () ->
      let removed_from_mem =
        locked t (fun () ->
            if List.mem_assoc id t.mem then begin
              wal_append_locked t (W_delete id);
              t.mem <- List.remove_assoc id t.mem;
              t.mem_engine <- None;
              Atomic.incr t.vversion;
              true
            end
            else false)
      in
      if removed_from_mem then begin
        wal_flush t;
        true
      end
      else begin
        (* [t.segs] is stable while [t.cm] is held — every mutator of
           the segment list takes the commit lock *)
        let segs = locked t (fun () -> t.segs) in
        let hit = ref false in
        let segs' =
          List.map
            (fun s ->
              if !hit then s
              else
                match slot_of_id s.sg_ids s.sg_n id with
                | Some slot when not (bit_get s.sg_tombs slot) ->
                    hit := true;
                    let tombs = Bytes.copy s.sg_tombs in
                    bit_set tombs slot;
                    { s with sg_tombs = tombs; sg_dead = s.sg_dead + 1 }
                | _ -> s)
            segs
        in
        if !hit then commit t ~segs:segs' ();
        !hit
      end)

(* ------------------------------------------------------------------ *)
(* Scatter-gather read path *)

(* Canonical result order: most probable first, corpus id breaking
   ties. Every document id occurs in exactly one source, so this total
   order makes the merged answer independent of how the corpus is cut
   into segments — the determinism [loadgen --verify] relies on. *)
let cmp_hit (d1, p1) (d2, p2) =
  let c = Logp.compare p2 p1 in
  if c <> 0 then c else Int.compare d1 d2

(* One source's canonically-sorted live hits, ids already corpus-wide. *)
let seg_hits s ~pattern ~tau =
  let raw = L.query s.sg_handle ~pattern ~tau in
  let live =
    if s.sg_dead = 0 then
      List.map (fun (slot, p) -> (S.Ints.get s.sg_ids slot, p)) raw
    else
      List.filter_map
        (fun (slot, p) ->
          if bit_get s.sg_tombs slot then None
          else Some (S.Ints.get s.sg_ids slot, p))
        raw
  in
  let a = Array.of_list live in
  Array.sort cmp_hit a;
  a

let mem_hits (l, ids) ~pattern ~tau =
  let a =
    Array.of_list
      (List.map (fun (slot, p) -> (ids.(slot), p)) (L.query l ~pattern ~tau))
  in
  Array.sort cmp_hit a;
  a

(* Bounded-heap k-way merge of canonically sorted sources: the heap
   holds one cursor per non-exhausted source (≤ #segments + 1 entries,
   independent of result size), so top-k stops after k pops without
   materializing the full union. *)
let merge_sources ?(limit = max_int) (sources : (int * Logp.t) array array) =
  let nsrc = Array.length sources in
  let pos = Array.make nsrc 0 in
  let heap = Array.make nsrc 0 in
  let size = ref 0 in
  let head s = sources.(s).(pos.(s)) in
  let less a b = cmp_hit (head a) (head b) < 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let rec up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less heap.(i) heap.(p) then begin
        swap i p;
        up p
      end
    end
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < !size && less heap.(l) heap.(!best) then best := l;
    if r < !size && less heap.(r) heap.(!best) then best := r;
    if !best <> i then begin
      swap i !best;
      down !best
    end
  in
  Array.iteri
    (fun s src ->
      if Array.length src > 0 then begin
        heap.(!size) <- s;
        incr size;
        up (!size - 1)
      end)
    sources;
  let out = ref [] in
  let taken = ref 0 in
  while !size > 0 && !taken < limit do
    let s = heap.(0) in
    out := head s :: !out;
    incr taken;
    pos.(s) <- pos.(s) + 1;
    if pos.(s) >= Array.length sources.(s) then begin
      size := !size - 1;
      heap.(0) <- heap.(!size)
    end;
    if !size > 0 then down 0
  done;
  List.rev !out

(* a consistent read snapshot: the (possibly just built) memtable
   engine plus the current segment records *)
let snapshot t = locked t (fun () -> (mem_snapshot t, t.segs))

let gather ?limit t ~pattern ~tau =
  let mem, segs = snapshot t in
  let sources =
    let seg_sources = List.map (fun s -> seg_hits s ~pattern ~tau) segs in
    match mem with
    | None -> seg_sources
    | Some e -> mem_hits e ~pattern ~tau :: seg_sources
  in
  merge_sources ?limit (Array.of_list sources)

let query t ~pattern ~tau = gather t ~pattern ~tau

let query_top_k t ~pattern ~tau ~k =
  if k <= 0 then [] else gather ~limit:k t ~pattern ~tau

let count t ~pattern ~tau = List.length (gather t ~pattern ~tau)

(* ------------------------------------------------------------------ *)
(* Compaction *)

(* Size-tiered candidate selection: the tier is every segment within
   2× of the smallest one's size. High overall tombstone ratio makes
   every segment a candidate (the merge is what reclaims the space). *)
let dead_live segs =
  List.fold_left (fun (d, l) s -> (d + s.sg_dead, l + (s.sg_n - s.sg_dead))) (0, 0) segs

let smallest_tier segs =
  match
    List.sort (fun a b -> compare (a.sg_bytes, a.sg_name) (b.sg_bytes, b.sg_name)) segs
  with
  | [] -> []
  | smallest :: _ as sorted ->
      List.filter (fun s -> s.sg_bytes <= 2 * smallest.sg_bytes) sorted

let high_tombstone segs =
  let dead, live = dead_live segs in
  dead > 0 && float_of_int dead > 0.3 *. float_of_int (dead + live)

(* caller holds [t.m] *)
let candidates ~force t =
  let viable inputs =
    List.length inputs >= 2
    || List.exists (fun s -> s.sg_dead > 0) inputs
    (* a pending quarantine makes any rewrite worthwhile: the commit is
       what clears the degradation marker (read-repair, DESIGN.md §15) *)
    || (t.quarantined <> [] && inputs <> [])
  in
  let inputs =
    if force then t.segs
    else if high_tombstone t.segs then t.segs
    else begin
      let tier = smallest_tier t.segs in
      if List.length tier >= t.cfg.compact_min_segments then tier else []
    end
  in
  if viable inputs then inputs else []

let needs_compaction t = locked t (fun () -> candidates ~force:false t <> [])

(* Survivors of [inputs] under the snapshot bitmaps, ascending by
   corpus id (inputs hold disjoint id sets, each already ascending). *)
let survivors inputs =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun slot ->
          if bit_get s.sg_tombs slot then None
          else Some (S.Ints.get s.sg_ids slot, L.doc s.sg_handle slot))
        (List.init s.sg_n Fun.id))
    inputs
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let compact ?(force = false) t =
  check_writable t "compact";
  let picked =
    locked t (fun () ->
        if t.compacting then None
        else
          match candidates ~force t with
          | [] -> None
          | inputs ->
              t.compacting <- true;
              let out_seq = t.seg_seq in
              t.seg_seq <- out_seq + 1;
              Some (inputs, out_seq))
  in
  match picked with
  | None -> false
  | Some (inputs, out_seq) ->
      Fun.protect
        ~finally:(fun () -> locked t (fun () -> t.compacting <- false))
        (fun () ->
          ignore (F.hit "segment.compact" : int option);
          (* merge outside all locks: the snapshot bitmaps are
             copy-on-write, so concurrent deletes cannot shift what we
             read here — they are re-applied at swap time below *)
          let docs = survivors inputs in
          let built =
            match docs with
            | [] -> None
            | docs ->
                let ids = Array.of_list (List.map fst docs) in
                let l = build_listing t (List.map snd docs) in
                let name = seg_file_name out_seq in
                L.save l (seg_path t name) ~extra:(fun w ->
                    S.Writer.add_ints w "segment.docids" ids);
                Some name
          in
          let input_names = List.map (fun s -> s.sg_name) inputs in
          committing t (fun () ->
              (* [t.segs] is stable under [t.cm]; deletes committed
                 while the merge ran live in the CURRENT records *)
              let cur_segs = locked t (fun () -> t.segs) in
              let out =
                match built with
                | None -> None
                | Some name ->
                    let seg =
                      open_segment ~dir:t.dir ~verify:t.verify
                        ( name,
                          List.length docs,
                          Bytes.make (bitmap_len (List.length docs)) '\000' )
                    in
                    (* tombstone their ids in the output so documents
                       deleted during the merge stay dead *)
                    let tombs = ref seg.sg_tombs in
                    let dead = ref 0 in
                    List.iter
                      (fun cur ->
                        match
                          List.find_opt (fun s -> s.sg_name = cur.sg_name) inputs
                        with
                        | None -> ()
                        | Some old ->
                            for slot = 0 to cur.sg_n - 1 do
                              if
                                bit_get cur.sg_tombs slot
                                && not (bit_get old.sg_tombs slot)
                              then begin
                                match
                                  slot_of_id seg.sg_ids seg.sg_n
                                    (S.Ints.get cur.sg_ids slot)
                                with
                                | None -> ()
                                | Some oslot ->
                                    if not (bit_get !tombs oslot) then begin
                                      if !dead = 0 then tombs := Bytes.copy !tombs;
                                      bit_set !tombs oslot;
                                      incr dead
                                    end
                              end
                            done)
                      cur_segs;
                    Some { seg with sg_tombs = !tombs; sg_dead = !dead }
              in
              let keep =
                List.filter
                  (fun s -> not (List.mem s.sg_name input_names))
                  cur_segs
              in
              let segs' =
                match out with None -> keep | Some seg -> keep @ [ seg ]
              in
              (* the rewrite re-verified everything that survived, so a
                 successful compaction clears the degraded marker *)
              commit t ~segs:segs' ~quarantined:[] ();
              (* The new generation is durable; the inputs and any
                 orphans older transitions left behind are garbage.
                 Two guards make unlinking safe against writers whose
                 rename→manifest-commit window could otherwise race
                 the readdir below into unlinking a file a manifest is
                 about to reference:
                 - in-process writers (seal) rename and commit while
                   holding [t.cm], which this sweep also holds;
                 - other processes are covered by the sequence
                   watermark: their pending output is always numbered
                   at or above the seg_seq this store just committed
                   (they loaded it from a manifest at least as new),
                   while every local orphan was reserved — hence
                   numbered — strictly below it. Sequence numbers are
                   never re-issued while another reservation is
                   outstanding (see seal's rollback), so nothing below
                   the watermark can ever be referenced again. *)
              let watermark = locked t (fun () -> t.seg_seq) in
              let referenced = List.map (fun s -> s.sg_name) segs' in
              Array.iter
                (fun name ->
                  match seg_file_seq name with
                  | Some seq
                    when seq < watermark && not (List.mem name referenced) -> (
                      try Sys.remove (seg_path t name) with Sys_error _ -> ())
                  | _ -> ())
                (try Sys.readdir t.dir with Sys_error _ -> [||]);
              rotate_wal t);
          true)

(* ------------------------------------------------------------------ *)
(* Reload *)

let reload t =
  let m = read_manifest ~verify:t.verify t.dir in
  committing t (fun () ->
      let mem_gen = Atomic.get t.generation in
      if m.mf_gen <= mem_gen then begin
        (* equal: nothing to do. Lower: a stale manifest (restored
           backup, tampering) must never roll the live store back to
           an older segment set — refuse and say so *)
        if m.mf_gen < mem_gen then
          Printf.eprintf
            "pti: %s: on-disk manifest generation %d is behind in-memory %d; \
             refusing to regress\n\
             %!"
            t.dir m.mf_gen mem_gen;
        false
      end
      else begin
        let cur_segs = locked t (fun () -> t.segs) in
        let segs =
          List.map
            (fun (name, n, tombs) ->
              match
                List.find_opt (fun s -> s.sg_name = name && s.sg_n = n) cur_segs
              with
              | Some s ->
                  (* same immutable container: keep the mapping, adopt
                     the manifest's (possibly newer) tombstones *)
                  { s with sg_tombs = tombs; sg_dead = popcount tombs n }
              | None -> open_segment ~dir:t.dir ~verify:t.verify (name, n, tombs))
            m.mf_segs
        in
        locked t (fun () ->
            t.segs <- segs;
            t.quarantined <- m.mf_quarantine;
            Atomic.set t.generation m.mf_gen;
            t.next_doc_id <- Stdlib.max t.next_doc_id m.mf_next_doc_id;
            t.seg_seq <- Stdlib.max t.seg_seq m.mf_seg_seq;
            Atomic.incr t.vversion);
        true
      end)

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  st_generation : int;
  st_segments : int;
  st_memtable_docs : int;
  st_memtable_bytes : int;
  st_live_docs : int;
  st_tombstones : int;
  st_segment_bytes : int;
  st_next_doc_id : int;
  st_degraded_segments : int;
  st_wal_records : int;
  st_wal_bytes : int;
}

let stats t =
  locked t (fun () ->
      let dead, live = dead_live t.segs in
      {
        st_generation = Atomic.get t.generation;
        st_segments = List.length t.segs;
        st_memtable_docs = List.length t.mem;
        st_memtable_bytes = mem_bytes_estimate t.mem;
        st_live_docs = live;
        st_tombstones = dead;
        st_segment_bytes = List.fold_left (fun a s -> a + s.sg_bytes) 0 t.segs;
        st_next_doc_id = t.next_doc_id;
        st_degraded_segments = List.length t.quarantined;
        st_wal_records = t.wal_records;
        st_wal_bytes = t.wal_bytes;
      })

let tombstone_ratio st =
  let total = st.st_live_docs + st.st_tombstones in
  if total = 0 then 0.0 else float_of_int st.st_tombstones /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Integrity scrubbing *)

type scrub_report = {
  sc_scanned : int;
  sc_bytes : int;
  sc_corrupt : (string * string) list;
  sc_quarantined : int;
  sc_io_errors : int;
}

(* Evict the named segments through a normal manifest commit. The
   rename into quarantine/ happens BEFORE the commit — the other order
   would let compact's orphan sweep unlink the evidence, or leave a
   committed manifest referencing a file we then fail to move — and is
   rolled back if the commit raises (Conflict, injected fault), so the
   store never ends up with a manifest naming a segment that is not
   where the manifest says. In-flight query snapshots keep their mmap
   of a renamed file: the inode lives on until they drop it. *)
let quarantine_segments t names =
  if names = [] then 0
  else
    committing t (fun () ->
        let cur = locked t (fun () -> t.segs) in
        (* a concurrent compaction may have already retired a victim *)
        let victims = List.filter (fun s -> List.mem s.sg_name names) cur in
        if victims = [] then 0
        else begin
          let qdir = Filename.concat t.dir quarantine_dir_name in
          if not (Sys.file_exists qdir) then Unix.mkdir qdir 0o755;
          let moved = ref [] in
          (try
             List.iter
               (fun s ->
                 Unix.rename (seg_path t s.sg_name)
                   (Filename.concat qdir s.sg_name);
                 moved := s.sg_name :: !moved)
               victims;
             let victim_names = List.map (fun s -> s.sg_name) victims in
             let keep =
               List.filter (fun s -> not (List.mem s.sg_name victim_names)) cur
             in
             let q = locked t (fun () -> t.quarantined) in
             commit t ~segs:keep ~quarantined:(q @ victim_names) ()
           with e ->
             List.iter
               (fun n ->
                 try Unix.rename (Filename.concat qdir n) (seg_path t n)
                 with Unix.Unix_error _ -> ())
               !moved;
             raise e);
          List.length victims
        end)

let scrub ?(budget_mb_s = 0.0) t =
  let snapshot =
    locked t (fun () -> List.map (fun s -> (s.sg_name, s.sg_bytes)) t.segs)
  in
  let scanned = ref 0 and bytes = ref 0 and io_errors = ref 0 in
  let corrupt = ref [] in
  List.iter
    (fun (name, size) ->
      (match
         ignore (F.hit "scrub.read" : int option);
         (* a fresh verifying reader re-walks every section checksum
            against the bytes on disk right now — rot that crept in
            after the serving mmap was established is still caught *)
         ignore (S.Reader.open_file ~verify:true (seg_path t name) : S.Reader.t)
       with
      | () ->
          incr scanned;
          bytes := !bytes + size
      | exception S.Corrupt { section; reason = _ } ->
          incr scanned;
          bytes := !bytes + size;
          corrupt := (name, section) :: !corrupt
      | exception (Unix.Unix_error _ | Sys_error _) -> incr io_errors);
      if budget_mb_s > 0.0 && size > 0 then
        Unix.sleepf (float_of_int size /. (budget_mb_s *. 1024. *. 1024.)))
    snapshot;
  let corrupt = List.rev !corrupt in
  let quarantined =
    if t.read_only then 0 else quarantine_segments t (List.map fst corrupt)
  in
  {
    sc_scanned = !scanned;
    sc_bytes = !bytes;
    sc_corrupt = corrupt;
    sc_quarantined = quarantined;
    sc_io_errors = !io_errors;
  }
