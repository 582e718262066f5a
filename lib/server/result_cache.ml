(* Server-side query-result cache. See the mli for the contract; the
   implementation notes here cover what the signature can't say.

   Sharding: key hash picks a shard; each shard is an independent
   (mutex, hashtable, LRU list, doorkeeper, byte budget). Contention is
   therefore 1/nshards of a global lock, and a worker holding one
   shard's lock never blocks lookups on the others.

   LRU: an intrusive circular doubly-linked list with a sentinel. O(1)
   touch / insert / evict — no O(n) scans, the cache may hold hundreds
   of thousands of entries.

   Table: created for the most entries the shard's budget can hold
   (every entry costs at least [min_entry_bytes]), so it never resizes.
   A growing stdlib Hashtbl doubles and rehashes every binding in one
   go; under the shard lock, growing past 131k/262k/524k entries stalls
   every lookup for 71/147/305 ms, long enough to overflow the request
   queue.

   Admission (TinyLFU's doorkeeper): a table miss tests the key's two
   bits in the shard's bitmap. Both set: the key was seen before and
   takes the single-flight path. Otherwise they are set and the miss
   is a [Bypass]. The bitmap has 16 bits per key of its window and is
   cleared once [window] keys have been recorded, so a key is
   remembered across about as many distinct keys as the shard can hold
   entries, and a key never seen answers "seen" with probability at
   most (1 - e^(-1/8))^2 ≈ 1.4%.

   Single flight: a miss installs an [In_flight] slot before the owner
   starts computing. A later lookup of the same key either joins the
   flight as a waiter (the caller passed [~join]) or is told [Busy]
   (it did not: the caller has no room to hold one more request).
   Waiters are plain values kept on the flight record under the shard
   lock; the owner's {!fill} or {!cancel} removes the slot and hands
   them back exactly once, and the owner answers them. Nobody ever
   blocks on a flight, so there is no wait graph and no deadlock
   discipline to keep.

   Staleness: [gen] is bumped by {!invalidate} *before* the shards are
   cleared. A token snapshots [gen] at miss time; {!fill} inserts only
   if the snapshot is still current, so a computation that raced a
   reload still hands back its waiters (they get the reply value, which
   is as fresh as any non-cached reply that was already executing
   during the reload) but never leaves bytes from the old container in
   the cache. [invalidate] also removes In_flight slots, so a request
   arriving after a reload never joins a pre-reload computation; the
   waiters stay on the flight record, which the owner's token still
   holds. *)

module P = Protocol

type cached = { ctag : int; cbody : string }

(* Waiters in reverse join order; emptied when the owner settles. *)
type 'w flight = { mutable waiters : 'w list }

(* LRU node; the per-shard sentinel carries [no_value]. *)
type node = {
  nkey : string;
  value : cached;
  size : int;
  mutable prev : node;
  mutable next : node;
}

let no_value = { ctag = 0; cbody = "" }

let sentinel () =
  let rec s = { nkey = ""; value = no_value; size = 0; prev = s; next = s } in
  s

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front head n =
  n.next <- head.next;
  n.prev <- head;
  head.next.prev <- n;
  head.next <- n

type 'w slot = Ready of node | In_flight of 'w flight

(* Doorkeeper: a Bloom filter with two probes over [mask + 1] bits. *)
type doorkeeper = {
  bits : Bytes.t;
  mask : int;
  window : int; (* recordings between clears *)
  mutable recorded : int;
}

type 'w shard = {
  m : Mutex.t;
  tbl : (string, 'w slot) Hashtbl.t;
  head : node; (* sentinel: head.next = MRU, head.prev = LRU *)
  door : doorkeeper;
  cap : int;
  mutable bytes : int;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable waits : int;
  mutable evictions : int;
}

type 'w t = { shards : 'w shard array; gen : int Atomic.t }

type 'w token = { tkey : string; tflight : 'w flight; tgen : int }

type 'w outcome = Hit of cached | Fresh of 'w token | Joined | Busy | Bypass

(* Heap bytes of an entry: the key and body strings (a header word, then
   the bytes padded to a whole word with at least one pad byte), plus
   the cached record (3 words), the LRU node (6), the [Ready] slot (2)
   and the Hashtbl bucket cell (4). *)
let word = Sys.word_size / 8
let string_bytes s = word * ((String.length s / word) + 2)
let entry_size key body = string_bytes key + string_bytes body + (word * 15)
let min_entry_bytes = entry_size "" ""

let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

let create_shard slice =
  let max_entries = Stdlib.max 16 (slice / min_entry_bytes) in
  (* a Hashtbl resizes past two bindings per bucket; leave room for the
     in-flight slots on top of a full table. Asked for a power of two,
     it allocates exactly that many buckets. *)
  let nbuckets = pow2_above ((max_entries + (max_entries / 8)) / 2) 16 in
  let nbits = pow2_above (16 * max_entries) 64 in
  let door =
    { bits = Bytes.make (nbits / 8) '\000'; mask = nbits - 1;
      window = max_entries; recorded = 0 }
  in
  let fixed = (word * nbuckets) + (nbits / 8) in
  {
    m = Mutex.create ();
    tbl = Hashtbl.create nbuckets;
    head = sentinel ();
    door;
    cap = Stdlib.max 1 (slice - fixed);
    bytes = 0;
    entries = 0;
    hits = 0;
    misses = 0;
    bypassed = 0;
    waits = 0;
    evictions = 0;
  }

let create ~capacity_bytes ?(shards = 8) () =
  if capacity_bytes <= 0 then
    invalid_arg "Result_cache.create: capacity_bytes must be positive";
  if shards < 1 then invalid_arg "Result_cache.create: shards must be >= 1";
  {
    shards = Array.init shards (fun _ -> create_shard (capacity_bytes / shards));
    gen = Atomic.make 0;
  }

let shard_of t key =
  t.shards.(Hashtbl.hash key land max_int mod Array.length t.shards)

let get_bit b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit b i =
  let c = Char.code (Bytes.unsafe_get b (i lsr 3)) in
  Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr (c lor (1 lsl (i land 7))))

(* Test-and-set the key's two bits; true when both were already set.
   The probes use their own seeds: the shard was chosen from
   [Hashtbl.hash key], so its low bits are the same for every key the
   shard sees. *)
let seen_before d key =
  let a = Hashtbl.seeded_hash 0x2545F491 key land d.mask in
  let b = Hashtbl.seeded_hash 0x4F6CDD1D key land d.mask in
  get_bit d.bits a && get_bit d.bits b
  || begin
       if d.recorded >= d.window then begin
         Bytes.fill d.bits 0 (Bytes.length d.bits) '\000';
         d.recorded <- 0
       end;
       set_bit d.bits a;
       set_bit d.bits b;
       d.recorded <- d.recorded + 1;
       false
     end

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The request path: plain lock/unlock, since nothing under the lock
   can raise, and no closure for [locked]. *)
let find t ?metrics ?join key =
  let sh = shard_of t key in
  Mutex.lock sh.m;
  let r =
    match Hashtbl.find_opt sh.tbl key with
    | Some (Ready node) ->
        unlink node;
        push_front sh.head node;
        sh.hits <- sh.hits + 1;
        Option.iter Metrics.incr_result_cache_hit metrics;
        Hit node.value
    | Some (In_flight fl) -> (
        match join with
        | Some w ->
            fl.waiters <- w :: fl.waiters;
            sh.waits <- sh.waits + 1;
            Option.iter Metrics.incr_result_cache_wait metrics;
            Joined
        | None -> Busy)
    | None ->
        sh.misses <- sh.misses + 1;
        Option.iter Metrics.incr_result_cache_miss metrics;
        if seen_before sh.door key then begin
          let fl = { waiters = [] } in
          Hashtbl.replace sh.tbl key (In_flight fl);
          Fresh { tkey = key; tflight = fl; tgen = Atomic.get t.gen }
        end
        else begin
          sh.bypassed <- sh.bypassed + 1;
          Option.iter Metrics.incr_result_cache_bypass metrics;
          Bypass
        end
  in
  Mutex.unlock sh.m;
  r

(* Hand the flight's waiters back, once. Caller holds the shard lock. *)
let take_waiters fl =
  let ws = fl.waiters in
  fl.waiters <- [];
  List.rev ws

(* Remove [token]'s In_flight slot if it is still the one installed —
   after an invalidate a *new* flight may own the key and must not be
   disturbed. Caller holds the shard lock. *)
let remove_own_flight sh token =
  match Hashtbl.find_opt sh.tbl token.tkey with
  | Some (In_flight fl) when fl == token.tflight -> Hashtbl.remove sh.tbl token.tkey
  | _ -> ()

let evict_over_cap sh =
  while sh.bytes > sh.cap && sh.head.prev != sh.head do
    let lru = sh.head.prev in
    unlink lru;
    Hashtbl.remove sh.tbl lru.nkey;
    sh.bytes <- sh.bytes - lru.size;
    sh.entries <- sh.entries - 1;
    sh.evictions <- sh.evictions + 1
  done

let fill t token cached =
  let sh = shard_of t token.tkey in
  locked sh.m (fun () ->
      if Atomic.get t.gen = token.tgen then begin
        match Hashtbl.find_opt sh.tbl token.tkey with
        | Some (In_flight fl) when fl == token.tflight ->
            let size = entry_size token.tkey cached.cbody in
            let node =
              let rec n =
                { nkey = token.tkey; value = cached; size; prev = n; next = n }
              in
              n
            in
            push_front sh.head node;
            Hashtbl.replace sh.tbl token.tkey (Ready node);
            sh.bytes <- sh.bytes + size;
            sh.entries <- sh.entries + 1;
            evict_over_cap sh
        | _ -> ()
      end
      else remove_own_flight sh token;
      take_waiters token.tflight)

let cancel t token =
  let sh = shard_of t token.tkey in
  locked sh.m (fun () ->
      remove_own_flight sh token;
      take_waiters token.tflight)

let invalidate ?metrics t =
  Atomic.incr t.gen;
  Array.iter
    (fun sh ->
      locked sh.m (fun () ->
          Hashtbl.reset sh.tbl;
          sh.head.prev <- sh.head;
          sh.head.next <- sh.head;
          sh.bytes <- 0;
          sh.entries <- 0))
    t.shards;
  Option.iter Metrics.incr_result_cache_invalidation metrics

type stats = {
  entries : int;
  bytes : int;
  capacity_bytes : int;
  hits : int;
  misses : int;
  bypassed : int;
  waits : int;
  evictions : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
      locked sh.m (fun () ->
          {
            entries = acc.entries + sh.entries;
            bytes = acc.bytes + sh.bytes;
            capacity_bytes = acc.capacity_bytes + sh.cap;
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            bypassed = acc.bypassed + sh.bypassed;
            waits = acc.waits + sh.waits;
            evictions = acc.evictions + sh.evictions;
          }))
    {
      entries = 0;
      bytes = 0;
      capacity_bytes = 0;
      hits = 0;
      misses = 0;
      bypassed = 0;
      waits = 0;
      evictions = 0;
    }
    t.shards

let buckets t =
  Array.fold_left
    (fun acc sh -> acc + locked sh.m (fun () -> (Hashtbl.stats sh.tbl).num_buckets))
    0 t.shards

(* ------------------------------------------------------------------ *)
(* Cache keys. Only engine queries are cacheable: Stats/Ping are
   trivial, Slow is a debug op. The key packs the full semantic
   identity of a query — op tag, index id, τ's raw bits (so 0.2 and a
   float that merely prints as 0.2 never collide), k, pattern. *)

let key op =
  let pack tag index tau k pattern =
    let b = Bytes.create (1 + 4 + 8 + 8 + String.length pattern) in
    Bytes.set_uint8 b 0 tag;
    Bytes.set_int32_be b 1 (Int32.of_int index);
    Bytes.set_int64_be b 5 (Int64.bits_of_float tau);
    Bytes.set_int64_be b 13 (Int64.of_int k);
    Bytes.blit_string pattern 0 b 21 (String.length pattern);
    Bytes.unsafe_to_string b
  in
  match op with
  | P.Query { index; pattern; tau } -> Some (pack 1 index tau 0 pattern)
  | P.Top_k { index; pattern; tau; k } -> Some (pack 2 index tau k pattern)
  | P.Listing { index; pattern; tau } -> Some (pack 3 index tau 0 pattern)
  | P.Stats | P.Ping | P.Slow _ -> None
  (* mutations are never cacheable; their effect on cached query
     entries is handled by the server's version-suffixed keys *)
  | P.Insert _ | P.Delete _ | P.Flush _ -> None
