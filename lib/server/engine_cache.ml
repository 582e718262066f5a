module G = Pti_core.General_index
module L = Pti_core.Listing_index
module S = Pti_storage

type handle = General of G.t | Listing of L.t

(* One mapping per open: the container kind is read from the section
   table of the reader the index is then opened from — listing indexes
   own a "listing.meta" section. *)
let load_handle ?verify path =
  ignore (Pti_fault.hit "cache.open" : int option);
  let r = S.Reader.open_file ?verify path in
  if S.Reader.has r "listing.meta" then Listing (L.open_reader r)
  else General (G.open_reader r)

type entry = { handle : handle; mutable last_use : int }

(* One shard = the whole former cache (own mutex, own LRU clock, own
   capacity slice, own counters). Paths hash to a fixed shard, so
   worker domains serving disjoint index files never contend on one
   lock — the shared-lock hot spot the single-mutex cache had. *)
type shard = {
  m : Mutex.t;
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable open_failures : int;
}

type t = { shards : shard array; verify : bool }

let create ?(verify = true) ~capacity ?(shards = 1) () =
  if capacity < 1 then invalid_arg "Engine_cache.create: capacity < 1";
  if shards < 1 then invalid_arg "Engine_cache.create: shards < 1";
  (* capacity is a true global bound: every shard needs at least one
     slot, so the shard count is capped by the capacity *)
  let n = Stdlib.min shards capacity in
  let slice i = (capacity / n) + if i < capacity mod n then 1 else 0 in
  {
    verify;
    shards =
      Array.init n (fun i ->
          {
            m = Mutex.create ();
            capacity = slice i;
            tbl = Hashtbl.create 8;
            tick = 0;
            hits = 0;
            misses = 0;
            open_failures = 0;
          });
  }

let n_shards t = Array.length t.shards
let shard_of t path = t.shards.(Hashtbl.hash path mod Array.length t.shards)

let evict_lru sh =
  let victim = ref None in
  Hashtbl.iter
    (fun path e ->
      match !victim with
      | Some (_, last) when last <= e.last_use -> ()
      | _ -> victim := Some (path, e.last_use))
    sh.tbl;
  match !victim with
  | Some (path, _) -> Hashtbl.remove sh.tbl path
  | None -> ()

let touch sh metrics e =
  e.last_use <- sh.tick;
  sh.hits <- sh.hits + 1;
  Option.iter Metrics.incr_cache_hit metrics;
  e.handle

let get t ?metrics path =
  let sh = shard_of t path in
  Mutex.lock sh.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.m)
    (fun () ->
      sh.tick <- sh.tick + 1;
      match Hashtbl.find_opt sh.tbl path with
      | Some e -> touch sh metrics e
      | None ->
          sh.misses <- sh.misses + 1;
          Option.iter Metrics.incr_cache_miss metrics;
          let handle =
            (* A failed open must not poison the cache: make sure no
               entry (not even a stale one) survives under this path,
               count the failure, and let the caller turn the exception
               into a typed error reply. *)
            try load_handle ~verify:t.verify path
            with e ->
              Hashtbl.remove sh.tbl path;
              sh.open_failures <- sh.open_failures + 1;
              Option.iter Metrics.incr_cache_open_failure metrics;
              raise e
          in
          if Hashtbl.length sh.tbl >= sh.capacity then evict_lru sh;
          Hashtbl.replace sh.tbl path { handle; last_use = sh.tick };
          handle)

(* The accept loop's lookup: never waits for a shard lock (a worker may
   hold it for a whole container open) and never opens a file. *)
let find_open t ?metrics path =
  let sh = shard_of t path in
  if not (Mutex.try_lock sh.m) then None
  else begin
    sh.tick <- sh.tick + 1;
    let found = Option.map (touch sh metrics) (Hashtbl.find_opt sh.tbl path) in
    Mutex.unlock sh.m;
    found
  end

(* Reopen every cached path and swap in the fresh handle; evict entries
   whose file no longer opens (deleted, replaced with garbage, corrupt).
   Used by the SIGHUP hot-reload path: after an index file is atomically
   rewritten, revalidation picks up the new contents without restarting
   the daemon. Shards are revalidated one at a time — gets on other
   shards proceed while one shard reloads. *)
let revalidate t ?metrics () =
  Array.to_list t.shards
  |> List.concat_map (fun sh ->
         Mutex.lock sh.m;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock sh.m)
           (fun () ->
             let paths = Hashtbl.fold (fun p _ acc -> p :: acc) sh.tbl [] in
             List.filter_map
               (fun path ->
                 match load_handle ~verify:t.verify path with
                 | handle ->
                     (match Hashtbl.find_opt sh.tbl path with
                     | Some e -> Hashtbl.replace sh.tbl path { e with handle }
                     | None -> ());
                     None
                 | exception e ->
                     Hashtbl.remove sh.tbl path;
                     sh.open_failures <- sh.open_failures + 1;
                     Option.iter Metrics.incr_cache_open_failure metrics;
                     Some (path, e))
               paths))

let sum_shards t f =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.m;
      let v = f sh in
      Mutex.unlock sh.m;
      acc + v)
    0 t.shards

let hits t = sum_shards t (fun sh -> sh.hits)
let misses t = sum_shards t (fun sh -> sh.misses)
let open_failures t = sum_shards t (fun sh -> sh.open_failures)

let shard_stats t =
  Array.map
    (fun sh ->
      Mutex.lock sh.m;
      let v = (sh.hits, sh.misses, sh.open_failures, Hashtbl.length sh.tbl) in
      Mutex.unlock sh.m;
      v)
    t.shards
