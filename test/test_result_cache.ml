(* Unit tests for Pti_server.Result_cache: second-sighting admission,
   single flight with joined waiters, generation fencing, the byte
   budget, the fixed-size table and doorkeeper aging. The server suite
   covers the cache end to end. *)

module P = Pti_server.Protocol
module RC = Pti_server.Result_cache

let kib = 1024

(* Fresh heap strings, so no two entries share a key or a body. *)
let key i = Printf.sprintf "key-%d" i
let body i = Printf.sprintf "body-%d" i
let entry i = { RC.ctag = P.reply_tag (P.Hits []); cbody = body i }

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let outcome_name = function
  | RC.Hit _ -> "hit"
  | RC.Fresh _ -> "fresh"
  | RC.Joined -> "joined"
  | RC.Busy -> "busy"
  | RC.Bypass -> "bypass"

let expect name want got =
  Alcotest.(check string) name want (outcome_name got);
  got

let fresh name = function
  | RC.Fresh tok -> tok
  | o -> Alcotest.failf "%s: expected fresh, got %s" name (outcome_name o)

(* Sight [k] until it is admitted (twice, unless the doorkeeper takes
   it for a key seen before) and fill it. *)
let rec admit c k v =
  match RC.find c k with
  | RC.Bypass -> admit c k v
  | RC.Fresh tok -> ignore (RC.fill c tok v : int list)
  | o -> Alcotest.failf "admitting %S: %s" k (outcome_name o)

let test_second_sighting () =
  let c = RC.create ~capacity_bytes:(256 * kib) ~shards:2 () in
  let m = Pti_server.Metrics.create () in
  ignore (expect "first sighting bypassed" "bypass" (RC.find c ~metrics:m "q"));
  let tok = fresh "second sighting" (RC.find c ~metrics:m "q") in
  ignore (RC.fill c tok (entry 1) : int list);
  (match RC.find c ~metrics:m "q" with
  | RC.Hit v -> Alcotest.(check string) "third sighting hits" (body 1) v.RC.cbody
  | o -> Alcotest.failf "third sighting: %s" (outcome_name o));
  let s = RC.stats c in
  Alcotest.(check (list int)) "hits, misses, bypassed, entries" [ 1; 2; 1; 1 ]
    [ s.RC.hits; s.misses; s.bypassed; s.entries ];
  Alcotest.(check (list int)) "metrics agree" [ 1; 2; 1 ]
    Pti_server.Metrics.
      [ result_cache_hits m; result_cache_misses m; result_cache_bypassed m ];
  Alcotest.(check bool) "bypassed in the stats json" true
    (contains (Pti_server.Metrics.to_json m ~queue_depth:0) "\"bypassed\":1")

let test_single_flight () =
  let c = RC.create ~capacity_bytes:(256 * kib) ~shards:1 () in
  ignore (expect "first sighting" "bypass" (RC.find c "k"));
  let tok = fresh "owner" (RC.find c ~join:0 "k") in
  for w = 1 to 3 do
    ignore (expect (Printf.sprintf "waiter %d" w) "joined" (RC.find c ~join:w "k"))
  done;
  ignore (expect "no join value: busy" "busy" (RC.find c "k"));
  Alcotest.(check (list int)) "fill hands back the waiters in join order"
    [ 1; 2; 3 ] (RC.fill c tok (entry 7));
  Alcotest.(check (list int)) "handed back only once" [] (RC.fill c tok (entry 8));
  (match RC.find c "k" with
  | RC.Hit v -> Alcotest.(check string) "the first fill is cached" (body 7) v.RC.cbody
  | o -> Alcotest.failf "after the fill: %s" (outcome_name o));
  Alcotest.(check int) "joins counted as waits" 3 (RC.stats c).RC.waits;
  (* a cancelled flight hands its waiters back and caches nothing *)
  ignore (expect "first sighting" "bypass" (RC.find c "e"));
  let tok = fresh "owner" (RC.find c "e") in
  ignore (expect "waiter" "joined" (RC.find c ~join:9 "e"));
  Alcotest.(check (list int)) "cancel hands back the waiter" [ 9 ] (RC.cancel c tok);
  Alcotest.(check (list int)) "cancel hands back only once" [] (RC.cancel c tok);
  Alcotest.(check (list int)) "nothing to hand after a cancel" []
    (RC.cancel c (fresh "errors are not cached" (RC.find c "e")))

let test_invalidate_keeps_waiters () =
  let c = RC.create ~capacity_bytes:(256 * kib) ~shards:1 () in
  ignore (expect "first sighting" "bypass" (RC.find c "k"));
  let tok = fresh "owner" (RC.find c "k") in
  ignore (expect "waiter" "joined" (RC.find c ~join:1 "k"));
  RC.invalidate c;
  (* the slot is gone: a request after the flush owns a new flight
     instead of joining the old one *)
  let tok' = fresh "owner after the flush" (RC.find c ~join:2 "k") in
  ignore (expect "joins the new flight" "joined" (RC.find c ~join:3 "k"));
  Alcotest.(check (list int)) "the old owner still answers its waiter" [ 1 ]
    (RC.cancel c tok);
  Alcotest.(check (list int)) "the new flight keeps its own" [ 3 ]
    (RC.fill c tok' (entry 2))

let test_stale_fill_dropped () =
  let c = RC.create ~capacity_bytes:(256 * kib) ~shards:1 () in
  ignore (expect "first sighting" "bypass" (RC.find c "k"));
  let stale = fresh "owner before the reload" (RC.find c "k") in
  ignore (expect "waiter" "joined" (RC.find c ~join:1 "k"));
  RC.invalidate c;
  (* the doorkeeper outlives the flush: the key is still admitted, and
     a request after the reload never joins the pre-reload flight *)
  let tok = fresh "owner after the reload" (RC.find c "k") in
  Alcotest.(check (list int)) "stale fill still answers its waiter" [ 1 ]
    (RC.fill c stale (entry 1));
  Alcotest.(check int) "stale fill not inserted" 0 (RC.stats c).RC.entries;
  ignore (expect "new flight undisturbed" "busy" (RC.find c "k"));
  Alcotest.(check (list int)) "no waiters" [] (RC.fill c tok (entry 2));
  match RC.find c "k" with
  | RC.Hit v -> Alcotest.(check string) "new generation's bytes" (body 2) v.RC.cbody
  | o -> Alcotest.failf "after the fill: %s" (outcome_name o)

let word = Sys.word_size / 8
let heap_bytes c = word * Obj.reachable_words (Obj.repr c)

let test_byte_budget () =
  let capacity_bytes = 256 * kib in
  let c = RC.create ~capacity_bytes ~shards:1 () in
  let empty = heap_bytes c in
  (* the accounting is the entries' real heap bytes *)
  for i = 0 to 99 do
    admit c (key i) (entry i)
  done;
  let s = RC.stats c in
  Alcotest.(check int) "no eviction yet" 0 s.RC.evictions;
  Alcotest.(check int) "accounted = reachable heap bytes" (heap_bytes c - empty)
    s.RC.bytes;
  (* filled far past capacity, entries and fixed tables together stay
     within the budget (give or take the shard's few fixed records) *)
  for i = 100 to 20_000 do
    admit c (key i) { (entry i) with RC.cbody = String.make (i mod 300) 'x' }
  done;
  let s = RC.stats c in
  Alcotest.(check bool) "evicted" true (s.RC.evictions > 0);
  Alcotest.(check bool) "entries within their budget" true
    (s.RC.bytes <= s.RC.capacity_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "heap %d B within the %d B budget" (heap_bytes c) capacity_bytes)
    true
    (heap_bytes c <= capacity_bytes + (2 * kib))

let test_table_never_rehashes () =
  (* a growing Hashtbl doubles and rehashes under the shard lock — a
     multi-100 ms stall at a few 100k entries. Filled with the smallest
     possible entries, well past capacity, the table keeps the bucket
     array it was created with. *)
  let c = RC.create ~capacity_bytes:(512 * kib) ~shards:2 () in
  let b0 = RC.buckets c in
  for i = 0 to 20_000 do
    admit c (string_of_int i) { RC.ctag = 0; cbody = "" }
  done;
  Alcotest.(check bool) "filled to capacity" true ((RC.stats c).RC.evictions > 0);
  Alcotest.(check int) "bucket count unchanged" b0 (RC.buckets c)

let test_doorkeeper_aging () =
  let c = RC.create ~capacity_bytes:(1024 * kib) ~shards:1 () in
  ignore (expect "first sighting" "bypass" (RC.find c "old"));
  (* one pass of distinct one-off keys: each is a first sighting, and
     only a few percent may be mistaken for a second one *)
  let n = 20_000 in
  let false_seen = ref 0 in
  for i = 0 to n - 1 do
    match RC.find c (key i) with
    | RC.Bypass -> ()
    | RC.Fresh tok ->
        incr false_seen;
        ignore (RC.cancel c tok : int list)
    | o -> Alcotest.failf "one-off key: %s" (outcome_name o)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d one-off keys admitted" !false_seen n)
    true
    (!false_seen * 100 <= 3 * n);
  (* the window has rolled over since "old" was seen: forgotten *)
  ignore (expect "aged out" "bypass" (RC.find c "old"));
  ignore (RC.cancel c (fresh "seen again" (RC.find c "old")) : int list)

let () =
  Alcotest.run "pti_result_cache"
    [
      ( "result_cache",
        [
          Alcotest.test_case "admitted on the second sighting" `Quick
            test_second_sighting;
          Alcotest.test_case "single flight on an admitted key" `Quick
            test_single_flight;
          Alcotest.test_case "invalidate keeps the owner's waiters" `Quick
            test_invalidate_keeps_waiters;
          Alcotest.test_case "stale-generation fill dropped" `Quick
            test_stale_fill_dropped;
          Alcotest.test_case "byte budget is real heap bytes" `Quick
            test_byte_budget;
          Alcotest.test_case "table never rehashes" `Quick
            test_table_never_rehashes;
          Alcotest.test_case "doorkeeper aging" `Quick test_doorkeeper_aging;
        ] );
    ]
