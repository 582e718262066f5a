(* Tests for the Pti_parallel domain pool and for the determinism of
   parallel index construction: building with any number of domains
   must produce byte-identical persisted engines and identical query
   answers, because every parallel loop writes only to state its
   iteration owns. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp
module Engine = Pti_core.Engine
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module Par = Pti_parallel
module H = Pti_test_helpers

(* ------------------------------------------------------------------ *)
(* The pool combinators themselves. *)

let test_parallel_for () =
  List.iter
    (fun domains ->
      let n = 1000 in
      let a = Array.make n (-1) in
      Par.parallel_for ~domains ~start:0 ~finish:(n - 1) (fun i ->
          a.(i) <- i * i);
      Array.iteri
        (fun i v -> Alcotest.(check int) "slot" (i * i) v)
        a;
      (* empty and single-element ranges *)
      Par.parallel_for ~domains ~start:5 ~finish:4 (fun _ ->
          Alcotest.fail "body run on empty range");
      let hit = ref 0 in
      Par.parallel_for ~domains ~start:7 ~finish:7 (fun i ->
          if i = 7 then incr hit);
      Alcotest.(check int) "single iteration" 1 !hit)
    [ 1; 2; 4 ]

let test_parallel_map () =
  List.iter
    (fun domains ->
      let a = Array.init 257 (fun i -> i) in
      let b = Par.parallel_map_array ~domains (fun x -> (2 * x) + 1) a in
      Alcotest.(check (array int)) "map" (Array.map (fun x -> (2 * x) + 1) a) b;
      Alcotest.(check (array int)) "empty" [||]
        (Par.parallel_map_array ~domains (fun x -> x) [||]))
    [ 1; 3 ]

let test_parallel_for_init () =
  List.iter
    (fun domains ->
      (* every iteration sees a per-domain state created by init, and
         every index is visited exactly once *)
      let visited = Array.make 201 0 in
      let inits = Atomic.make 0 in
      Par.parallel_for_init ~domains ~chunk:7 ~start:0 ~finish:200
        ~init:(fun () ->
          ignore (Atomic.fetch_and_add inits 1);
          Buffer.create 8)
        (fun buf i ->
          Buffer.add_char buf 'x';
          visited.(i) <- visited.(i) + 1);
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "visited %d once" i) 1 c)
        visited;
      Alcotest.(check bool) "at most one init per domain" true
        (Atomic.get inits >= 1 && Atomic.get inits <= domains))
    [ 1; 2; 4 ]

let test_exceptions_propagate () =
  List.iter
    (fun domains ->
      Alcotest.(check bool) "exception reraised" true
        (try
           Par.parallel_for ~domains ~start:0 ~finish:99 (fun i ->
               if i = 63 then failwith "boom");
           false
         with Failure m -> m = "boom"))
    [ 1; 4 ]

let test_parse_domains () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check int) (Printf.sprintf "parse %S" s) want
        (Par.parse_domains s))
    [
      ("garbage", 1);
      ("", 1);
      ("0", 1);
      ("-3", 1);
      ("1", 1);
      ("4", 4);
      (" 8 ", 8);
      ("2x", 1);
      ("3.5", 1);
      ("100000", Par.max_domains);
    ]

let test_env_fallback () =
  (* PTI_DOMAINS drives num_domains; garbage / 0 / negative fall back
     to 1 (sequential), unset falls back to the hardware count. *)
  let with_env v f =
    Unix.putenv "PTI_DOMAINS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "PTI_DOMAINS" "") f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "PTI_DOMAINS=3" 3 (Par.num_domains ()));
  with_env "garbage" (fun () ->
      Alcotest.(check int) "PTI_DOMAINS=garbage" 1 (Par.num_domains ()));
  with_env "0" (fun () ->
      Alcotest.(check int) "PTI_DOMAINS=0" 1 (Par.num_domains ()));
  with_env "-2" (fun () ->
      Alcotest.(check int) "PTI_DOMAINS=-2" 1 (Par.num_domains ()));
  (* empty string is garbage too *)
  Alcotest.(check int) "PTI_DOMAINS=empty" 1 (Par.num_domains ())

(* ------------------------------------------------------------------ *)
(* The bounded queue feeding the server's worker domains. *)

let test_bqueue_basics () =
  let q = Par.Bqueue.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Par.Bqueue.capacity q);
  Alcotest.(check int) "empty" 0 (Par.Bqueue.length q);
  Alcotest.(check bool) "push 1" true (Par.Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Par.Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Par.Bqueue.try_push q 3);
  (* full queue refuses instead of blocking: the server's backpressure *)
  Alcotest.(check bool) "push refused when full" false (Par.Bqueue.try_push q 4);
  Alcotest.(check int) "length" 3 (Par.Bqueue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Par.Bqueue.pop q);
  Alcotest.(check bool) "slot freed" true (Par.Bqueue.try_push q 4);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Par.Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Par.Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (Par.Bqueue.pop q)

let test_bqueue_close () =
  let q = Par.Bqueue.create ~capacity:4 in
  ignore (Par.Bqueue.try_push q "a");
  ignore (Par.Bqueue.try_push q "b");
  Par.Bqueue.close q;
  Alcotest.(check bool) "push after close refused" false
    (Par.Bqueue.try_push q "c");
  (* consumers drain what was accepted, then see the close *)
  Alcotest.(check (option string)) "drain a" (Some "a") (Par.Bqueue.pop q);
  Alcotest.(check (option string)) "drain b" (Some "b") (Par.Bqueue.pop q);
  Alcotest.(check (option string)) "closed" None (Par.Bqueue.pop q);
  Alcotest.(check (option string)) "still closed" None (Par.Bqueue.pop q)

let test_bqueue_concurrent () =
  (* several producers and consumers; every accepted element is popped
     exactly once, blocked consumers wake up on close *)
  let q = Par.Bqueue.create ~capacity:8 in
  let n_producers = 3 and per_producer = 500 in
  let accepted = Atomic.make 0 in
  let sum_pushed = Atomic.make 0 in
  let producers =
    List.init n_producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per_producer do
              let v = (p * per_producer) + i in
              (* spin until accepted — capacity 8 forces real contention *)
              let rec push () =
                if Par.Bqueue.try_push q v then begin
                  Atomic.incr accepted;
                  ignore (Atomic.fetch_and_add sum_pushed v)
                end
                else begin
                  Domain.cpu_relax ();
                  push ()
                end
              in
              push ()
            done))
  in
  let sum_popped = Atomic.make 0 in
  let popped = Atomic.make 0 in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Par.Bqueue.pop q with
              | Some v ->
                  ignore (Atomic.fetch_and_add sum_popped v);
                  Atomic.incr popped;
                  loop ()
              | None -> ()
            in
            loop ()))
  in
  List.iter Domain.join producers;
  Par.Bqueue.close q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "all accepted" (n_producers * per_producer)
    (Atomic.get accepted);
  Alcotest.(check int) "all popped" (Atomic.get accepted) (Atomic.get popped);
  Alcotest.(check int) "sums agree" (Atomic.get sum_pushed)
    (Atomic.get sum_popped);
  Alcotest.(check int) "drained" 0 (Par.Bqueue.length q)

let test_pop_batch_fifo_and_max () =
  let q = Par.Bqueue.create ~capacity:8 in
  List.iter (fun v -> assert (Par.Bqueue.try_push q v)) [ 1; 2; 3; 4; 5 ];
  (* greedy up to [max], FIFO order preserved *)
  Alcotest.(check (option (list int)))
    "batch of 3" (Some [ 1; 2; 3 ])
    (Par.Bqueue.pop_batch q ~max:3 ~deadline:infinity);
  (* fewer than max available: take what is there, don't wait for more *)
  Alcotest.(check (option (list int)))
    "remainder" (Some [ 4; 5 ])
    (Par.Bqueue.pop_batch q ~max:10 ~deadline:infinity);
  Alcotest.(check int) "drained" 0 (Par.Bqueue.length q);
  (* wrap-around: head has advanced past the middle of the ring *)
  List.iter (fun v -> assert (Par.Bqueue.try_push q v)) [ 6; 7; 8; 9; 10; 11 ];
  Alcotest.(check (option (list int)))
    "wrapped batch" (Some [ 6; 7; 8; 9; 10; 11 ])
    (Par.Bqueue.pop_batch q ~max:8 ~deadline:infinity);
  Alcotest.check_raises "max < 1 rejected"
    (Invalid_argument "Bqueue.pop_batch: max < 1") (fun () ->
      ignore (Par.Bqueue.pop_batch q ~max:0 ~deadline:infinity))

let test_pop_batch_deadline () =
  let q = Par.Bqueue.create ~capacity:4 in
  (* empty queue + past deadline: Some [] (still open), without blocking *)
  Alcotest.(check (option (list int)))
    "expired empty" (Some [])
    (Par.Bqueue.pop_batch q ~max:4 ~deadline:0.0);
  (* a short future deadline expires and returns Some [] *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (option (list int)))
    "short wait expires" (Some [])
    (Par.Bqueue.pop_batch q ~max:4 ~deadline:(t0 +. 0.02));
  Alcotest.(check bool) "waited until the deadline" true
    (Unix.gettimeofday () -. t0 >= 0.015);
  (* items present beat the deadline even when it is already past *)
  assert (Par.Bqueue.try_push q 42);
  Alcotest.(check (option (list int)))
    "items win over expired deadline" (Some [ 42 ])
    (Par.Bqueue.pop_batch q ~max:4 ~deadline:0.0);
  (* closed and drained: None, regardless of deadline *)
  Par.Bqueue.close q;
  Alcotest.(check (option (list int)))
    "closed" None
    (Par.Bqueue.pop_batch q ~max:4 ~deadline:infinity)

let test_pop_batch_close_drains () =
  let q = Par.Bqueue.create ~capacity:4 in
  assert (Par.Bqueue.try_push q "a");
  assert (Par.Bqueue.try_push q "b");
  Par.Bqueue.close q;
  Alcotest.(check (option (list string)))
    "drain after close" (Some [ "a"; "b" ])
    (Par.Bqueue.pop_batch q ~max:8 ~deadline:infinity);
  Alcotest.(check (option (list string)))
    "then None" None
    (Par.Bqueue.pop_batch q ~max:8 ~deadline:infinity)

let test_pop_batch_blocking_wakeup () =
  (* a consumer blocked in pop_batch with an infinite deadline is woken
     by a push, and a second blocked consumer by close *)
  let q = Par.Bqueue.create ~capacity:4 in
  let got = Atomic.make [] in
  let c =
    Domain.spawn (fun () ->
        match Par.Bqueue.pop_batch q ~max:4 ~deadline:infinity with
        | Some items -> Atomic.set got items
        | None -> ())
  in
  Unix.sleepf 0.02;
  assert (Par.Bqueue.try_push q 7);
  Domain.join c;
  Alcotest.(check (list int)) "woken by push" [ 7 ] (Atomic.get got);
  let woke = Atomic.make false in
  let c2 =
    Domain.spawn (fun () ->
        match Par.Bqueue.pop_batch q ~max:4 ~deadline:infinity with
        | None -> Atomic.set woke true
        | Some _ -> ())
  in
  Unix.sleepf 0.02;
  Par.Bqueue.close q;
  Domain.join c2;
  Alcotest.(check bool) "woken by close" true (Atomic.get woke)

let test_pop_batch_concurrent () =
  (* several batch consumers: every accepted element delivered exactly
     once, in batches of at most [max] *)
  let q = Par.Bqueue.create ~capacity:16 in
  let n = 2000 in
  let popped = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let bad_batch = Atomic.make false in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Par.Bqueue.pop_batch q ~max:5 ~deadline:infinity with
              | None -> ()
              | Some items ->
                  let len = List.length items in
                  if len = 0 || len > 5 then Atomic.set bad_batch true;
                  List.iter
                    (fun v ->
                      Atomic.incr popped;
                      ignore (Atomic.fetch_and_add sum v))
                    items;
                  loop ()
            in
            loop ()))
  in
  let pushed = ref 0 in
  for v = 1 to n do
    let rec push () =
      if Par.Bqueue.try_push q v then pushed := !pushed + v
      else begin
        Domain.cpu_relax ();
        push ()
      end
    in
    push ()
  done;
  Par.Bqueue.close q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "all delivered" n (Atomic.get popped);
  Alcotest.(check int) "sum preserved" !pushed (Atomic.get sum);
  Alcotest.(check bool) "batch sizes in (0, max]" false (Atomic.get bad_batch)

let test_available_cores () =
  (* affinity-aware detection: both values are sane and consistent, and
     the affinity-restricted count can never exceed the raw count. *)
  let cores = Par.available_cores () in
  let raw = Par.raw_processor_count () in
  Alcotest.(check bool) "cores >= 1" true (cores >= 1);
  Alcotest.(check bool) "raw >= 1" true (raw >= 1);
  Alcotest.(check bool) "cores <= max_domains" true (cores <= Par.max_domains);
  Alcotest.(check int) "memoized" cores (Par.available_cores ());
  (* with PTI_DOMAINS genuinely unset, num_domains follows
     available_cores (putenv cannot unset, so only check when it is) *)
  match Sys.getenv_opt "PTI_DOMAINS" with
  | None ->
      Alcotest.(check int) "num_domains = available_cores" cores
        (Par.num_domains ())
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* Determinism of parallel construction. *)

let engine_bytes g =
  let path = Filename.temp_file "pti_par" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      G.save g path;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let domain_counts = [ 1; 2; 4 ]

let test_build_determinism metric () =
  let rng = H.rng_of_seed 91 in
  for _ = 1 to 8 do
    let n = 30 + Random.State.int rng 60 in
    let u = H.random_ustring rng n 4 3 in
    let u = Pti_workload.Dataset.add_random_correlations rng u ~count:4 in
    let config = { Engine.default_config with metric } in
    let built =
      List.map (fun d -> (d, G.build ~config ~domains:d ~tau_min:0.1 u))
        domain_counts
    in
    let reference = engine_bytes (snd (List.hd built)) in
    List.iter
      (fun (d, g) ->
        Alcotest.(check bool)
          (Printf.sprintf "parts byte-identical at domains=%d" d)
          true
          (String.equal reference (engine_bytes g)))
      (List.tl built);
    (* identical query / query_batch / query_top_k answers *)
    let patterns =
      Array.init 12 (fun _ ->
          (H.random_pattern rng u 10, 0.1 +. Random.State.float rng 0.6))
    in
    let g1 = snd (List.hd built) in
    let want = Array.map (fun (p, tau) -> G.query g1 ~pattern:p ~tau) patterns in
    List.iter
      (fun (d, g) ->
        Array.iteri
          (fun i (p, tau) ->
            Alcotest.(check bool)
              (Printf.sprintf "query identical at domains=%d" d)
              true
              (G.query g ~pattern:p ~tau = want.(i)))
          patterns;
        List.iter
          (fun bd ->
            Alcotest.(check bool)
              (Printf.sprintf "query_batch domains=%d/%d" d bd)
              true
              (G.query_batch ~domains:bd g ~patterns = want))
          domain_counts;
        Array.iter
          (fun (p, tau) ->
            Alcotest.(check bool)
              (Printf.sprintf "top-k identical at domains=%d" d)
              true
              (G.query_top_k g ~pattern:p ~tau ~k:3
              = G.query_top_k g1 ~pattern:p ~tau ~k:3))
          patterns)
      built
  done

let test_listing_determinism () =
  (* Or_metric exercises the per-group OR aggregation (float sums whose
     order must not depend on scheduling) through the listing index. *)
  let rng = H.rng_of_seed 92 in
  for _ = 1 to 6 do
    let docs =
      List.init (3 + Random.State.int rng 3) (fun _ ->
          H.random_ustring rng (10 + Random.State.int rng 20) 3 2)
    in
    List.iter
      (fun relevance ->
        let built =
          List.map
            (fun d -> L.build ~relevance ~domains:d ~tau_min:0.1 docs)
            domain_counts
        in
        let l1 = List.hd built in
        for _ = 1 to 10 do
          let d0 = List.nth docs (Random.State.int rng (List.length docs)) in
          let pat = H.random_pattern rng d0 6 in
          let tau = 0.1 +. Random.State.float rng 0.5 in
          let want = L.query l1 ~pattern:pat ~tau in
          List.iter
            (fun l ->
              Alcotest.(check bool) "listing identical" true
                (L.query l ~pattern:pat ~tau = want))
            built
        done)
      [ L.Rel_max; L.Rel_or ]
  done

let test_load_parallel () =
  (* A mapped engine is read by every domain of the pool at once:
     batched answers on the loaded index must match the freshly built
     one at every domain count. *)
  let rng = H.rng_of_seed 93 in
  let u = H.random_ustring rng 60 4 3 in
  let g = G.build ~tau_min:0.1 u in
  let path = Filename.temp_file "pti_par" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      G.save g path;
      let g' = G.load path in
      List.iter
        (fun d ->
          let patterns =
            Array.init 15 (fun _ ->
                (H.random_pattern rng u 8, 0.1 +. Random.State.float rng 0.6))
          in
          Alcotest.(check bool)
            (Printf.sprintf "loaded (domains=%d) answers identically" d)
            true
            (G.query_batch ~domains:d g' ~patterns
            = Array.map (fun (pattern, tau) -> G.query g ~pattern ~tau) patterns))
        domain_counts)

let () =
  Alcotest.run "pti_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "parallel_map_array" `Quick test_parallel_map;
          Alcotest.test_case "parallel_for_init state" `Quick
            test_parallel_for_init;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "fifo and backpressure" `Quick test_bqueue_basics;
          Alcotest.test_case "close semantics" `Quick test_bqueue_close;
          Alcotest.test_case "concurrent producers/consumers" `Quick
            test_bqueue_concurrent;
          Alcotest.test_case "pop_batch fifo and max" `Quick
            test_pop_batch_fifo_and_max;
          Alcotest.test_case "pop_batch deadline expiry" `Quick
            test_pop_batch_deadline;
          Alcotest.test_case "pop_batch drains after close" `Quick
            test_pop_batch_close_drains;
          Alcotest.test_case "pop_batch blocking wakeup" `Quick
            test_pop_batch_blocking_wakeup;
          Alcotest.test_case "pop_batch concurrent consumers" `Quick
            test_pop_batch_concurrent;
        ] );
      ( "env",
        [
          Alcotest.test_case "affinity-aware core detection" `Quick
            test_available_cores;
        ]
        @
        [
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
          Alcotest.test_case "PTI_DOMAINS fallback" `Quick test_env_fallback;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Max engine byte-identical across domains" `Quick
            (test_build_determinism Engine.Max);
          Alcotest.test_case "Or engine byte-identical across domains" `Quick
            (test_build_determinism Engine.Or_metric);
          Alcotest.test_case "listing identical across domains" `Quick
            test_listing_determinism;
          Alcotest.test_case "parallel load answers identically" `Quick
            test_load_parallel;
        ] );
    ]
