(* Tests of the benchmark's own measuring code. *)

open Perfbench

(* A stall inside one send makes every request due during it late, and
   their latency, counted from the due time, includes the wait. *)
let test_stall_charged () =
  let clock = ref 0.0 in
  let service = 0.001 in
  let due = Openloop.fixed_rate ~start:0.0 ~rate:100.0 ~n:20 in
  let ol = Openloop.create due in
  let pending = Queue.create () in
  (* a one-at-a-time server: each request finishes [service] after the
     later of its send and the previous finish *)
  let server_free = ref 0.0 in
  let complete_until t =
    while (not (Queue.is_empty pending)) && fst (Queue.peek pending) <= t do
      let fin, i = Queue.pop pending in
      Openloop.finish ol i fin
    done
  in
  let wait_until d =
    if !clock < d then clock := d;
    complete_until !clock
  in
  let send i =
    if i = 5 then clock := !clock +. 0.1 (* the generator stalls 100 ms *);
    let start = Float.max !clock !server_free in
    server_free := start +. service;
    Queue.push (!server_free, i) pending
  in
  let sent = Openloop.run ol ~now:(fun () -> !clock) ~wait_until ~send ~stop_at:1.0 in
  complete_until infinity;
  Alcotest.(check int) "all sent" 20 sent;
  for i = 0 to 4 do
    Alcotest.(check (float 1e-9)) "before the stall" service (Openloop.latency ol i)
  done;
  (* request 5 is sent at t=0.05 but its send stalls until 0.15; requests
     6..14 fall due during the stall (0.06 .. 0.14) *)
  for i = 6 to 14 do
    let late = 0.15 -. due.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "request %d pays the stall" i)
      true
      (Openloop.latency ol i >= late -. 1e-9);
    Alcotest.(check bool) "send lag shows" true (Openloop.send_lag ol i >= late -. 1e-9)
  done;
  Alcotest.(check (float 1e-9)) "after the backlog" service (Openloop.latency ol 19)

let test_tail_percentile () =
  let samples n = Array.init n float_of_int in
  let check n q_pcm value beyond =
    match Pstats.tail (samples n) with
    | None -> Alcotest.fail "no tail"
    | Some t ->
        Alcotest.(check int) (Printf.sprintf "n=%d percentile" n) q_pcm t.Pstats.q_pcm;
        Alcotest.(check (float 0.0)) "value" value t.Pstats.value;
        Alcotest.(check int) "beyond" beyond t.Pstats.beyond;
        Alcotest.(check int) "count" n t.Pstats.count
  in
  (* p99 of 1000 is the 990th sample, 10 after it; p99.9 has only 1 *)
  check 1000 99_000 989.0 10;
  (* 999 samples: p99 leaves 9 beyond, so p90 *)
  check 999 90_000 899.0 99;
  check 10_000 99_900 9989.0 10;
  check 20 50_000 9.0 10;
  Alcotest.(check bool) "too few samples" true (Pstats.tail (samples 19) = None);
  Alcotest.(check string) "label" "p99.9" (Pstats.percentile_label 99_900);
  Alcotest.(check (float 0.0)) "median" 2.0 (Pstats.median [| 3.0; 1.0; 2.0 |])

let test_self_time () =
  let t = Trace.create ~enabled:true in
  let root = Trace.add t ~name:"root" ~id:1 ~parent:(-1) ~start:0.0 ~stop:10.0 in
  (* overlapping children cover [1, 4]; one sticks out past the end *)
  ignore (Trace.add t ~name:"a" ~id:1 ~parent:root ~start:1.0 ~stop:3.0);
  ignore (Trace.add t ~name:"b" ~id:1 ~parent:root ~start:2.0 ~stop:4.0);
  let c = Trace.add t ~name:"c" ~id:1 ~parent:root ~start:8.0 ~stop:12.0 in
  ignore (Trace.add t ~name:"d" ~id:1 ~parent:c ~start:9.0 ~stop:10.0);
  let self = Trace.self_times t in
  Alcotest.(check (float 1e-12)) "root" (10.0 -. 3.0 -. 2.0) self.(root);
  Alcotest.(check (float 1e-12)) "leaf" 2.0 self.(1);
  Alcotest.(check (float 1e-12)) "nested" 3.0 self.(c);
  let off = Trace.create ~enabled:false in
  Alcotest.(check int) "disabled" (-1) (Trace.add off ~name:"x" ~id:0 ~parent:(-1) ~start:0.0 ~stop:1.0)

(* Values written across chunk boundaries read back, and reserving
   again keeps what the columns hold. *)
let test_columns () =
  let ints = Column.Int.create () and floats = Column.Float.create () in
  let n = (2 * Column.chunk) + 5 in
  Column.Int.reserve ints n;
  Column.Float.reserve floats n;
  for i = 0 to n - 1 do
    Column.Int.set ints i (3 * i);
    Column.Float.set floats i (float_of_int i /. 2.0)
  done;
  Column.Int.reserve ints (3 * Column.chunk);
  Column.Float.reserve floats (3 * Column.chunk);
  for i = 0 to n - 1 do
    if Column.Int.get ints i <> 3 * i then Alcotest.failf "int %d" i;
    if Column.Float.get floats i <> float_of_int i /. 2.0 then Alcotest.failf "float %d" i
  done;
  Alcotest.(check bool) "fresh floats are nan" true (Float.is_nan (Column.Float.get floats n));
  Alcotest.check_raises "beyond the reserve" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Column.Int.get ints (3 * Column.chunk) : int))

(* Per-round figures are averaged without the lowest and the highest
   once there are four or more of them. *)
let test_trimmed_mean () =
  Alcotest.(check (float 1e-12)) "drops both ends" 3.0 (Pstats.trimmed_mean [| 100.0; 2.0; 3.0; 4.0; -50.0 |]);
  Alcotest.(check (float 1e-12)) "three: plain mean" 2.0 (Pstats.trimmed_mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-12)) "one round" 7.0 (Pstats.trimmed_mean [| 7.0 |])

let test_json () =
  let v = Minijson.parse {|{"a":{"b":[1,2],"c":-2.5e1},"s":"x\"y","t":true}|} in
  Alcotest.(check (float 0.0)) "nested" (-25.0) (Minijson.num v [ "a"; "c" ]);
  Alcotest.(check (float 0.0)) "absent" 0.0 (Minijson.num v [ "a"; "z" ])

let () =
  Alcotest.run "perfbench"
    [
      ( "measuring",
        [
          Alcotest.test_case "open loop charges a stall to later requests" `Quick test_stall_charged;
          Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick test_tail_percentile;
          Alcotest.test_case "span self time excludes covered children" `Quick test_self_time;
          Alcotest.test_case "request columns" `Quick test_columns;
          Alcotest.test_case "trimmed mean over rounds" `Quick test_trimmed_mean;
          Alcotest.test_case "stats json" `Quick test_json;
        ] );
    ]
