(* Tests for Pti_server: wire protocol roundtrips, the end-to-end
   daemon (responses byte-for-byte identical to direct engine calls),
   typed error replies, JSON fallback, the load generator, and the
   explicit overload / timeout behaviour. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Logp = Pti_prob.Logp
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module D = Pti_workload.Dataset
module Q = Pti_workload.Querygen
module P = Pti_server.Protocol
module Server = Pti_server.Server
module Loadgen = Pti_server.Loadgen
module Store = Pti_segment.Segment_store
module H = Pti_test_helpers

(* ------------------------------------------------------------------ *)
(* Shared fixture: a general and a listing index saved to disk, plus
   in-memory copies for computing expected answers. *)

let tau_min = 0.1

let fixture =
  lazy
    (let u = D.single (D.default ~total:800 ~theta:0.3) in
     let docs = D.collection (D.default ~total:600 ~theta:0.3) in
     let g = G.build ~tau_min u in
     let l = L.build ~relevance:L.Rel_max ~tau_min docs in
     let gpath = Filename.temp_file "pti_srv" ".idx" in
     let lpath = Filename.temp_file "pti_srv" ".idx" in
     at_exit (fun () ->
         List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
           [ gpath; lpath ]);
     G.save g gpath;
     L.save l lpath;
     (u, docs, g, l, gpath, lpath))

let base_config workers =
  { Server.default_config with port = 0; workers; queue_cap = 64 }

let with_server ?(config = base_config 2) sources f =
  let srv = Server.create ~config sources in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () -> f srv (Server.port srv))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_conn port f =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let rpc fd req =
  P.write_all fd (P.encode_request req);
  match P.read_frame fd with
  | Some payload -> P.decode_reply payload
  | None -> Alcotest.fail "server closed the connection"

(* expected hits of a direct engine call, in wire representation *)
let wire hits = List.map (fun (key, p) -> (key, Logp.to_log p)) hits

let check_hits name want got =
  match got with
  | P.Hits hs ->
      (* [=] on (int * float) lists: the protocol ships raw IEEE-754
         bits, so equality must be exact, ties and order included *)
      Alcotest.(check bool) (name ^ " byte-for-byte") true (hs = want)
  | P.Error (e, m) ->
      Alcotest.failf "%s: unexpected error %s (%s)" name (P.err_to_string e) m
  | _ -> Alcotest.failf "%s: unexpected reply" name

(* Suffix-range size of [pattern] in an engine: the work bound the
   accept loop checks against [Server.loop_range_budget]. *)
let range_size engine pattern =
  match Pti_core.Engine.suffix_range engine ~pattern:(Sym.of_string pattern) with
  | None -> 0
  | Some (l, r) -> r - l + 1

(* The queue tests send pattern "A" so that it reaches a worker: its
   suffix range on both fixture indexes is over the loop's budget. *)
let a_over_budget () =
  let _, _, g, l, _, _ = Lazy.force fixture in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check bool)
        (Printf.sprintf "\"A\" on the %s fixture (%d entries) is over budget"
           name (range_size engine "A"))
        true
        (range_size engine "A" > Server.loop_range_budget))
    [ ("general", G.engine g); ("listing", L.engine l) ]

(* [n] distinct patterns drawn from [source] whose suffix range in
   [engine] is non-empty and within the loop's budget. *)
let cheap_patterns ~seed engine source n =
  let rng = Q.state ~seed () in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let pat = Sym.to_string (Q.pattern rng source ~m:(2 + Random.State.int rng 3)) in
      let size = range_size engine pat in
      if List.mem pat acc || size = 0 || size > Server.loop_range_budget then
        go acc k
      else go (pat :: acc) (k - 1)
  in
  go [] n

(* ------------------------------------------------------------------ *)
(* Protocol roundtrips (no server involved) *)

let sample_ops =
  [
    P.Query { index = 0; pattern = "ACDE"; tau = 0.25 };
    P.Query { index = 3; pattern = ""; tau = 1e-300 };
    P.Top_k { index = 1; pattern = "WW"; tau = 0.5; k = 0 };
    P.Top_k { index = 0; pattern = "A"; tau = 0.1; k = 10_000 };
    P.Listing { index = 2; pattern = "KLM"; tau = 0.999999999999 };
    P.Stats;
    P.Ping;
    P.Slow 250;
    P.Insert { index = 1; doc = "A:.3,B:.7 C D:.5,E:.5" };
    P.Insert { index = 0; doc = "" };
    P.Delete { index = 2; doc_id = (1 lsl 53) - 1 };
    P.Flush { index = 65535 };
  ]

let sample_replies =
  [
    P.Hits [];
    P.Hits [ (0, -0.0); (17, -1.5e-9); (42, Float.log 0.25) ];
    (* 2^53 - 1: the largest key exact in both encodings (JSON numbers
       are doubles); real keys are positions or doc ids, far below *)
    P.Hits [ ((1 lsl 53) - 1, -745.133); (0, Float.log 0.9999999999999999) ];
    P.Error (P.Bad_request, "tau below tau_min");
    P.Error (P.Bad_index, "no index 7");
    P.Error (P.Overloaded, "queue full");
    P.Error (P.Timeout, "deadline expired");
    P.Error (P.Server_error, "");
    P.Stats_reply "{\"uptime_s\":1.5,\"requests\":{}}";
    P.Pong;
    P.Ack 0;
    P.Ack ((1 lsl 53) - 1);
  ]

let test_binary_roundtrip () =
  List.iteri
    (fun i op ->
      let req = { P.id = (i * 977) + 1; op } in
      let frame = P.encode_request req in
      (* frame = 4-byte length header + payload *)
      let len = Int32.to_int (String.get_int32_be frame 0) in
      Alcotest.(check int) "header length" (String.length frame - 4) len;
      let req' = P.decode_request (String.sub frame 4 len) in
      Alcotest.(check bool) "request roundtrips" true (req = req'))
    sample_ops;
  List.iteri
    (fun i reply ->
      let frame = P.encode_reply ~id:i reply in
      let len = Int32.to_int (String.get_int32_be frame 0) in
      let id, reply' = P.decode_reply (String.sub frame 4 len) in
      Alcotest.(check int) "id" i id;
      Alcotest.(check bool) "reply roundtrips (floats bit-exact)" true
        (reply = reply'))
    sample_replies;
  (* binary keys are full-width 64-bit, beyond JSON's 2^53 exactness *)
  let wide = P.Hits [ (max_int, -1.0); (min_int, 0.0) ] in
  let frame = P.encode_reply ~id:1 wide in
  Alcotest.(check bool) "full-width keys" true
    (P.decode_reply (String.sub frame 4 (String.length frame - 4)) = (1, wide))

let test_json_roundtrip () =
  List.iteri
    (fun i op ->
      match op with
      | P.Slow _ | P.Stats | P.Ping -> ()
      | _ ->
          let req = { P.id = i; op } in
          let line = P.request_to_json req in
          Alcotest.(check bool) "request roundtrips" true
            (P.request_of_json line = req))
    sample_ops;
  List.iteri
    (fun i reply ->
      match reply with
      | P.Stats_reply _ -> ()
      | _ ->
          let line = P.reply_to_json ~id:i reply in
          Alcotest.(check bool)
            (Printf.sprintf "reply %d roundtrips (floats exact)" i)
            true
            (P.reply_of_json line = (i, reply)))
    sample_replies;
  (* stats replies splice the JSON payload through verbatim *)
  let id, r = P.reply_of_json (P.reply_to_json ~id:9 (List.nth sample_replies 8)) in
  Alcotest.(check int) "stats id" 9 id;
  (match r with
  | P.Stats_reply s ->
      Alcotest.(check bool) "stats payload preserved" true
        (String.length s > 0)
  | _ -> Alcotest.fail "expected stats reply")

let test_decode_errors () =
  let raises f =
    try
      ignore (f ());
      false
    with P.Protocol_error _ -> true
  in
  Alcotest.(check bool) "empty payload" true
    (raises (fun () -> P.decode_request ""));
  Alcotest.(check bool) "unknown tag" true
    (raises (fun () -> P.decode_request "\xff\x00\x00\x00\x01"));
  let frame = P.encode_request { P.id = 1; op = List.hd sample_ops } in
  let payload = String.sub frame 4 (String.length frame - 4) in
  Alcotest.(check bool) "truncated request" true
    (raises (fun () ->
         P.decode_request (String.sub payload 0 (String.length payload - 1))));
  Alcotest.(check bool) "truncated reply" true
    (raises (fun () -> P.decode_reply "\x00"));
  Alcotest.(check bool) "bad json" true
    (raises (fun () -> P.request_of_json "{\"id\":}"));
  Alcotest.(check bool) "json missing op" true
    (raises (fun () -> P.request_of_json "{\"id\":1}"))

(* ------------------------------------------------------------------ *)
(* End-to-end over TCP *)

let test_e2e_binary () =
  let u, docs, g, l, gpath, lpath = Lazy.force fixture in
  with_server [ Server.Source_file gpath; Server.Source_file lpath ]
    (fun srv port ->
      with_conn port (fun fd ->
          let rng = Q.state ~seed:41 () in
          (* threshold queries, top-k and listings against both index
             kinds, byte-for-byte against the in-memory engines *)
          for i = 1 to 30 do
            let m = 1 + Random.State.int rng 6 in
            let pat = Sym.to_string (Q.pattern rng u ~m) in
            let tau = tau_min +. Random.State.float rng 0.7 in
            let id, reply =
              rpc fd { P.id = i; op = P.Query { index = 0; pattern = pat; tau } }
            in
            Alcotest.(check int) "id echoed" i id;
            check_hits "query"
              (wire (G.query g ~pattern:(Sym.of_string pat) ~tau))
              reply;
            let k = Random.State.int rng 6 in
            let _, reply =
              rpc fd
                { P.id = i; op = P.Top_k { index = 0; pattern = pat; tau; k } }
            in
            check_hits "top_k"
              (wire (G.query_top_k g ~pattern:(Sym.of_string pat) ~tau ~k))
              reply
          done;
          let d0 = List.hd docs in
          for i = 1 to 15 do
            let m = 1 + Random.State.int rng 4 in
            let pat = Sym.to_string (Q.pattern rng d0 ~m) in
            let tau = tau_min +. Random.State.float rng 0.7 in
            let _, reply =
              rpc fd
                { P.id = i; op = P.Listing { index = 1; pattern = pat; tau } }
            in
            check_hits "listing"
              (wire (L.query l ~pattern:(Sym.of_string pat) ~tau))
              reply
          done;
          (* typed errors, and the connection survives every one *)
          let expect_err name want op =
            match rpc fd { P.id = 99; op } with
            | _, P.Error (e, _) ->
                Alcotest.(check string) name (P.err_to_string want)
                  (P.err_to_string e)
            | _ -> Alcotest.failf "%s: expected an error reply" name
          in
          expect_err "tau below tau_min" P.Bad_request
            (P.Query { index = 0; pattern = "AC"; tau = tau_min /. 2.0 });
          expect_err "empty pattern" P.Bad_request
            (P.Query { index = 0; pattern = ""; tau = 0.5 });
          expect_err "unknown index" P.Bad_index
            (P.Query { index = 7; pattern = "AC"; tau = 0.5 });
          expect_err "negative index" P.Bad_index
            (P.Query { index = -1; pattern = "AC"; tau = 0.5 });
          expect_err "listing on general index" P.Bad_request
            (P.Listing { index = 0; pattern = "AC"; tau = 0.5 });
          expect_err "slow disabled by default" P.Bad_request (P.Slow 1);
          (* still alive after all that *)
          (match rpc fd { P.id = 1000; op = P.Ping } with
          | 1000, P.Pong -> ()
          | _ -> Alcotest.fail "ping after errors");
          (* stats: well-formed JSON-ish payload with our traffic in it *)
          (match rpc fd { P.id = 7; op = P.Stats } with
          | 7, P.Stats_reply s ->
              List.iter
                (fun needle ->
                  Alcotest.(check bool)
                    (Printf.sprintf "stats mentions %s" needle)
                    true (contains s needle))
                [ "\"requests\""; "\"query\""; "\"latency\""; "\"queue\"";
                  "\"cache\"" ]
          | _ -> Alcotest.fail "expected stats reply");
          (* traffic showed up in the registry *)
          let m = Server.metrics srv in
          Alcotest.(check bool) "queries counted" true
            (Pti_server.Metrics.requests_received m ~kind:"query" > 0)))

let test_e2e_pipelining () =
  (* many requests written before any reply is read; every reply comes
     back with the right id and payload *)
  let u, _, g, _, gpath, _ = Lazy.force fixture in
  with_server [ Server.Source_file gpath ] (fun _srv port ->
      with_conn port (fun fd ->
          let rng = Q.state ~seed:43 () in
          let reqs =
            List.init 50 (fun i ->
                let pat = Sym.to_string (Q.pattern rng u ~m:3) in
                let tau = tau_min +. Random.State.float rng 0.7 in
                (i, pat, tau))
          in
          List.iter
            (fun (i, pat, tau) ->
              P.write_all fd
                (P.encode_request
                   { P.id = i; op = P.Query { index = 0; pattern = pat; tau } }))
            reqs;
          let got = Hashtbl.create 64 in
          for _ = 1 to List.length reqs do
            match P.read_frame fd with
            | Some payload ->
                let id, reply = P.decode_reply payload in
                Alcotest.(check bool) "no duplicate id" false
                  (Hashtbl.mem got id);
                Hashtbl.replace got id reply
            | None -> Alcotest.fail "connection closed mid-pipeline"
          done;
          List.iter
            (fun (i, pat, tau) ->
              check_hits
                (Printf.sprintf "pipelined reply %d" i)
                (wire (G.query g ~pattern:(Sym.of_string pat) ~tau))
                (Hashtbl.find got i))
            reqs))

let read_json_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Alcotest.fail "connection closed mid-line"
    | _ ->
        if Bytes.get one 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get one 0);
          go ()
        end
  in
  go ()

let test_e2e_json () =
  let u, _, g, _, gpath, _ = Lazy.force fixture in
  with_server [ Server.Source_file gpath ] (fun _srv port ->
      with_conn port (fun fd ->
          let rng = Q.state ~seed:44 () in
          for i = 1 to 15 do
            let pat = Sym.to_string (Q.pattern rng u ~m:4) in
            let tau = tau_min +. Random.State.float rng 0.7 in
            let req =
              { P.id = i; op = P.Query { index = 0; pattern = pat; tau } }
            in
            P.write_all fd (P.request_to_json req ^ "\n");
            let id, reply = P.reply_of_json (read_json_line fd) in
            Alcotest.(check int) "id echoed" i id;
            (* %.17g printing round-trips doubles exactly, so even the
               JSON fallback is bit-for-bit comparable *)
            check_hits "json query"
              (wire (G.query g ~pattern:(Sym.of_string pat) ~tau))
              reply
          done;
          (* malformed line answers an error but keeps the connection *)
          P.write_all fd "{\"id\":oops}\n";
          (match P.reply_of_json (read_json_line fd) with
          | _, P.Error (P.Bad_request, _) -> ()
          | _ -> Alcotest.fail "expected bad_request for malformed json");
          P.write_all fd
            (P.request_to_json { P.id = 99; op = P.Ping } ^ "\n");
          match P.reply_of_json (read_json_line fd) with
          | 99, P.Pong -> ()
          | _ -> Alcotest.fail "ping after malformed line"))

let test_json_cached_hit () =
  (* a JSON connection served from the result cache gets the same line
     as when the reply was computed: the third sighting of a key is a
     hit, answered inline by the accept loop, whose cached binary body
     is decoded back for the JSON line *)
  let _, _, g, _, gpath, _ = Lazy.force fixture in
  let want = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.3) in
  Alcotest.(check bool) "fixture: a non-empty answer" true (want <> []);
  with_server [ Server.Source_file gpath ] (fun srv port ->
      with_conn port (fun fd ->
          let line () =
            P.write_all fd
              (P.request_to_json
                 {
                   P.id = 7;
                   op = P.Query { index = 0; pattern = "A"; tau = 0.3 };
                 }
              ^ "\n");
            read_json_line fd
          in
          let fresh = line () in
          let admitted = line () in
          let m = Server.metrics srv in
          let hits0 = Pti_server.Metrics.result_cache_hits m in
          let hit = line () in
          Alcotest.(check bool) "third sighting is a hit" true
            (Pti_server.Metrics.result_cache_hits m = hits0 + 1);
          check_hits "fresh json reply" want (snd (P.reply_of_json fresh));
          Alcotest.(check string) "filling reply = fresh reply" fresh admitted;
          Alcotest.(check string) "cached-hit reply = fresh reply" fresh hit))

let test_json_line_cap () =
  (* a JSON connection streaming past max_json_line without a newline
     gets a typed bad_request and is dropped — the line-framed fallback
     must not be an unbounded buffer *)
  let _, _, _, _, gpath, _ = Lazy.force fixture in
  with_server [ Server.Source_file gpath ] (fun _srv port ->
      with_conn port (fun fd ->
          (* exactly one byte over the cap, so the server consumes all
             input before erroring (the reply races no RST) *)
          let n = P.max_json_line + 1 in
          let chunk = String.make 65536 'x' in
          P.write_all fd "{";
          let rec send left =
            if left > 0 then begin
              let c = Stdlib.min left (String.length chunk) in
              P.write_all fd (String.sub chunk 0 c);
              send (left - c)
            end
          in
          send (n - 1);
          (match P.reply_of_json (read_json_line fd) with
          | _, P.Error (P.Bad_request, m) ->
              Alcotest.(check bool) "names the bound" true
                (contains m "exceeds")
          | _ -> Alcotest.fail "expected bad_request for oversized line");
          let closed =
            match Unix.read fd (Bytes.create 1) 0 1 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error _ -> true
          in
          Alcotest.(check bool) "connection closed" true closed))

let test_loadgen_verified () =
  (* the acceptance check: concurrency 8, mixed ops, every response
     verified byte-for-byte against direct engine calls, zero errors *)
  let u, _, g, l, gpath, lpath = Lazy.force fixture in
  with_server [ Server.Source_file gpath; Server.Source_file lpath ]
    (fun _srv port ->
      let verify op reply =
        match (op, reply) with
        | P.Query { index = 0; pattern; tau }, P.Hits hs ->
            hs = wire (G.query g ~pattern:(Sym.of_string pattern) ~tau)
        | P.Top_k { index = 0; pattern; tau; k }, P.Hits hs ->
            hs = wire (G.query_top_k g ~pattern:(Sym.of_string pattern) ~tau ~k)
        | P.Listing { index = 1; pattern; tau }, P.Hits hs ->
            hs = wire (L.query l ~pattern:(Sym.of_string pattern) ~tau)
        | _ -> false
      in
      let r =
        Loadgen.run ~port ~concurrency:8 ~duration_s:infinity
          ~requests_per_client:40 ~verify ~index:0 ~listing_index:1 ~k:4
          ~lengths:[ 3; 5 ] ~tau:0.2 ~seed:7
          ~mix:{ Loadgen.query = 6; top_k = 2; listing = 2 }
          ~source:u ()
      in
      Alcotest.(check int) "all requests sent" (8 * 40) r.Loadgen.sent;
      Alcotest.(check int) "all ok" r.Loadgen.sent r.Loadgen.ok;
      Alcotest.(check (list (pair string int))) "no error replies" []
        r.Loadgen.errors;
      Alcotest.(check int) "no protocol failures" 0 r.Loadgen.protocol_failures;
      Alcotest.(check int) "every response verified" 0
        r.Loadgen.verify_failures;
      (* determinism satellite: the same seed replays the same load *)
      let r2 =
        Loadgen.run ~port ~concurrency:8 ~duration_s:infinity
          ~requests_per_client:40 ~verify ~index:0 ~listing_index:1 ~k:4
          ~lengths:[ 3; 5 ] ~tau:0.2 ~seed:7
          ~mix:{ Loadgen.query = 6; top_k = 2; listing = 2 }
          ~source:u ()
      in
      Alcotest.(check int) "replayed run verifies too" 0
        (r2.Loadgen.verify_failures + r2.Loadgen.protocol_failures))

let test_loadgen_default_mix () =
  (* with no listing index named, the default mix sends no listings, so
     a general-only server answers every request; naming one adds the
     listing weight, and an explicit listing weight is kept as given *)
  let u, _, _, _, gpath, _ = Lazy.force fixture in
  let plain = Loadgen.default_mix ~listing_index:None in
  Alcotest.(check int) "no listing weight without a listing index" 0
    plain.Loadgen.listing;
  Alcotest.(check bool) "listing weight with one" true
    ((Loadgen.default_mix ~listing_index:(Some 1)).Loadgen.listing > 0);
  Alcotest.(check int) "explicit listing weight kept" 2
    (Loadgen.mix_of_string "query=8,listing=2").Loadgen.listing;
  with_server [ Server.Source_file gpath ] (fun _srv port ->
      let r =
        Loadgen.run ~port ~concurrency:2 ~duration_s:infinity
          ~requests_per_client:100 ~index:0 ~k:4 ~lengths:[ 3; 5 ] ~tau:0.2
          ~seed:7 ~mix:plain ~source:u ()
      in
      Alcotest.(check int) "all requests sent" 200 r.Loadgen.sent;
      Alcotest.(check (list (pair string int)))
        "no error replies against a general-only server" [] r.Loadgen.errors)

let test_overload () =
  (* one worker held busy + a tiny queue: pipelined requests beyond the
     cap must get explicit Overloaded replies, while Ping/Stats stay
     answered inline *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let config =
    {
      (base_config 1) with
      queue_cap = 2;
      debug_slow = true;
      deadline_ms = 30_000.0;
    }
  in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 400 });
          (* give the worker a moment to take the slow job *)
          Unix.sleepf 0.1;
          let n = 20 in
          for i = 1 to n do
            P.write_all fd
              (P.encode_request
                 { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } })
          done;
          (* the accept loop still answers while the worker is busy *)
          P.write_all fd (P.encode_request { P.id = 777; op = P.Ping });
          P.write_all fd (P.encode_request { P.id = 778; op = P.Stats });
          let overloaded = ref 0 and hits = ref 0 and pong = ref 0 in
          let stats = ref 0 and inline_before_slow = ref false in
          for _ = 1 to n + 3 do
            match P.read_frame fd with
            | Some payload -> (
                match P.decode_reply payload with
                | _, P.Error (P.Overloaded, _) -> incr overloaded
                | 0, P.Pong ->
                    incr pong
                | 777, P.Pong ->
                    incr pong;
                    (* the slow op is still running: inline replies beat it *)
                    if !pong = 1 then inline_before_slow := true
                | _, P.Stats_reply _ -> incr stats
                | _, P.Hits _ -> incr hits
                | _, r ->
                    Alcotest.failf "unexpected reply %s"
                      (match r with
                      | P.Error (e, m) -> P.err_to_string e ^ ": " ^ m
                      | _ -> "?"))
            | None -> Alcotest.fail "connection closed under overload"
          done;
          Alcotest.(check bool) "some requests overloaded" true
            (!overloaded > 0);
          Alcotest.(check bool) "queued requests still answered" true
            (!hits > 0);
          Alcotest.(check int) "every request answered exactly once" (n + 3)
            (!overloaded + !hits + !pong + !stats);
          Alcotest.(check int) "both pings ponged" 2 !pong;
          Alcotest.(check int) "stats answered inline" 1 !stats;
          Alcotest.(check bool) "server observable while saturated" true
            !inline_before_slow);
      (* the server counted them too *)
      Alcotest.(check bool) "overloads counted server-side" true
        (Pti_server.Metrics.overloaded (Server.metrics srv) > 0))

let test_timeout () =
  (* a request stuck behind a slow one past its deadline is answered
     Timeout by the worker that dequeues it *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let config =
    { (base_config 1) with debug_slow = true; deadline_ms = 80.0 }
  in
  with_server ~config [ Server.Source_general g ] (fun _srv port ->
      with_conn port (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 400 });
          Unix.sleepf 0.1;
          for i = 1 to 3 do
            P.write_all fd
              (P.encode_request
                 { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } })
          done;
          let timeouts = ref 0 and pong = ref 0 in
          for _ = 1 to 4 do
            match P.read_frame fd with
            | Some payload -> (
                match P.decode_reply payload with
                | _, P.Error (P.Timeout, _) -> incr timeouts
                | 0, P.Pong -> incr pong
                | _, P.Hits _ -> ()
                | _ -> Alcotest.fail "unexpected reply")
            | None -> Alcotest.fail "connection closed"
          done;
          Alcotest.(check int) "slow op completed" 1 !pong;
          Alcotest.(check int) "queued requests timed out" 3 !timeouts))

(* ------------------------------------------------------------------ *)
(* Graceful degradation under injected faults *)

module F = Pti_fault

let with_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

(* Read every reply until the server closes the connection, keyed by
   request id. *)
let read_until_close fd =
  let got = Hashtbl.create 8 in
  let rec go () =
    match P.read_frame fd with
    | Some payload ->
        let id, reply = P.decode_reply payload in
        Hashtbl.replace got id reply;
        go ()
    | None -> got
    | exception Unix.Unix_error _ -> got
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Result-cache hits answered on the accept loop *)

let query_a = P.Query { index = 0; pattern = "A"; tau = 0.3 }

(* Sight [op] three times over [fd]: a bypass, a fill, then a hit. *)
let warm fd op =
  for i = 1 to 3 do
    match rpc fd { P.id = 9000 + i; op } with
    | _, P.Hits _ -> ()
    | _ -> Alcotest.fail "warm-up query failed"
  done

(* A cached read with a fat answer, and [n] pipelined copies of it
   whose replies overflow any socket buffer. *)
let hot_op = P.Query { index = 0; pattern = "A"; tau = tau_min }

let overflowing_hits g =
  let hits = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:tau_min) in
  let reply_bytes = String.length (P.encode_reply ~id:0 (P.Hits hits)) in
  let n = (16 * 1024 * 1024 / reply_bytes) + 1 in
  let buf = Buffer.create (n * 32) in
  for i = 1 to n do
    Buffer.add_string buf (P.encode_request { P.id = i; op = hot_op })
  done;
  (n, reply_bytes, buf)

let test_hit_while_worker_busy () =
  (* the only worker sleeps in a Slow op; a cached hit, on a binary and
     on a JSON connection, is still answered at once, by the loop, and
     the JSON line is the fresh reply's *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let want = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.3) in
  let config =
    { (base_config 1) with debug_slow = true; deadline_ms = 30_000.0 }
  in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun jfd ->
          let json_line id =
            P.write_all jfd (P.request_to_json { P.id; op = query_a } ^ "\n");
            read_json_line jfd
          in
          let fresh = json_line 1 in
          check_hits "fresh json reply" want (snd (P.reply_of_json fresh));
          ignore (json_line 1 : string);
          with_conn port (fun fd ->
              P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 600 });
              Unix.sleepf 0.05;
              let m = Server.metrics srv in
              let hits0 = Pti_server.Metrics.result_cache_hits m in
              let t0 = Unix.gettimeofday () in
              let _, reply = rpc fd { P.id = 1; op = query_a } in
              let hit = json_line 1 in
              let took = Unix.gettimeofday () -. t0 in
              check_hits "binary hit" want reply;
              Alcotest.(check string) "inline json hit = fresh reply" fresh hit;
              Alcotest.(check int) "both were cache hits" (hits0 + 2)
                (Pti_server.Metrics.result_cache_hits m);
              Alcotest.(check bool)
                (Printf.sprintf "answered before the slow op (%.0f ms)"
                   (took *. 1e3))
                true (took < 0.3);
              (* the loop handles jfd's input in order, so once this
                 ping is answered the hits' latencies are recorded: all
                 four queries are in the histogram, not just the two
                 the worker answered *)
              P.write_all jfd (P.request_to_json { P.id = 3; op = P.Ping } ^ "\n");
              ignore (read_json_line jfd : string);
              Alcotest.(check bool) "inline hits timed" true
                (contains (Server.stats_json srv) "\"query\":{\"count\":4,");
              match P.read_frame fd with
              | Some payload -> (
                  match P.decode_reply payload with
                  | 0, P.Pong -> ()
                  | _ -> Alcotest.fail "slow op reply")
              | None -> Alcotest.fail "slow op lost")))

let test_slow_reader_isolated () =
  (* a client pipelines cached hits and never reads: the loop's sends
     never wait on it, so another connection's hit and Ping come back
     promptly, and the stalled client is dropped once its replies have
     not drained for send_timeout_ms *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let op = hot_op in
  let config =
    { (base_config 1) with queue_cap = 64; send_timeout_ms = 300.0 }
  in
  with_server ~config [ Server.Source_general g ] (fun _srv port ->
      with_conn port (fun fd ->
          warm fd op;
          let slow = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.setsockopt_int slow Unix.SO_RCVBUF 4096;
              Unix.connect slow (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let n, reply_bytes, buf = overflowing_hits g in
              (* the server stops reading this client once its replies
                 back up, so the requests may not all fit in the socket
                 buffers: write them from another domain, which sees
                 the connection close under it *)
              let reqs = Buffer.contents buf in
              let writer =
                Domain.spawn (fun () ->
                    try P.write_all slow reqs with Unix.Unix_error _ -> ())
              in
              Unix.sleepf 0.05;
              let worst = ref 0.0 in
              for i = 1 to 5 do
                let t0 = Unix.gettimeofday () in
                (match rpc fd { P.id = i; op } with
                | _, P.Hits _ -> ()
                | _ -> Alcotest.fail "hit beside a stalled client");
                (match rpc fd { P.id = 100 + i; op = P.Ping } with
                | _, P.Pong -> ()
                | _ -> Alcotest.fail "ping beside a stalled client");
                worst := Float.max !worst (Unix.gettimeofday () -. t0)
              done;
              Alcotest.(check bool)
                (Printf.sprintf
                   "hit + ping beside a stalled client: worst %.1f ms"
                   (!worst *. 1e3))
                true (!worst < 0.1);
              (* past send_timeout_ms the server has closed it: reading
                 now finds the end of the stream instead of replies
                 that keep coming *)
              Unix.sleepf 0.8;
              Unix.setsockopt_float slow Unix.SO_RCVTIMEO 3.0;
              let b = Bytes.create 65536 in
              let rec drain total =
                match Unix.read slow b 0 (Bytes.length b) with
                | 0 -> total
                | k -> drain (total + k)
                | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> total
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    Alcotest.failf "stalled client still open after %d bytes"
                      total
              in
              let got = drain 0 in
              Domain.join writer;
              Alcotest.(check bool) "stalled client got part of its replies"
                true
                (got < n * reply_bytes));
          (* the server is still fine *)
          match rpc fd { P.id = 7; op = P.Ping } with
          | 7, P.Pong -> ()
          | _ -> Alcotest.fail "ping after the stalled client"))

let test_reply_handed_to_writer () =
  (* while a worker holds a connection's write mutex (held here by a
     delay failpoint inside its reply write), replies the loop answers
     on that connection are handed to the worker, not lost and not
     waited for; and a connection stalled on a full socket whose mutex
     a worker holds is resumed once the worker is done *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let config = { (base_config 1) with queue_cap = 64 } in
  let read_reply fd =
    match P.read_frame fd with
    | Some payload -> P.decode_reply payload
    | None -> Alcotest.fail "connection closed"
  in
  with_faults (fun () ->
      with_server ~config [ Server.Source_general g ] (fun _srv port ->
          (* a Ping answered by the loop while the worker writes *)
          with_conn port (fun fd ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
              F.arm "server.reply" (F.Delay 300) (F.Nth 1);
              P.write_all fd (P.encode_request { P.id = 1; op = query_a });
              Unix.sleepf 0.1;
              P.write_all fd (P.encode_request { P.id = 2; op = P.Ping });
              let got = List.init 2 (fun _ -> read_reply fd) in
              Alcotest.(check bool) "the ping was answered" true
                (List.mem (2, P.Pong) got);
              Alcotest.(check bool) "the query was answered" true
                (List.exists
                   (function 1, P.Hits _ -> true | _ -> false)
                   got));
          (* a stalled connection, resumed after the worker's write *)
          with_conn port (fun fd ->
              warm fd hot_op;
              let n, _, hits = overflowing_hits g in
              (* a miss over the loop's budget first (the worker's
                 write), then cached hits *)
              a_over_budget ();
              let miss = P.Query { index = 0; pattern = "A"; tau = 0.2 } in
              F.arm "server.reply" (F.Delay 300) (F.Nth 1);
              P.write_all fd (P.encode_request { P.id = 0; op = miss });
              Unix.sleepf 0.05;
              let reqs = Buffer.contents hits in
              let writer = Domain.spawn (fun () -> P.write_all fd reqs) in
              Unix.sleepf 0.2;
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
              let seen = Array.make (n + 1) false in
              for _ = 0 to n do
                let id, _ = read_reply fd in
                seen.(id) <- true
              done;
              Domain.join writer;
              Alcotest.(check bool) "every pipelined request answered" true
                (Array.for_all Fun.id seen);
              match rpc fd { P.id = 7; op = P.Ping } with
              | 7, P.Pong -> ()
              | _ -> Alcotest.fail "ping after the stall")))

let test_torn_hit_reply () =
  (* the server.reply failpoint covers the replies the loop sends too:
     a cached hit's reply is cut short and the connection breaks. The
     key is cheap, so no worker ever holds the connection's write
     mutex and every reply leaves through the loop's own send. *)
  let u, _, g, _, _, _ = Lazy.force fixture in
  let pattern = List.hd (cheap_patterns ~seed:60 (G.engine g) u 1) in
  let op = P.Query { index = 0; pattern; tau = 0.2 } in
  with_faults (fun () ->
      with_server [ Server.Source_general g ] (fun srv port ->
          with_conn port (fun fd ->
              warm fd op;
              Alcotest.(check int) "no worker wrote" 0
                (Pti_server.Metrics.worker_writes (Server.metrics srv));
              F.arm "server.reply" (F.Short_write 2) (F.Nth 1);
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
              P.write_all fd (P.encode_request { P.id = 1; op });
              (match P.read_frame fd with
              | Some _ -> Alcotest.fail "the hit's reply came back whole"
              | None -> ()
              | exception (P.Protocol_error _ | Unix.Unix_error _) -> ());
              Alcotest.(check int) "the hit passed the failpoint" 1
                (F.hit_count "server.reply"))))

let test_torn_handoff_reply () =
  (* a reply the loop hands to the worker holding the connection's
     write mutex leaves through that worker's flush, and passes the
     server.reply failpoint there too: the worker's own reply (held up
     by a delay inside its write) comes back whole, the handed-off Pong
     is cut short and the connection breaks *)
  a_over_budget ();
  let _, _, g, _, _, _ = Lazy.force fixture in
  with_faults (fun () ->
      with_server ~config:(base_config 1) [ Server.Source_general g ]
        (fun _srv port ->
          with_conn port (fun fd ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
              F.arm "server.reply" (F.Delay 300) (F.Nth 1);
              P.write_all fd (P.encode_request { P.id = 1; op = query_a });
              Unix.sleepf 0.1;
              P.write_all fd (P.encode_request { P.id = 2; op = P.Ping });
              Unix.sleepf 0.05;
              (* the worker still sleeps inside its write; the Pong is
                 handed off to it. Re-arming resets the hit count. *)
              F.arm "server.reply" (F.Short_write 2) (F.Nth 1);
              (match P.read_frame fd with
              | Some payload -> (
                  match P.decode_reply payload with
                  | 1, P.Hits _ -> ()
                  | _ -> Alcotest.fail "the worker's reply")
              | None -> Alcotest.fail "the worker's reply was lost");
              (match P.read_frame fd with
              | Some _ -> Alcotest.fail "the handed-off reply came back whole"
              | None -> ()
              | exception (P.Protocol_error _ | Unix.Unix_error _) -> ());
              Alcotest.(check int) "the hand-off passed the failpoint" 1
                (F.hit_count "server.reply"))))

let test_retired_format_refused () =
  (* a file of a retired format behind an index id is a typed
     bad_index reply naming the rebuild, and the connection keeps
     serving *)
  let path = Filename.temp_file "pti_srv_retired" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc ("PTI-ENGINE-3\n" ^ String.make 3 '\000');
      close_out oc;
      with_server [ Server.Source_file path ] (fun _srv port ->
          with_conn port (fun fd ->
              (match rpc fd { P.id = 1; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } } with
              | 1, P.Error (P.Bad_index, msg) ->
                  Alcotest.(check bool) ("says to rebuild: " ^ msg) true
                    (contains msg "rebuild")
              | _ -> Alcotest.fail "expected a bad_index reply");
              match rpc fd { P.id = 2; op = P.Ping } with
              | 2, P.Pong -> ()
              | _ -> Alcotest.fail "ping after the refusal")))

(* ------------------------------------------------------------------ *)
(* Result-cache misses answered on the accept loop *)

let test_over_budget_queued () =
  (* with the only worker asleep in a Slow op, a query over the loop's
     budget waits for it; a cheap miss and a Ping do not *)
  let u, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let cheap = List.hd (cheap_patterns ~seed:61 (G.engine g) u 1) in
  let config =
    { (base_config 1) with debug_slow = true; deadline_ms = 30_000.0 }
  in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 300 });
          Unix.sleepf 0.05;
          List.iter
            (fun (id, op) -> P.write_all fd (P.encode_request { P.id = id; op }))
            [
              (1, P.Query { index = 0; pattern = "A"; tau = 0.5 });
              (2, P.Query { index = 0; pattern = cheap; tau = tau_min });
              (3, P.Ping);
            ];
          let got =
            List.init 4 (fun _ ->
                match P.read_frame fd with
                | Some payload -> P.decode_reply payload
                | None -> Alcotest.fail "connection closed")
          in
          Alcotest.(check (list int)) "reply order" [ 2; 3; 0; 1 ]
            (List.map fst got);
          check_hits "over-budget query"
            (wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5))
            (List.assoc 1 got);
          check_hits "cheap miss"
            (wire (G.query g ~pattern:(Sym.of_string cheap) ~tau:tau_min))
            (List.assoc 2 got);
          Alcotest.(check int) "only Slow and the heavy query were queued" 2
            (Pti_server.Metrics.batched_jobs (Server.metrics srv))))

let test_long_pattern_queued () =
  (* a pattern longer than [loop_pattern_max] goes to a worker even
     when its suffix range is within budget: with the only worker asleep
     in a Slow op it waits, while a Ping on another connection does not.
     The fixture holds no stretch that long with probability above
     τ_min, so this index is built over a certain text. *)
  let text =
    let rng = Random.State.make [| 63 |] in
    String.init 400 (fun _ -> "ACDE".[Random.State.int rng 4])
  in
  let g = G.build ~tau_min (U.of_string text) in
  let long = String.sub text 100 (Server.loop_pattern_max + 8) in
  Alcotest.(check bool)
    (Printf.sprintf "long pattern found (%d entries)" (range_size (G.engine g) long))
    true
    (range_size (G.engine g) long >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "long pattern's range (%d entries) is within budget"
       (range_size (G.engine g) long))
    true
    (range_size (G.engine g) long <= Server.loop_range_budget);
  let config =
    { (base_config 1) with debug_slow = true; deadline_ms = 30_000.0 }
  in
  with_server ~config [ Server.Source_general g ] (fun _ port ->
      with_conn port (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 300 });
          Unix.sleepf 0.05;
          P.write_all fd
            (P.encode_request
               { P.id = 1; op = P.Query { index = 0; pattern = long; tau = tau_min } });
          with_conn port (fun fd2 ->
              let t0 = Unix.gettimeofday () in
              (match rpc fd2 { P.id = 2; op = P.Ping } with
              | 2, P.Pong -> ()
              | _ -> Alcotest.fail "ping");
              let took = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool)
                (Printf.sprintf "ping while the long query waits (%.0f ms)"
                   (took *. 1e3))
                true (took < 0.1));
          let got =
            List.init 2 (fun _ ->
                match P.read_frame fd with
                | Some payload -> P.decode_reply payload
                | None -> Alcotest.fail "connection closed")
          in
          Alcotest.(check (list int)) "long query answered after Slow" [ 0; 1 ]
            (List.map fst got);
          check_hits "long query"
            (wire (G.query g ~pattern:(Sym.of_string long) ~tau:tau_min))
            (List.assoc 1 got)))

let test_cold_file_on_worker () =
  (* the loop never opens a container: a cheap query on a cold file
     goes to a worker, whose slow open does not hold up another
     connection's Ping; once open, the file's cheap misses run on the
     loop *)
  let u, _, g, _, gpath, _ = Lazy.force fixture in
  let pats = cheap_patterns ~seed:62 (G.engine g) u 2 in
  let query id pattern = { P.id; op = P.Query { index = 0; pattern; tau = 0.2 } } in
  let want pattern = wire (G.query g ~pattern:(Sym.of_string pattern) ~tau:0.2) in
  with_faults (fun () ->
      with_server ~config:(base_config 1) [ Server.Source_file gpath ]
        (fun srv port ->
          F.arm "cache.open" (F.Delay 400) F.Always;
          with_conn port (fun fd ->
              P.write_all fd (P.encode_request (query 1 (List.nth pats 0)));
              Unix.sleepf 0.05;
              with_conn port (fun fd2 ->
                  let t0 = Unix.gettimeofday () in
                  (match rpc fd2 { P.id = 2; op = P.Ping } with
                  | 2, P.Pong -> ()
                  | _ -> Alcotest.fail "ping");
                  let took = Unix.gettimeofday () -. t0 in
                  Alcotest.(check bool)
                    (Printf.sprintf "ping during the open (%.0f ms)" (took *. 1e3))
                    true (took < 0.1));
              (match P.read_frame fd with
              | Some payload ->
                  check_hits "cold query" (want (List.nth pats 0))
                    (snd (P.decode_reply payload))
              | None -> Alcotest.fail "connection closed");
              Alcotest.(check int) "opened once" 1 (F.hit_count "cache.open");
              let m = Server.metrics srv in
              let jobs0 = Pti_server.Metrics.batched_jobs m in
              check_hits "warm query" (want (List.nth pats 1))
                (snd (rpc fd (query 3 (List.nth pats 1))));
              Alcotest.(check int) "warm cheap miss ran on the loop" jobs0
                (Pti_server.Metrics.batched_jobs m))))

let test_loop_miss_identity () =
  (* misses run on the loop answer exactly what direct engine calls
     give, on binary and JSON connections, typed errors included; the
     first sighting bypasses the result cache, the second fills it on
     the loop, the third is a hit *)
  let u, docs, g, l, _, _ = Lazy.force fixture in
  let gp = cheap_patterns ~seed:63 (G.engine g) u 12 in
  let lp = cheap_patterns ~seed:64 (L.engine l) (List.hd docs) 6 in
  let bad_tau = tau_min /. 2.0 in
  let refused f =
    match f () with
    | _ -> Alcotest.fail "expected the engine to refuse"
    | exception Invalid_argument m -> P.Error (P.Bad_request, m)
  in
  let cases =
    List.concat_map
      (fun pat ->
        let sym = Sym.of_string pat in
        [
          ( P.Query { index = 0; pattern = pat; tau = 0.2 },
            P.Hits (wire (G.query g ~pattern:sym ~tau:0.2)) );
          ( P.Top_k { index = 0; pattern = pat; tau = tau_min; k = 3 },
            P.Hits (wire (G.query_top_k g ~pattern:sym ~tau:tau_min ~k:3)) );
        ])
      gp
    @ List.map
        (fun pat ->
          ( P.Listing { index = 1; pattern = pat; tau = 0.2 },
            P.Hits (wire (L.query l ~pattern:(Sym.of_string pat) ~tau:0.2)) ))
        lp
    @ [
        ( P.Query { index = 0; pattern = List.hd gp; tau = bad_tau },
          refused (fun () ->
              G.query g ~pattern:(Sym.of_string (List.hd gp)) ~tau:bad_tau) );
        ( P.Listing { index = 0; pattern = List.hd gp; tau = 0.2 },
          P.Error (P.Bad_request, "index 0 is not a listing index") );
      ]
  in
  with_server [ Server.Source_general g; Server.Source_listing l ]
    (fun srv port ->
      with_conn port (fun fd ->
          with_conn port (fun jfd ->
              let binary () =
                List.iteri
                  (fun id (op, want) ->
                    Alcotest.(check string)
                      (Printf.sprintf "binary reply %d" id)
                      (P.encode_reply ~id want)
                      (P.encode_reply ~id (snd (rpc fd { P.id = id; op }))))
                  cases
              in
              binary ();
              List.iteri
                (fun id (op, want) ->
                  P.write_all jfd (P.request_to_json { P.id = id; op } ^ "\n");
                  Alcotest.(check string)
                    (Printf.sprintf "json reply %d" id)
                    (P.reply_to_json ~id want) (read_json_line jfd))
                cases;
              binary ();
              let m = Server.metrics srv in
              Alcotest.(check bool) "the result cache filled and hit" true
                (Pti_server.Metrics.result_cache_hits m > 0);
              Alcotest.(check int) "no request reached a worker" 0
                (Pti_server.Metrics.batched_jobs m))))

let test_syscall_counts () =
  (* the daemon counts its own syscalls: N lock-step requests on one
     connection, each a miss the loop runs, take exactly N sends from
     the loop and no write from a worker *)
  let u, _, g, _, _, _ = Lazy.force fixture in
  let pats = cheap_patterns ~seed:65 (G.engine g) u 10 in
  with_server [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun fd ->
          let m = Server.metrics srv in
          let sends0 = Pti_server.Metrics.loop_sends m in
          let reads0 = Pti_server.Metrics.reads m in
          List.iteri
            (fun id pattern ->
              match rpc fd { P.id; op = P.Query { index = 0; pattern; tau = 0.2 } } with
              | _, P.Hits _ -> ()
              | _ -> Alcotest.fail "query failed")
            pats;
          let n = List.length pats in
          Alcotest.(check int) "one loop send per request" n
            (Pti_server.Metrics.loop_sends m - sends0);
          Alcotest.(check int) "no worker write" 0
            (Pti_server.Metrics.worker_writes m);
          Alcotest.(check bool) "a read per request at least" true
            (Pti_server.Metrics.reads m - reads0 >= n);
          Alcotest.(check bool) "epoll waits counted" true
            (Pti_server.Metrics.epoll_waits m >= n);
          Alcotest.(check bool) "stats expose them" true
            (contains (Server.stats_json srv) "\"syscalls\":{\"loop_sends\":")))

let test_flight_owner_refused () =
  (* a job that owns its key's flight and is never run — its deadline
     expires in the queue, or the drain window closes on it — answers
     the requests that joined its flight with the same typed error,
     and leaves the key free for the next request *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let want = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.3) in
  let pipeline fd =
    P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 400 });
    Unix.sleepf 0.1;
    (* the owner, then two requests that join its flight *)
    for i = 1 to 3 do
      P.write_all fd (P.encode_request { P.id = i; op = query_a })
    done
  in
  let check_refused name err got =
    (match Hashtbl.find_opt got 0 with
    | Some P.Pong -> ()
    | _ -> Alcotest.failf "%s: slow op did not complete" name);
    for i = 1 to 3 do
      match Hashtbl.find_opt got i with
      | Some (P.Error (e, _)) when e = err -> ()
      | Some _ -> Alcotest.failf "%s: request %d got another reply" name i
      | None -> Alcotest.failf "%s: request %d got no reply" name i
    done
  in
  (* deadline expiry *)
  let config = { (base_config 1) with debug_slow = true; deadline_ms = 80.0 } in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun fd ->
          (* first sighting: computed, not admitted *)
          check_hits "first sighting" want (snd (rpc fd { P.id = 50; op = query_a }));
          pipeline fd;
          let got = Hashtbl.create 4 in
          for _ = 0 to 3 do
            match P.read_frame fd with
            | Some payload ->
                let id, reply = P.decode_reply payload in
                Hashtbl.replace got id reply
            | None -> Alcotest.fail "connection closed"
          done;
          check_refused "timeout" P.Timeout got;
          Alcotest.(check int) "two requests joined the flight" 2
            (Pti_server.Metrics.result_cache_waits (Server.metrics srv));
          check_hits "the key is free again" want
            (snd (rpc fd { P.id = 60; op = query_a }))));
  (* drain window *)
  let config =
    {
      (base_config 1) with
      debug_slow = true;
      deadline_ms = 30_000.0;
      drain_timeout_ms = 50.0;
    }
  in
  let srv = Server.create ~config [ Server.Source_general g ] in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () ->
      with_conn (Server.port srv) (fun fd ->
          check_hits "first sighting" want (snd (rpc fd { P.id = 50; op = query_a }));
          pipeline fd;
          Unix.sleepf 0.05;
          Server.stop srv;
          check_refused "drain" P.Shutting_down (read_until_close fd)))

let test_drain () =
  (* SIGTERM semantics: stop() closes the listen socket, lets in-flight
     and already-queued work complete within the drain window, and
     answers anything arriving after the flag with Shutting_down *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let config =
    {
      (base_config 1) with
      debug_slow = true;
      deadline_ms = 30_000.0;
      drain_timeout_ms = 5_000.0;
    }
  in
  let srv = Server.create ~config [ Server.Source_general g ] in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () ->
      with_conn (Server.port srv) (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 300 });
          Unix.sleepf 0.1;
          (* queued behind the slow op, must still complete *)
          P.write_all fd
            (P.encode_request
               { P.id = 1; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } });
          Unix.sleepf 0.05;
          Server.stop srv;
          Unix.sleepf 0.02;
          (* arrives after the stop flag: refused with a typed reply *)
          P.write_all fd
            (P.encode_request
               { P.id = 2; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } });
          let got = read_until_close fd in
          (match Hashtbl.find_opt got 0 with
          | Some P.Pong -> ()
          | _ -> Alcotest.fail "in-flight slow op did not complete");
          check_hits "queued request completed during drain"
            (wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5))
            (Hashtbl.find got 1);
          match Hashtbl.find_opt got 2 with
          | Some (P.Error (P.Shutting_down, _)) -> ()
          | Some _ -> Alcotest.fail "post-stop request got a non-drain reply"
          | None -> Alcotest.fail "post-stop request got no reply"))

let test_drain_timeout () =
  (* a drain window too short for the backlog: in-flight work finishes,
     but jobs still queued past the deadline are answered
     Shutting_down instead of holding shutdown hostage *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  a_over_budget ();
  let config =
    {
      (base_config 1) with
      debug_slow = true;
      deadline_ms = 30_000.0;
      drain_timeout_ms = 50.0;
    }
  in
  let srv = Server.create ~config [ Server.Source_general g ] in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () ->
      with_conn (Server.port srv) (fun fd ->
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 400 });
          Unix.sleepf 0.1;
          for i = 1 to 2 do
            P.write_all fd
              (P.encode_request
                 { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } })
          done;
          Unix.sleepf 0.05;
          Server.stop srv;
          let got = read_until_close fd in
          (match Hashtbl.find_opt got 0 with
          | Some P.Pong -> ()
          | _ -> Alcotest.fail "in-flight slow op did not complete");
          for i = 1 to 2 do
            match Hashtbl.find_opt got i with
            | Some (P.Error (P.Shutting_down, _)) -> ()
            | Some _ ->
                Alcotest.failf "request %d should expire with shutting_down" i
            | None -> Alcotest.failf "request %d got no reply" i
          done))

let test_worker_respawn () =
  (* a worker domain dying on a poisoned task is replaced, and the
     replacement serves correct answers; the death is counted *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  with_faults (fun () ->
      F.arm "server.worker" (F.Raise Unix.EIO) (F.Nth 1);
      with_server ~config:(base_config 1) [ Server.Source_general g ]
        (fun srv port ->
          with_conn port (fun fd ->
              let _, reply =
                rpc fd
                  { P.id = 5; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } }
              in
              check_hits "respawned worker answers correctly"
                (wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5))
                reply);
          Alcotest.(check int) "worker death counted" 1
            (Pti_server.Metrics.worker_deaths (Server.metrics srv))))

let test_accept_emfile () =
  (* accept failing with EMFILE (fd exhaustion) must not kill the
     accept loop: the failure is counted, the backlogged connection is
     picked up by the next level-triggered readiness report, and the
     server keeps serving *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  with_faults (fun () ->
      F.arm "server.accept" (F.Raise Unix.EMFILE) (F.Nth 1);
      with_server ~config:(base_config 1) [ Server.Source_general g ]
        (fun srv port ->
          with_conn port (fun fd ->
              (match rpc fd { P.id = 3; op = P.Ping } with
              | 3, P.Pong -> ()
              | _ -> Alcotest.fail "ping after EMFILE accept failure");
              let _, reply =
                rpc fd
                  { P.id = 4; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } }
              in
              check_hits "query after EMFILE"
                (wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5))
                reply);
          Alcotest.(check bool) "accept failure counted" true
            (Pti_server.Metrics.accept_failures (Server.metrics srv) >= 1)))

let test_half_close_midframe () =
  (* a client that half-closes (shutdown write) after sending only part
     of a frame: the server must reap the connection on EOF without
     crashing, without replying, and keep serving other clients *)
  let _, _, _, _, gpath, _ = Lazy.force fixture in
  with_server ~config:(base_config 1) [ Server.Source_file gpath ]
    (fun _srv port ->
      with_conn port (fun fd ->
          let frame =
            P.encode_request
              { P.id = 9; op = P.Query { index = 0; pattern = "AC"; tau = 0.5 } }
          in
          (* 2 of the 4 length-prefix bytes, then half-close *)
          ignore (Unix.write_substring fd frame 0 2);
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          (match P.read_frame fd with
          | None -> ()
          | Some _ -> Alcotest.fail "reply to a truncated frame"
          | exception Unix.Unix_error _ -> ());
          (* mid-payload truncation too: full prefix, partial body *)
          with_conn port (fun fd2 ->
              ignore (Unix.write_substring fd2 frame 0 (String.length frame - 3));
              Unix.shutdown fd2 Unix.SHUTDOWN_SEND;
              match P.read_frame fd2 with
              | None -> ()
              | Some _ -> Alcotest.fail "reply to a truncated payload"
              | exception Unix.Unix_error _ -> ());
          (* the server is still fine *)
          with_conn port (fun fd3 ->
              match rpc fd3 { P.id = 1; op = P.Ping } with
              | 1, P.Pong -> ()
              | _ -> Alcotest.fail "ping after half-closed clients")))

let test_partial_length_prefix () =
  (* a connection readable with only part of the 4-byte length prefix
     (then a byte-at-a-time trickle of the payload) must neither block
     the loop nor corrupt framing: the reply is byte-for-byte correct
     and a second, fast connection is served while the first trickles *)
  let u, _, g, _, gpath, _ = Lazy.force fixture in
  with_server ~config:(base_config 1) [ Server.Source_file gpath ]
    (fun _srv port ->
      with_conn port (fun slow ->
          let rng = Q.state ~seed:47 () in
          let pat = Sym.to_string (Q.pattern rng u ~m:4) in
          let frame =
            P.encode_request
              { P.id = 5; op = P.Query { index = 0; pattern = pat; tau = 0.4 } }
          in
          (* one byte of the prefix... *)
          ignore (Unix.write_substring slow frame 0 1);
          Unix.sleepf 0.02;
          (* ...a fast client overtakes the trickler... *)
          with_conn port (fun fast ->
              match rpc fast { P.id = 2; op = P.Ping } with
              | 2, P.Pong -> ()
              | _ -> Alcotest.fail "fast client blocked behind a trickler");
          (* ...then the rest, byte by byte *)
          for i = 1 to String.length frame - 1 do
            ignore (Unix.write_substring slow frame i 1)
          done;
          let id, reply =
            match P.read_frame slow with
            | Some payload -> P.decode_reply payload
            | None -> Alcotest.fail "server dropped the trickled frame"
          in
          Alcotest.(check int) "trickled id" 5 id;
          check_hits "trickled query"
            (wire (G.query g ~pattern:(Sym.of_string pat) ~tau:0.4))
            reply))

let test_max_conns_shed () =
  (* --max-conns: accepts beyond the cap are shed (closed immediately,
     counted), and a slot freed by a disconnect is reusable *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let config = { (base_config 1) with max_conns = 2 } in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      with_conn port (fun fd1 ->
          (match rpc fd1 { P.id = 1; op = P.Ping } with
          | 1, P.Pong -> ()
          | _ -> Alcotest.fail "conn 1 ping");
          with_conn port (fun fd2 ->
              (match rpc fd2 { P.id = 2; op = P.Ping } with
              | 2, P.Pong -> ()
              | _ -> Alcotest.fail "conn 2 ping");
              (* third connection: accepted by the kernel, shed by the
                 server — we observe EOF/reset instead of a reply *)
              with_conn port (fun fd3 ->
                  (try
                     P.write_all fd3
                       (P.encode_request { P.id = 3; op = P.Ping })
                   with Unix.Unix_error _ -> ());
                  (match P.read_frame fd3 with
                  | None -> ()
                  | Some _ -> Alcotest.fail "shed connection got a reply"
                  | exception Unix.Unix_error _ -> ()
                  | exception P.Protocol_error _ -> ()));
              Alcotest.(check bool) "shed counted" true
                (Pti_server.Metrics.connections_shed (Server.metrics srv) >= 1);
              (* the first two are unaffected *)
              match rpc fd2 { P.id = 4; op = P.Ping } with
              | 4, P.Pong -> ()
              | _ -> Alcotest.fail "conn 2 ping after shed"));
      (* both slots now free: a new connection is served again *)
      Unix.sleepf 0.2;
      with_conn port (fun fd5 ->
          match rpc fd5 { P.id = 5; op = P.Ping } with
          | 5, P.Pong -> ()
          | _ -> Alcotest.fail "slot not reusable after disconnects"))

let test_many_connections () =
  (* the point of leaving select: far more than FD_SETSIZE (1024)
     concurrent connections, no sheds, every one still answered. The
     target scales down if the process fd limit can't host ~2x that
     many fds (server + client side live in this one process). *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let target = 1050 in
  let config = { (base_config 1) with max_conns = 8192; queue_cap = 4096 } in
  with_server ~config [ Server.Source_general g ] (fun srv port ->
      let conns = ref [] in
      let n = ref 0 in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !conns)
        (fun () ->
          (try
             while !n < target do
               let fd = connect port in
               conns := fd :: !conns;
               incr n;
               (* pace the flood: a ping round-trip on the newest
                  connection proves the accept loop has caught up *)
               if !n mod 128 = 0 then
                 match rpc fd { P.id = !n; op = P.Ping } with
                 | _, P.Pong -> ()
                 | _ -> Alcotest.fail "pacing ping failed"
             done
           with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
             (* client-side fd exhaustion: keep what we got *)
             ());
          if !n < target then
            Printf.printf
              "fd limit allowed only %d concurrent connections (target %d)\n"
              !n target;
          Alcotest.(check bool) "opened a meaningful number" true (!n >= 64);
          (* every sampled connection still answers — nothing was shed,
             nothing starved *)
          List.iteri
            (fun i fd ->
              if i mod 97 = 0 then
                match rpc fd { P.id = i; op = P.Ping } with
                | id, P.Pong when id = i -> ()
                | _ -> Alcotest.failf "connection %d unresponsive" i)
            !conns;
          Alcotest.(check int) "no sheds" 0
            (Pti_server.Metrics.connections_shed (Server.metrics srv))))

let test_batched_identity () =
  (* stall the single worker behind a Slow op so a burst of pipelined
     queries on cold containers piles up in the queue and is popped as
     one batch: every reply is byte-for-byte identical to a direct
     engine call, typed errors included *)
  let u, docs, g, l, gpath, lpath = Lazy.force fixture in
  let config =
    { (base_config 1) with debug_slow = true; queue_cap = 256 }
  in
  with_server ~config [ Server.Source_file gpath; Server.Source_file lpath ]
    (fun srv port ->
      with_conn port (fun fd ->
          let rng = Q.state ~seed:53 () in
          P.write_all fd (P.encode_request { P.id = 0; op = P.Slow 200 });
          Unix.sleepf 0.05;
          let d0 = List.hd docs in
          (* a mixed burst: general queries, listings, and two jobs that
             must produce typed errors from inside a batch *)
          let expect =
            List.init 20 (fun i ->
                let id = i + 1 in
                if i = 7 then
                  ( id,
                    P.Query { index = 0; pattern = "AC"; tau = tau_min /. 2.0 },
                    `Err P.Bad_request )
                else if i = 13 then
                  ( id,
                    P.Listing { index = 0; pattern = "AC"; tau = 0.5 },
                    `Err P.Bad_request )
                else if i mod 3 = 0 then begin
                  let pat = Sym.to_string (Q.pattern rng d0 ~m:3) in
                  let tau = tau_min +. Random.State.float rng 0.6 in
                  ( id,
                    P.Listing { index = 1; pattern = pat; tau },
                    `Hits (wire (L.query l ~pattern:(Sym.of_string pat) ~tau))
                  )
                end
                else begin
                  let pat = Sym.to_string (Q.pattern rng u ~m:3) in
                  let tau = tau_min +. Random.State.float rng 0.6 in
                  ( id,
                    P.Query { index = 0; pattern = pat; tau },
                    `Hits (wire (G.query g ~pattern:(Sym.of_string pat) ~tau))
                  )
                end)
          in
          List.iter
            (fun (id, op, _) ->
              P.write_all fd (P.encode_request { P.id = id; op }))
            expect;
          let got = Hashtbl.create 32 in
          for _ = 0 to List.length expect do
            match P.read_frame fd with
            | Some payload ->
                let id, reply = P.decode_reply payload in
                Hashtbl.replace got id reply
            | None -> Alcotest.fail "connection closed mid-burst"
          done;
          (match Hashtbl.find_opt got 0 with
          | Some P.Pong -> ()
          | _ -> Alcotest.fail "slow op did not complete");
          List.iter
            (fun (id, _, want) ->
              match (want, Hashtbl.find_opt got id) with
              | `Hits hs, Some reply ->
                  check_hits (Printf.sprintf "batched reply %d" id) hs reply
              | `Err e, Some (P.Error (e', _)) ->
                  Alcotest.(check string)
                    (Printf.sprintf "batched error %d" id)
                    (P.err_to_string e) (P.err_to_string e')
              | `Err _, Some _ ->
                  Alcotest.failf "batched job %d: expected a typed error" id
              | _, None -> Alcotest.failf "batched job %d got no reply" id)
            expect;
          let m = Server.metrics srv in
          Alcotest.(check bool) "a real batch formed" true
            (Pti_server.Metrics.max_batch_size m >= 2);
          Alcotest.(check bool) "batch rounds counted" true
            (Pti_server.Metrics.batches m >= 1);
          (* the stats payload exposes the new instrumentation *)
          match rpc fd { P.id = 99; op = P.Stats } with
          | _, P.Stats_reply s ->
              List.iter
                (fun needle ->
                  Alcotest.(check bool)
                    (Printf.sprintf "stats mentions %s" needle)
                    true (contains s needle))
                [ "\"batches\""; "\"connections_shed\""; "\"cache_shards\"" ]
          | _ -> Alcotest.fail "expected stats reply"))

(* A cold open maps each container once: the container kind is read
   from the reader the index is opened from. *)
let test_cache_cold_open_maps_once () =
  let module Ec = Pti_server.Engine_cache in
  let _, _, _, _, gpath, lpath = Lazy.force fixture in
  with_faults (fun () ->
      List.iter
        (fun (name, path, listing) ->
          F.arm "storage.open" F.Noop F.Always;
          let c = Ec.create ~capacity:4 () in
          (match Ec.get c path with
          | Ec.Listing _ -> Alcotest.(check bool) (name ^ " kind") true listing
          | Ec.General _ -> Alcotest.(check bool) (name ^ " kind") false listing);
          Alcotest.(check int) (name ^ ": one storage.open") 1
            (F.hit_count "storage.open"))
        [ ("general", gpath, false); ("listing", lpath, true) ])

let test_cache_shards () =
  (* the sharded engine cache: a global capacity bound distributed over
     per-worker shards, correct handles from every shard, revalidation
     spanning all shards, and per-shard stats that add up *)
  let module Ec = Pti_server.Engine_cache in
  let _, _, g, _, _, _ = Lazy.force fixture in
  let paths =
    List.init 6 (fun _ -> Filename.temp_file "pti_shard" ".idx")
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      List.iter (fun p -> G.save g p) paths;
      (* effective shards = min shards capacity: every shard keeps at
         least one slot *)
      let tiny = Ec.create ~capacity:2 ~shards:8 () in
      Alcotest.(check int) "shards capped by capacity" 2 (Ec.n_shards tiny);
      (* capacity 24 over 4 shards = 6 slots each: ample for 6 paths
         regardless of how they hash, so warm gets always hit *)
      let c = Ec.create ~capacity:24 ~shards:4 () in
      Alcotest.(check int) "requested shards" 4 (Ec.n_shards c);
      let query_via h =
        match h with
        | Ec.General g' -> G.query g' ~pattern:(Sym.of_string "A") ~tau:0.5
        | Ec.Listing _ -> Alcotest.fail "general container opened as listing"
      in
      let want = G.query g ~pattern:(Sym.of_string "A") ~tau:0.5 in
      List.iter
        (fun p ->
          Alcotest.(check bool) "handle answers identically" true
            (query_via (Ec.get c p) = want))
        paths;
      Alcotest.(check int) "all cold loads missed" (List.length paths)
        (Ec.misses c);
      List.iter (fun p -> ignore (Ec.get c p)) paths;
      Alcotest.(check int) "all warm loads hit" (List.length paths) (Ec.hits c);
      (* per-shard stats add up to the global counters *)
      let sh, sm, sf, entries =
        Array.fold_left
          (fun (h, m, f, e) (h', m', f', e') -> (h + h', m + m', f + f', e + e'))
          (0, 0, 0, 0) (Ec.shard_stats c)
      in
      Alcotest.(check int) "shard hits sum" (Ec.hits c) sh;
      Alcotest.(check int) "shard misses sum" (Ec.misses c) sm;
      Alcotest.(check int) "shard failures sum" (Ec.open_failures c) sf;
      Alcotest.(check int) "every path cached" (List.length paths) entries;
      (* corrupt one file: revalidate must find it in whatever shard it
         lives in, evict it, and leave the others served *)
      let victim = List.nth paths 3 in
      let oc = open_out_bin victim in
      output_string oc "not a container";
      close_out oc;
      let evicted = Ec.revalidate c () in
      Alcotest.(check (list string)) "corrupt path evicted" [ victim ]
        (List.map fst evicted);
      List.iteri
        (fun i p ->
          if i <> 3 then
            Alcotest.(check bool)
              (Printf.sprintf "path %d survives revalidate" i)
              true
              (query_via (Ec.get c p) = want))
        paths;
      (match Ec.get c victim with
      | _ -> Alcotest.fail "corrupt container should not open"
      | exception _ -> ());
      Alcotest.(check bool) "open failure counted" true
        (Ec.open_failures c >= 1);
      (* heal the file: served again on the next get *)
      G.save g victim;
      Alcotest.(check bool) "healed path served" true
        (query_via (Ec.get c victim) = want))

let test_hot_reload () =
  (* SIGHUP semantics: request_reload revalidates cached containers; a
     corrupt one is evicted (typed Bad_index, no stale pin), and once
     the file is healthy again it is served afresh *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let path = Filename.temp_file "pti_reload" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save g path;
      let want = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5) in
      let query fd i =
        snd (rpc fd { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } })
      in
      with_server [ Server.Source_file path ] (fun srv port ->
          with_conn port (fun fd ->
              check_hits "served before corruption" want (query fd 1);
              (* corrupt the file via rename, as a torn external rewrite
                 would: the old inode stays mapped, so the server keeps
                 serving stale-but-consistent answers until told *)
              let garbage = path ^ ".garbage" in
              let oc = open_out_bin garbage in
              output_string oc "this is not a PTI container";
              close_out oc;
              Sys.rename garbage path;
              check_hits "stale mapping still serves" want (query fd 2);
              Server.request_reload srv;
              Unix.sleepf 0.3;
              (match query fd 3 with
              | P.Error (P.Bad_index, _) -> ()
              | P.Error (e, m) ->
                  Alcotest.failf "expected bad_index, got %s (%s)"
                    (P.err_to_string e) m
              | _ -> Alcotest.fail "corrupt container still served after reload");
              let m = Server.metrics srv in
              Alcotest.(check bool) "reload counted" true
                (Pti_server.Metrics.reloads m >= 1);
              Alcotest.(check bool) "open failure counted" true
                (Pti_server.Metrics.cache_open_failures m >= 1);
              (* heal the file; the next request re-opens it on demand *)
              G.save g path;
              check_hits "healed container served again" want (query fd 4))))

let test_loadgen_retry () =
  (* a dropped reply mid-run: the client sees the torn connection,
     backs off, reconnects and replays — the run still verifies every
     answer and reports the retry *)
  let u, _, g, _, _, _ = Lazy.force fixture in
  with_faults (fun () ->
      (* the 3rd reply the server writes is cut short, then the
         connection breaks *)
      F.arm "server.reply" (F.Short_write 2) (F.Nth 3);
      with_server [ Server.Source_general g ] (fun _srv port ->
          let verify op reply =
            match (op, reply) with
            | P.Query { index = 0; pattern; tau }, P.Hits hs ->
                hs = wire (G.query g ~pattern:(Sym.of_string pattern) ~tau)
            | P.Top_k { index = 0; pattern; tau; k }, P.Hits hs ->
                hs = wire (G.query_top_k g ~pattern:(Sym.of_string pattern) ~tau ~k)
            | _ -> false
          in
          let r =
            Loadgen.run ~port ~concurrency:1 ~duration_s:infinity
              ~requests_per_client:10 ~verify ~index:0 ~k:4 ~lengths:[ 3 ]
              ~tau:0.2 ~seed:11 ~retries:3 ~backoff_ms:5.0
              ~mix:{ Loadgen.query = 3; top_k = 1; listing = 0 }
              ~source:u ()
          in
          Alcotest.(check int) "every request eventually ok" 10 r.Loadgen.ok;
          Alcotest.(check int) "exactly one retry" 1 r.Loadgen.retries;
          Alcotest.(check int) "the retry is an extra wire attempt" 11
            r.Loadgen.sent;
          Alcotest.(check (list (pair string int))) "no error replies" []
            r.Loadgen.errors;
          Alcotest.(check int) "no protocol failures" 0
            r.Loadgen.protocol_failures;
          Alcotest.(check int) "all replies verified" 0
            r.Loadgen.verify_failures))

(* ------------------------------------------------------------------ *)
(* Pooled buffers and the server-side result cache (DESIGN.md §14) *)

let test_pooled_encoding_identity () =
  (* one Wbuf reused across hundreds of randomized messages must
     produce, frame by frame, exactly the bytes of the fresh-buffer
     encoders — the invariant that lets the server pool its write
     buffers (and splice cached reply bodies) with zero risk to the
     wire format *)
  let rng = Random.State.make [| 0x9e37 |] in
  let b = P.Wbuf.create 16 in
  let rand_string n =
    String.init n (fun _ -> Char.chr (32 + Random.State.int rng 95))
  in
  let rand_op () =
    let pattern () = rand_string (1 + Random.State.int rng 12) in
    match Random.State.int rng 6 with
    | 0 ->
        P.Query
          {
            index = Random.State.int rng 5;
            pattern = pattern ();
            tau = Random.State.float rng 1.0;
          }
    | 1 ->
        P.Top_k
          {
            index = Random.State.int rng 5;
            pattern = pattern ();
            tau = Random.State.float rng 1.0;
            k = 1 + Random.State.int rng 50;
          }
    | 2 ->
        P.Listing
          {
            index = Random.State.int rng 5;
            pattern = pattern ();
            tau = Random.State.float rng 1.0;
          }
    | 3 -> P.Stats
    | 4 -> P.Ping
    | _ -> P.Slow (Random.State.int rng 100)
  in
  let errs =
    [|
      P.Bad_request; P.Bad_index; P.Overloaded; P.Timeout; P.Server_error;
      P.Shutting_down;
    |]
  in
  let rand_reply () =
    match Random.State.int rng 4 with
    | 0 ->
        P.Hits
          (List.init (Random.State.int rng 40) (fun _ ->
               ( Random.State.int rng 1_000_000,
                 -.Random.State.float rng 30.0 )))
    | 1 ->
        P.Error
          ( errs.(Random.State.int rng (Array.length errs)),
            rand_string (Random.State.int rng 40) )
    | 2 -> P.Stats_reply (rand_string (Random.State.int rng 200))
    | _ -> P.Pong
  in
  for _ = 1 to 300 do
    let req = { P.id = Random.State.int rng 1_000_000; op = rand_op () } in
    P.Wbuf.reset b;
    P.encode_request_into b req;
    let fresh = P.encode_request req in
    Alcotest.(check bool) "request frame identical" true
      (P.Wbuf.contents b = fresh);
    (* zero-copy decode out of a larger buffer at a random offset, as
       the server parses frames in place out of its read window *)
    let payload = String.sub fresh 4 (String.length fresh - 4) in
    let pad = rand_string (Random.State.int rng 7) in
    let embedded = pad ^ payload ^ pad in
    Alcotest.(check bool) "in-place decode roundtrips" true
      (P.decode_request_sub embedded ~pos:(String.length pad)
         ~len:(String.length payload)
      = req);
    let id = Random.State.int rng 1_000_000 in
    let reply = rand_reply () in
    P.Wbuf.reset b;
    P.encode_reply_into b ~id reply;
    let freshr = P.encode_reply ~id reply in
    Alcotest.(check bool) "reply frame identical" true
      (P.Wbuf.contents b = freshr);
    (* the identity the result cache rests on: a cached body spliced
       after a fresh (tag, id) prefix is exactly the direct encoding *)
    P.Wbuf.reset b;
    P.encode_cached_reply_into b ~id ~tag:(P.reply_tag reply)
      ~body:(P.encode_reply_body reply);
    Alcotest.(check bool) "cached splice identical" true
      (P.Wbuf.contents b = freshr);
    (* JSON connections decode a cached body back into the reply *)
    let body = P.encode_reply_body reply in
    Alcotest.(check bool) "cached body decodes" true
      (P.encode_reply_body
         (P.decode_reply_body ~tag:(P.reply_tag reply) body)
      = body)
  done;
  (* frames coalesced between resets (a worker writing one batch) are
     the exact concatenation of the individual fresh frames *)
  P.Wbuf.reset b;
  let batch = List.init 7 (fun i -> (i, rand_reply ())) in
  List.iter (fun (id, r) -> P.encode_reply_into b ~id r) batch;
  Alcotest.(check bool) "coalesced batch identical" true
    (P.Wbuf.contents b
    = String.concat "" (List.map (fun (id, r) -> P.encode_reply ~id r) batch));
  (* the JSON fallback writes its lines through the same pooled buffer *)
  P.Wbuf.reset b;
  let jreply = P.Hits [ (3, -0.25); (9, -1.5) ] in
  let line = P.reply_to_json ~id:42 jreply ^ "\n" in
  P.Wbuf.add_string b line;
  Alcotest.(check string) "json line through wbuf" line (P.Wbuf.contents b)

let test_pooled_large_frames () =
  (* frames at and over the size limits, through a reused buffer *)
  let b = P.Wbuf.create 16 in
  (* a fat hit list, then a near-max u16 pattern *)
  let big = P.Hits (List.init 50_000 (fun i -> (i, -.float_of_int i /. 7.0))) in
  P.encode_reply_into b ~id:7 big;
  let fresh = P.encode_reply ~id:7 big in
  Alcotest.(check bool) "large reply identical" true
    (P.Wbuf.contents b = fresh);
  Alcotest.(check bool) "large reply roundtrips" true
    (P.decode_reply (String.sub fresh 4 (String.length fresh - 4)) = (7, big));
  let req =
    { P.id = 1; op = P.Query { index = 0; pattern = String.make 60_000 'x'; tau = 0.5 } }
  in
  P.Wbuf.reset b;
  P.encode_request_into b req;
  let freshq = P.encode_request req in
  Alcotest.(check bool) "long pattern identical" true
    (P.Wbuf.contents b = freshq);
  Alcotest.(check bool) "long pattern roundtrips" true
    (P.decode_request (String.sub freshq 4 (String.length freshq - 4)) = req);
  (* a payload of exactly max_frame encodes; one byte more is refused
     and rolled back, leaving the pooled buffer clean for reuse *)
  P.Wbuf.reset b;
  let exact = P.Stats_reply (String.make (P.max_frame - 9) 'j') in
  P.encode_reply_into b ~id:2 exact;
  Alcotest.(check int) "max-size frame encodes" (4 + P.max_frame)
    (P.Wbuf.length b);
  Alcotest.(check bool) "max-size frame identical" true
    (P.Wbuf.contents b = P.encode_reply ~id:2 exact);
  P.Wbuf.reset b;
  P.encode_reply_into b ~id:3 P.Pong;
  let keep = P.Wbuf.contents b in
  (match
     P.encode_reply_into b ~id:4 (P.Stats_reply (String.make (P.max_frame - 8) 'j'))
   with
  | () -> Alcotest.fail "oversized frame must be refused"
  | exception P.Protocol_error _ -> ());
  Alcotest.(check bool) "oversized frame rolled back" true
    (P.Wbuf.contents b = keep);
  P.encode_reply_into b ~id:5 P.Pong;
  Alcotest.(check bool) "buffer still usable after rollback" true
    (P.Wbuf.contents b = keep ^ P.encode_reply ~id:5 P.Pong)

let test_result_cache_reload_invalidation () =
  (* the staleness proof: prime the result cache, atomically replace
     the container with a byte-different one, SIGHUP-reload — the next
     query must return the new container's bytes, never the cached old
     ones *)
  let u1 = D.single (D.default ~total:800 ~theta:0.3) in
  let u2 = D.single (D.default ~total:500 ~theta:0.2) in
  let g1 = G.build ~tau_min u1 in
  let g2 = G.build ~tau_min u2 in
  let want1 = wire (G.query g1 ~pattern:(Sym.of_string "A") ~tau:0.5) in
  let want2 = wire (G.query g2 ~pattern:(Sym.of_string "A") ~tau:0.5) in
  Alcotest.(check bool) "fixture: answers differ" true (want1 <> want2);
  let path = Filename.temp_file "pti_rcache" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save g1 path;
      with_server [ Server.Source_file path ] (fun srv port ->
          with_conn port (fun fd ->
              let query i =
                snd
                  (rpc fd
                     { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } })
              in
              (* a key is admitted on its second sighting *)
              check_hits "first answer (not admitted)" want1 (query 1);
              check_hits "second answer (fills cache)" want1 (query 2);
              check_hits "third answer (cache hit)" want1 (query 3);
              let m = Server.metrics srv in
              Alcotest.(check bool) "the cache was actually serving" true
                (Pti_server.Metrics.result_cache_hits m >= 1);
              (* atomic rewrite, as a deployment would do it *)
              let tmp = path ^ ".new" in
              G.save g2 tmp;
              Sys.rename tmp path;
              Server.request_reload srv;
              Unix.sleepf 0.3;
              check_hits "post-reload answer is the new container's"
                want2 (query 4);
              Alcotest.(check bool) "invalidation counted" true
                (Pti_server.Metrics.result_cache_invalidations m >= 1))))

let test_result_cache_open_failure () =
  (* a fault-injected container-open failure must not poison the
     result cache: the typed error is never cached, the failure
     flushes any bytes from the dead handle, and once the failpoint
     clears the same query serves correct fresh bytes again *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let want = wire (G.query g ~pattern:(Sym.of_string "A") ~tau:0.5) in
  let path = Filename.temp_file "pti_rcache_fault" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save g path;
      with_faults (fun () ->
          with_server [ Server.Source_file path ] (fun srv port ->
              with_conn port (fun fd ->
                  let query i =
                    snd
                      (rpc fd
                         {
                           P.id = i;
                           op = P.Query { index = 0; pattern = "A"; tau = 0.5 };
                         })
                  in
                  let m = Server.metrics srv in
                  (* a key is admitted on its second sighting *)
                  check_hits "served, not admitted" want (query 1);
                  check_hits "served and cached" want (query 2);
                  check_hits "served from the cache" want (query 3);
                  Alcotest.(check bool) "cache primed" true
                    (Pti_server.Metrics.result_cache_hits m >= 1);
                  (* every open now fails; the reload evicts the handle
                     and must flush the result cache with it *)
                  F.arm "cache.open" (F.Raise Unix.EIO) F.Always;
                  Server.request_reload srv;
                  Unix.sleepf 0.3;
                  (match query 4 with
                  | P.Error (P.Bad_index, _) -> ()
                  | P.Error (e, msg) ->
                      Alcotest.failf "expected bad_index, got %s (%s)"
                        (P.err_to_string e) msg
                  | _ ->
                      Alcotest.fail
                        "stale cached bytes served after open failure");
                  Alcotest.(check bool) "result cache flushed" true
                    (Pti_server.Metrics.result_cache_invalidations m >= 1);
                  (* errors are never cached: with the failpoint gone
                     the same key serves correct fresh bytes, then hits *)
                  F.disarm "cache.open";
                  let hits0 = Pti_server.Metrics.result_cache_hits m in
                  check_hits "fresh bytes after heal" want (query 5);
                  check_hits "and cached again" want (query 6);
                  Alcotest.(check bool) "served from the cache again" true
                    (Pti_server.Metrics.result_cache_hits m > hits0)))))

(* ------------------------------------------------------------------ *)
(* Dynamic corpus serving (DESIGN.md §15) *)

let with_tmpdir f =
  let dir = Filename.temp_file "pti_srv_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) : int))
    (fun () -> f dir)

let test_corpus_over_wire () =
  (* the full mutation lifecycle over one binary connection: inserts
     ack sequential ids, queries scatter-gather the memtable, flush
     seals it (acking the new manifest generation) without changing
     answers, deletes tombstone, and the stats JSON gains the
     per-corpus gauges *)
  let docs = D.collection (D.default ~total:400 ~theta:0.3) in
  with_tmpdir (fun dir ->
      let config =
        { (Store.default_config ~tau_min) with memtable_max_docs = 0 }
      in
      let store = Store.create ~config dir in
      with_server [ Server.Source_corpus store ] (fun _srv port ->
          with_conn port (fun fd ->
              List.iteri
                (fun i u ->
                  match
                    rpc fd
                      { P.id = i; op = P.Insert { index = 0; doc = U.to_text u } }
                  with
                  | _, P.Ack id -> Alcotest.(check int) "sequential id" i id
                  | _ -> Alcotest.fail "insert not acked")
                docs;
              (* reference: a monolithic listing index over the same
                 documents, in the corpus's canonical merge order. The
                 wire carries [U.to_text] (12 significant digits), so
                 the reference must be built over the round-tripped
                 docs — what the server actually indexed *)
              let l =
                L.build ~relevance:L.Rel_max ~tau_min
                  (List.map (fun u -> U.parse (U.to_text u)) docs)
              in
              let canon hits =
                List.sort
                  (fun (i1, p1) (i2, p2) ->
                    match Logp.compare p2 p1 with
                    | 0 -> compare i1 i2
                    | c -> c)
                  hits
              in
              let expect pat tau =
                wire (canon (L.query l ~pattern:(Sym.of_string pat) ~tau))
              in
              let q i pat tau =
                snd
                  (rpc fd
                     { P.id = i; op = P.Query { index = 0; pattern = pat; tau } })
              in
              Alcotest.(check bool)
                "fixture produces hits" true
                (expect "A" 0.3 <> []);
              check_hits "memtable-served query" (expect "A" 0.3)
                (q 1000 "A" 0.3);
              (match rpc fd { P.id = 2000; op = P.Flush { index = 0 } } with
              | _, P.Ack gen ->
                  Alcotest.(check bool) "generation advanced" true (gen >= 1)
              | _ -> Alcotest.fail "flush not acked");
              check_hits "segment-served query identical" (expect "A" 0.3)
                (q 2001 "A" 0.3);
              (match expect "A" 0.3 with
              | [] -> ()
              | (victim, _) :: _ ->
                  (match
                     rpc fd
                       { P.id = 3000; op = P.Delete { index = 0; doc_id = victim } }
                   with
                  | _, P.Ack r -> Alcotest.(check int) "delete acked live" 1 r
                  | _ -> Alcotest.fail "delete not acked");
                  (match
                     rpc fd
                       { P.id = 3001; op = P.Delete { index = 0; doc_id = victim } }
                   with
                  | _, P.Ack r -> Alcotest.(check int) "double delete is 0" 0 r
                  | _ -> Alcotest.fail "delete not acked");
                  let want =
                    List.filter (fun (i, _) -> i <> victim) (expect "A" 0.3)
                  in
                  check_hits "tombstone filtered" want (q 3002 "A" 0.3));
              (* a flush of an empty memtable still acks the generation *)
              (match rpc fd { P.id = 4000; op = P.Flush { index = 0 } } with
              | _, P.Ack _ -> ()
              | _ -> Alcotest.fail "empty flush not acked");
              (* typed errors: out-of-range index, malformed document *)
              (match
                 rpc fd { P.id = 5000; op = P.Insert { index = 9; doc = "A" } }
               with
              | _, P.Error (P.Bad_index, _) -> ()
              | _ -> Alcotest.fail "out-of-range insert not bad_index");
              (match
                 rpc fd { P.id = 5001; op = P.Insert { index = 0; doc = "" } }
               with
              | _, P.Error (P.Bad_request, _) -> ()
              | _ -> Alcotest.fail "malformed insert not bad_request");
              match rpc fd { P.id = 6000; op = P.Stats } with
              | _, P.Stats_reply js ->
                  Alcotest.(check bool) "corpora gauges present" true
                    (contains js "\"corpora\"");
                  Alcotest.(check bool) "segment gauge present" true
                    (contains js "\"segments\"")
              | _ -> Alcotest.fail "no stats reply")))

let test_corpus_mutation_invalidates_cache () =
  (* result-cache coherence without any flush: corpus cache keys carry
     the store's volatile version, so an insert makes the cached reply
     unreachable and the next identical query reflects the new
     document *)
  let docs = D.collection (D.default ~total:300 ~theta:0.3) in
  with_tmpdir (fun dir ->
      let config =
        { (Store.default_config ~tau_min) with memtable_max_docs = 0 }
      in
      let store = Store.create ~config dir in
      List.iter (fun u -> ignore (Store.insert store u : int)) docs;
      with_server [ Server.Source_corpus store ] (fun srv port ->
          with_conn port (fun fd ->
              let q i = snd
                  (rpc fd
                     { P.id = i; op = P.Query { index = 0; pattern = "A"; tau = 0.3 } })
              in
              let hits_of_reply = function
                | P.Hits hs -> hs
                | _ -> Alcotest.fail "expected hits"
              in
              (* a key is admitted on its second sighting *)
              let before = hits_of_reply (q 1) in
              let admitted = hits_of_reply (q 2) in
              let cached = hits_of_reply (q 5) in
              Alcotest.(check bool) "repeats identical" true
                (before = admitted && before = cached);
              let m = Server.metrics srv in
              Alcotest.(check bool) "cache served the repeat" true
                (Pti_server.Metrics.result_cache_hits m >= 1);
              (* insert a certain single-symbol document: it must appear
                 in the next answer with probability 1 *)
              (match
                 rpc fd { P.id = 3; op = P.Insert { index = 0; doc = "A" } }
               with
              | _, P.Ack _ -> ()
              | _ -> Alcotest.fail "insert not acked");
              let after = hits_of_reply (q 4) in
              Alcotest.(check bool) "mutation visible despite cache" true
                (List.length after = List.length before + 1);
              Alcotest.(check bool) "new doc has probability 1" true
                (List.exists (fun (_, p) -> p = 0.0) after))))

let test_compactor_conflict_retry () =
  (* the daemon compactor's cross-process Conflict path, driven by an
     ACTUAL concurrent external commit: a delay failpoint holds the
     daemon's first compaction between its start and its manifest
     commit; a second writable handle on the same directory (the moral
     equivalent of [pti corpus delete] in another process) commits a
     tombstone during the window. The daemon's commit must raise
     Conflict, the compactor must reload the external generation and
     retry — converging on a compacted corpus that still honours the
     external delete, never clobbering it *)
  let docs =
    List.init 40 (fun i -> H.random_ustring (H.rng_of_seed (500 + i)) 12 4 3)
  in
  with_tmpdir (fun dir ->
      let config =
        {
          (Store.default_config ~tau_min) with
          memtable_max_docs = 0;
          compact_min_segments = 2;
        }
      in
      let store = Store.create ~config dir in
      (* four sealed, equal-sized segments (10 identical-shape docs
         each): all land in one size tier, so needs_compaction holds *)
      List.iteri
        (fun i u ->
          ignore (Store.insert store u : int);
          if (i + 1) mod 10 = 0 then ignore (Store.seal store : bool))
        docs;
      Alcotest.(check bool) "fixture needs compaction" true
        (Store.needs_compaction store);
      let gen0 = Store.generation store in
      let n_docs = (Store.stats store).Store.st_live_docs in
      with_faults (fun () ->
          (* hold only the FIRST compaction open; the retry runs free *)
          F.arm "segment.compact" (F.Delay 400) (F.Nth 1);
          let server_config =
            { (base_config 1) with Server.compact_interval_ms = 20.0 }
          in
          with_server ~config:server_config [ Server.Source_corpus store ]
            (fun _srv port ->
              (* wait for the compactor to enter the delayed merge *)
              let deadline = Unix.gettimeofday () +. 5.0 in
              while
                F.hit_count "segment.compact" < 1
                && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.005
              done;
              Alcotest.(check bool) "compaction entered" true
                (F.hit_count "segment.compact" >= 1);
              (* external writer commits mid-merge: a second handle on
                 the same directory tombstones doc 0 *)
              let ext = Store.open_dir dir in
              Alcotest.(check bool) "external delete committed" true
                (Store.delete ext 0);
              let ext_gen = Store.generation ext in
              Alcotest.(check bool) "external commit advanced the disk" true
                (ext_gen > gen0);
              (* the daemon's first commit now conflicts; the compactor
                 must reload and retry until the merge lands ON TOP of
                 the external generation *)
              let deadline = Unix.gettimeofday () +. 10.0 in
              while
                Store.generation store <= ext_gen
                && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.01
              done;
              let st = Store.stats store in
              Alcotest.(check bool) "compaction retried after Conflict" true
                (F.hit_count "segment.compact" >= 2);
              Alcotest.(check bool) "merge committed past external gen" true
                (Store.generation store > ext_gen);
              Alcotest.(check int) "segments merged" 1 st.Store.st_segments;
              (* the external tombstone was retired, not resurrected *)
              Alcotest.(check int) "external delete honoured" (n_docs - 1)
                st.Store.st_live_docs;
              Alcotest.(check int) "tombstones retired" 0 st.Store.st_tombstones;
              (* and the daemon is still serving *)
              with_conn port (fun fd ->
                  match rpc fd { P.id = 1; op = P.Ping } with
                  | _, P.Pong -> ()
                  | _ -> Alcotest.fail "daemon not serving after retry"))))

let test_scrubber_quarantine () =
  (* the background scrubber domain end-to-end: a bit-flip injected
     into a live segment is detected by a scrub pass, the segment is
     quarantined through a manifest commit while the daemon keeps
     answering, the degradation is visible in the stats JSON and the
     scrub metrics, and the follow-up repair compaction leaves a corpus
     that opens clean under full verification *)
  let docs =
    List.init 20 (fun i -> H.random_ustring (H.rng_of_seed (700 + i)) 10 4 3)
  in
  with_tmpdir (fun dir ->
      let config =
        { (Store.default_config ~tau_min) with memtable_max_docs = 0 }
      in
      let store = Store.create ~config dir in
      List.iteri
        (fun i u ->
          ignore (Store.insert store u : int);
          if (i + 1) mod 5 = 0 then ignore (Store.seal store : bool))
        docs;
      (* flip 16 bytes mid-file in the first segment *)
      let seg =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".pti")
        |> List.sort compare |> List.hd
      in
      let path = Filename.concat dir seg in
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = Bytes.create 16 in
          ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET : int);
          let got = Unix.read fd b 0 16 in
          for i = 0 to got - 1 do
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10))
          done;
          ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET : int);
          ignore (Unix.write fd b 0 got : int));
      let server_config =
        {
          (base_config 1) with
          (* periodic compactor OFF: it would merge the four segments —
             damaged one included — before the scrubber's first pass,
             erasing the corruption instead of detecting it; the repair
             compaction is the scrubber's own *)
          Server.compact_interval_ms = 0.0;
          scrub_interval_ms = 30.0;
          scrub_mb_s = 0.0;
        }
      in
      with_server ~config:server_config [ Server.Source_corpus store ]
        (fun srv port ->
          let m = Server.metrics srv in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            Pti_server.Metrics.scrub_quarantined m < 1
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          Alcotest.(check bool) "scrubber quarantined the damage" true
            (Pti_server.Metrics.scrub_quarantined m >= 1);
          Alcotest.(check bool) "corruption counted" true
            (Pti_server.Metrics.scrub_corrupt m >= 1);
          (* the daemon keeps serving and reports the degradation *)
          with_conn port (fun fd ->
              (match rpc fd { P.id = 1; op = P.Stats } with
              | _, P.Stats_reply js ->
                  Alcotest.(check bool) "scrub metrics in stats" true
                    (contains js "\"scrub\"")
              | _ -> Alcotest.fail "no stats reply");
              match
                rpc fd
                  { P.id = 2; op = P.Query { index = 0; pattern = "A"; tau = 0.3 } }
              with
              | _, P.Hits _ -> ()
              | _ -> Alcotest.fail "query failed during degradation");
          (* the scrubber's repair compaction clears the degradation *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (Store.stats store).Store.st_degraded_segments > 0
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          Alcotest.(check int) "repair compaction cleared degradation" 0
            (Store.stats store).Store.st_degraded_segments);
      (* after shutdown the corpus verifies clean end to end *)
      let clean = Store.open_dir ~verify:true dir in
      Alcotest.(check int) "clean corpus after repair" 0
        (Store.stats clean).Store.st_degraded_segments)

let test_reload_invalidation_ordering () =
  (* SIGHUP ordering (DESIGN.md §15): the result-cache generation bump
     must land BEFORE the engine cache revalidates. A delay failpoint
     inside the engine reopen holds the revalidate mid-flight; at the
     moment the reopen is first observed, the invalidation counter must
     already have moved — were the order reversed, a request hitting
     the reopened engine could still be answered from pre-reload cached
     bytes *)
  let _, _, g, _, _, _ = Lazy.force fixture in
  let path = Filename.temp_file "pti_reload_order" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save g path;
      with_faults (fun () ->
          with_server [ Server.Source_file path ] (fun srv port ->
              with_conn port (fun fd ->
                  let _ =
                    rpc fd
                      { P.id = 1; op = P.Query { index = 0; pattern = "A"; tau = 0.5 } }
                  in
                  let m = Server.metrics srv in
                  let inv0 = Pti_server.Metrics.result_cache_invalidations m in
                  let reloads0 = Pti_server.Metrics.reloads m in
                  F.arm "cache.open" (F.Delay 400) F.Always;
                  let c0 = F.hit_count "cache.open" in
                  Server.request_reload srv;
                  let deadline = Unix.gettimeofday () +. 5.0 in
                  while
                    F.hit_count "cache.open" = c0
                    && Unix.gettimeofday () < deadline
                  do
                    Unix.sleepf 0.005
                  done;
                  Alcotest.(check bool) "revalidate reached the reopen" true
                    (F.hit_count "cache.open" > c0);
                  (* the reopen is mid-delay: reload not yet counted,
                     but the result cache is already invalidated *)
                  Alcotest.(check bool)
                    "result cache invalidated before engine revalidate" true
                    (Pti_server.Metrics.result_cache_invalidations m > inv0);
                  Alcotest.(check bool) "observed mid-reload" true
                    (Pti_server.Metrics.reloads m = reloads0);
                  F.disarm "cache.open"))))

let test_reload_races_batched_group () =
  (* a SIGHUP reload racing an in-flight batched query group: with the
     single worker stalled at its batch-pop failpoint, a pipelined
     burst of identical queries queues up as one batch, the container
     is atomically replaced and reloaded mid-stall, and then every
     reply must decode and be byte-identical to the old engine's
     answer, the new engine's answer, or a typed bad_index — never a
     torn frame or a mix of generations within one reply *)
  let u1 = D.single (D.default ~total:700 ~theta:0.3) in
  let u2 = D.single (D.default ~total:450 ~theta:0.2) in
  let g1 = G.build ~tau_min u1 in
  let g2 = G.build ~tau_min u2 in
  let want_old = wire (G.query g1 ~pattern:(Sym.of_string "A") ~tau:0.4) in
  let want_new = wire (G.query g2 ~pattern:(Sym.of_string "A") ~tau:0.4) in
  Alcotest.(check bool) "fixture: answers differ" true (want_old <> want_new);
  Alcotest.(check bool) "\"A\" is over the loop's budget" true
    (range_size (G.engine g1) "A" > Server.loop_range_budget);
  let path = Filename.temp_file "pti_reload_race" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      G.save g1 path;
      let config = { (base_config 1) with deadline_ms = 30_000.0 } in
      with_faults (fun () ->
          with_server ~config [ Server.Source_file path ] (fun srv port ->
              with_conn port (fun fd ->
                  let query_op = P.Query { index = 0; pattern = "A"; tau = 0.4 } in
                  (match rpc fd { P.id = 1; op = query_op } with
                  | _, P.Hits hs ->
                      Alcotest.(check bool) "pre-race answer" true
                        (hs = want_old)
                  | _ -> Alcotest.fail "pre-race query failed");
                  (* stall the only worker before each batch pop *)
                  F.arm "server.worker" (F.Delay 300) F.Always;
                  let n = 20 in
                  let buf = Buffer.create 1024 in
                  for i = 100 to 100 + n - 1 do
                    Buffer.add_string buf
                      (P.encode_request { P.id = i; op = query_op })
                  done;
                  P.write_all fd (Buffer.contents buf);
                  (* mid-stall: atomically swap the container and reload *)
                  Unix.sleepf 0.05;
                  let tmp = path ^ ".new" in
                  G.save g2 tmp;
                  Sys.rename tmp path;
                  Server.request_reload srv;
                  let got = Hashtbl.create n in
                  for _ = 1 to n do
                    match P.read_frame fd with
                    | Some payload ->
                        let id, reply = P.decode_reply payload in
                        Hashtbl.replace got id reply
                    | None -> Alcotest.fail "connection torn mid-race"
                  done;
                  F.disarm "server.worker";
                  for i = 100 to 100 + n - 1 do
                    match Hashtbl.find_opt got i with
                    | Some (P.Hits hs) ->
                        Alcotest.(check bool)
                          (Printf.sprintf "reply %d is one generation" i)
                          true
                          (hs = want_old || hs = want_new)
                    | Some (P.Error (P.Bad_index, _)) -> ()
                    | Some _ ->
                        Alcotest.failf "reply %d: unexpected reply kind" i
                    | None -> Alcotest.failf "reply %d missing" i
                  done;
                  (* convergence: once the race settles, the new
                     container's bytes are served *)
                  match rpc fd { P.id = 9999; op = query_op } with
                  | _, P.Hits hs ->
                      Alcotest.(check bool) "settled on the new container"
                        true (hs = want_new)
                  | _ -> Alcotest.fail "post-race query failed"))))

let test_backoff_determinism () =
  let a = Loadgen.backoff_delays ~seed:9 ~stream:0 ~backoff_ms:50.0 6 in
  let b = Loadgen.backoff_delays ~seed:9 ~stream:0 ~backoff_ms:50.0 6 in
  Alcotest.(check (list (float 0.0))) "same seed+stream, same delays" a b;
  Alcotest.(check bool) "different stream, different jitter" true
    (Loadgen.backoff_delays ~seed:9 ~stream:1 ~backoff_ms:50.0 6 <> a);
  List.iteri
    (fun attempt d ->
      let base = 50.0 *. (2.0 ** float_of_int attempt) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within [0.5b, 1.5b)" attempt)
        true
        (d >= 0.5 *. base && d < 1.5 *. base))
    a

let () =
  Alcotest.run "pti_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "pooled buffers byte-identical" `Quick
            test_pooled_encoding_identity;
          Alcotest.test_case "pooled large and max-size frames" `Quick
            test_pooled_large_frames;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "binary queries byte-for-byte" `Quick
            test_e2e_binary;
          Alcotest.test_case "pipelining" `Quick test_e2e_pipelining;
          Alcotest.test_case "json fallback" `Quick test_e2e_json;
          Alcotest.test_case "json cached hit equals fresh reply" `Quick
            test_json_cached_hit;
          Alcotest.test_case "json line cap" `Quick test_json_line_cap;
          Alcotest.test_case "loadgen verified at concurrency 8" `Quick
            test_loadgen_verified;
          Alcotest.test_case "loadgen default mix" `Quick
            test_loadgen_default_mix;
          Alcotest.test_case "corpus mutations over the wire" `Quick
            test_corpus_over_wire;
          Alcotest.test_case "corpus mutation invalidates cached replies"
            `Quick test_corpus_mutation_invalidates_cache;
          Alcotest.test_case "compactor conflict reload-and-retry" `Quick
            test_compactor_conflict_retry;
          Alcotest.test_case "scrubber quarantines a bit-flip" `Quick
            test_scrubber_quarantine;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "overload backpressure" `Quick test_overload;
          Alcotest.test_case "deadline timeout" `Quick test_timeout;
          Alcotest.test_case "accept survives EMFILE" `Quick test_accept_emfile;
          Alcotest.test_case "half-close mid-frame" `Quick
            test_half_close_midframe;
          Alcotest.test_case "partial length prefix" `Quick
            test_partial_length_prefix;
          Alcotest.test_case "max-conns shed and reuse" `Quick
            test_max_conns_shed;
          Alcotest.test_case "beyond FD_SETSIZE connections" `Slow
            test_many_connections;
          Alcotest.test_case "batched replies byte-identical" `Quick
            test_batched_identity;
          Alcotest.test_case "sharded engine cache" `Quick test_cache_shards;
          Alcotest.test_case "cold open maps a container once" `Quick
            test_cache_cold_open_maps_once;
          Alcotest.test_case "hit answered while the worker is busy" `Quick
            test_hit_while_worker_busy;
          Alcotest.test_case "slow reader does not stall the loop" `Quick
            test_slow_reader_isolated;
          Alcotest.test_case "refused flight owner answers its waiters" `Quick
            test_flight_owner_refused;
          Alcotest.test_case "loop replies handed to a busy writer" `Quick
            test_reply_handed_to_writer;
          Alcotest.test_case "over-budget query waits for the worker" `Quick
            test_over_budget_queued;
          Alcotest.test_case "long pattern waits for the worker" `Quick
            test_long_pattern_queued;
          Alcotest.test_case "cold container opened by a worker" `Quick
            test_cold_file_on_worker;
          Alcotest.test_case "loop-run misses byte-identical" `Quick
            test_loop_miss_identity;
          Alcotest.test_case "syscalls counted by the daemon" `Quick
            test_syscall_counts;
        ] );
      ( "fault",
        [
          Alcotest.test_case "graceful drain" `Quick test_drain;
          Alcotest.test_case "drain window expires" `Quick test_drain_timeout;
          Alcotest.test_case "worker domain respawn" `Quick
            test_worker_respawn;
          Alcotest.test_case "hot reload evicts corrupt container" `Quick
            test_hot_reload;
          Alcotest.test_case "reload evicts cached replies" `Quick
            test_result_cache_reload_invalidation;
          Alcotest.test_case "reload invalidates cache before revalidate"
            `Quick test_reload_invalidation_ordering;
          Alcotest.test_case "reload races a batched query group" `Quick
            test_reload_races_batched_group;
          Alcotest.test_case "open failure does not poison result cache"
            `Quick test_result_cache_open_failure;
          Alcotest.test_case "loadgen rides out a torn reply" `Quick
            test_loadgen_retry;
          Alcotest.test_case "cached hit's reply torn" `Quick test_torn_hit_reply;
          Alcotest.test_case "handed-off reply torn" `Quick
            test_torn_handoff_reply;
          Alcotest.test_case "retired index format refused" `Quick
            test_retired_format_refused;
          Alcotest.test_case "backoff is deterministic" `Quick
            test_backoff_determinism;
        ] );
    ]
