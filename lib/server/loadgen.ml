(* Threaded load generator; see the mli. Clients are threads, not
   domains: a client's work between replies is a few microseconds of
   encoding, so the OS overlaps the blocked receives, while the server
   side does the parallel (domain) work. *)

module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Q = Pti_workload.Querygen
module P = Protocol

type mix = { query : int; top_k : int; listing : int }

let mix_of_string s =
  let parts = String.split_on_char ',' s in
  let m = ref { query = 0; top_k = 0; listing = 0 } in
  List.iter
    (fun part ->
      let part = String.trim part in
      if part <> "" then
        match String.split_on_char '=' part with
        | [ key; w ] -> (
            let w =
              match int_of_string_opt (String.trim w) with
              | Some w when w >= 0 -> w
              | _ -> failwith ("loadgen mix: bad weight in " ^ part)
            in
            match String.trim key with
            | "query" -> m := { !m with query = w }
            | "topk" | "top_k" -> m := { !m with top_k = w }
            | "listing" -> m := { !m with listing = w }
            | k -> failwith ("loadgen mix: unknown kind " ^ k))
        | _ -> failwith ("loadgen mix: expected kind=weight, got " ^ part))
    parts;
  !m

let default_mix ~listing_index =
  { query = 8; top_k = 1; listing = (match listing_index with Some _ -> 1 | None -> 0) }

type result = {
  sent : int;
  ok : int;
  retries : int;
  errors : (string * int) list;
  protocol_failures : int;
  verify_failures : int;
  elapsed_s : float;
  throughput_rps : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
}

(* per-client tallies, merged after the join *)
type tally = {
  mutable t_sent : int;
  mutable t_ok : int;
  mutable t_retries : int;
  mutable t_errors : (string * int) list;
  mutable t_protocol_failures : int;
  mutable t_verify_failures : int;
  mutable t_latencies : float list;
}

let new_tally () =
  {
    t_sent = 0;
    t_ok = 0;
    t_retries = 0;
    t_errors = [];
    t_protocol_failures = 0;
    t_verify_failures = 0;
    t_latencies = [];
  }

let count_error tally kind =
  let n = try List.assoc kind tally.t_errors with Not_found -> 0 in
  tally.t_errors <- (kind, n + 1) :: List.remove_assoc kind tally.t_errors

let draw_pattern rng ~source ~lengths =
  let m = List.nth lengths (Random.State.int rng (List.length lengths)) in
  Sym.to_string (Q.pattern rng source ~m)

let draw_op rng ~(mix : mix) ~pool ~source ~lengths ~tau ~k ~index
    ~listing_index =
  let total = mix.query + mix.top_k + mix.listing in
  let pattern =
    (* a pattern pool makes the stream repetitive (production traffic
       is; distinct-query bounds are per paper query, §14): patterns
       are pre-drawn from the same seeded stream, then reused *)
    match pool with
    | Some pool -> pool.(Random.State.int rng (Array.length pool))
    | None -> draw_pattern rng ~source ~lengths
  in
  let x = Random.State.int rng total in
  if x < mix.query then P.Query { index; pattern; tau }
  else if x < mix.query + mix.top_k then P.Top_k { index; pattern; tau; k }
  else P.Listing { index = listing_index; pattern; tau }

(* ------------------------------------------------------------------ *)
(* Retry backoff. The jitter comes from a dedicated RNG stream derived
   from (seed, client) — NOT from the client's workload stream — so
   retrying never perturbs which operations a seeded run draws, and the
   delay sequence itself is reproducible. *)

let backoff_rng ~seed ~stream = Random.State.make [| seed; stream; 0xb0ff |]

(* Exponential backoff with full ±50% jitter:
   backoff_ms · 2^attempt · uniform[0.5, 1.5). *)
let backoff_delay rng ~backoff_ms ~attempt =
  backoff_ms
  *. (2.0 ** float_of_int attempt)
  *. (0.5 +. Random.State.float rng 1.0)

let backoff_delays ~seed ~stream ~backoff_ms n =
  let rng = backoff_rng ~seed ~stream in
  let acc = ref [] in
  for attempt = 0 to n - 1 do
    acc := backoff_delay rng ~backoff_ms ~attempt :: !acc
  done;
  List.rev !acc

(* One wire attempt's classification: retryable outcomes are transport
   failures (connection reset/refused, torn frame, EOF mid-stream) and
   the server's explicit back-off replies; everything else is final. *)
type attempt_outcome =
  | A_ok of P.reply
  | A_final_error of P.err
  | A_retry_transport
  | A_retry_typed of P.err

let client_loop ~host ~port ~deadline_t ~warm_t ~requests_per_client ~verify
    ~mix ~pattern_pool ~source ~lengths ~tau ~k ~index ~listing_index ~rng
    ~retries ~backoff_ms ~bo_rng tally =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let pool =
    Option.map
      (fun n -> Array.init n (fun _ -> draw_pattern rng ~source ~lengths))
      pattern_pool
  in
  (* one persistent connection, re-established on transport failure *)
  let conn = ref None in
  let drop_conn () =
    match !conn with
    | Some fd ->
        conn := None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let connect () =
    match !conn with
    | Some fd -> Some fd
    | None -> (
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (* disable Nagle: a client sends whole small frames and waits
           for the reply, exactly the write-write-read shape Nagle +
           delayed ACK punishes — without this, small-frame latency
           percentiles measure the kernel's 40 ms timer, not the
           server *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        match P.connect_retry fd addr with
        | () ->
            conn := Some fd;
            Some fd
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            None)
  in
  let attempt_once ~measured req =
    match connect () with
    | None -> A_retry_transport
    | Some fd -> (
        if measured then tally.t_sent <- tally.t_sent + 1;
        let t0 = Unix.gettimeofday () in
        match
          P.write_all fd (P.encode_request req);
          P.read_frame fd
        with
        | exception (P.Protocol_error _ | Unix.Unix_error _) ->
            drop_conn ();
            A_retry_transport
        | None ->
            drop_conn ();
            A_retry_transport
        | Some payload -> (
            let t1 = Unix.gettimeofday () in
            if measured then
              tally.t_latencies <- (t1 -. t0) :: tally.t_latencies;
            match P.decode_reply payload with
            | exception P.Protocol_error _ ->
                drop_conn ();
                A_retry_transport
            | id, _ when id <> req.P.id ->
                drop_conn ();
                A_retry_transport
            | _, P.Error ((P.Overloaded | P.Timeout) as e, _) ->
                A_retry_typed e
            | _, P.Error (P.Shutting_down, _) ->
                (* the daemon is going away; reconnect (possibly to its
                   restarted successor) on the next attempt *)
                drop_conn ();
                A_retry_typed P.Shutting_down
            | _, P.Error (e, _) -> A_final_error e
            | _, reply -> A_ok reply))
  in
  Fun.protect ~finally:drop_conn (fun () ->
      let continue i =
        (match requests_per_client with Some n -> i < n | None -> true)
        && Unix.gettimeofday () < deadline_t
      in
      let rec go i =
        if continue i then begin
          let op =
            draw_op rng ~mix ~pool ~source ~lengths ~tau ~k ~index
              ~listing_index
          in
          let req = { P.id = i; op } in
          (* a request started inside the warmup window is excluded
             from sent/ok/retry counts and latencies — but its reply is
             still verified and its errors still counted, so warmup can
             never hide a correctness failure *)
          let measured = Unix.gettimeofday () >= warm_t in
          let rec attempt a =
            match attempt_once ~measured req with
            | A_ok reply ->
                if measured then tally.t_ok <- tally.t_ok + 1;
                if not (verify op reply) then
                  tally.t_verify_failures <- tally.t_verify_failures + 1
            | A_final_error e -> count_error tally (P.err_to_string e)
            | (A_retry_transport | A_retry_typed _) as r ->
                if a < retries then begin
                  if measured then tally.t_retries <- tally.t_retries + 1;
                  Thread.delay
                    (backoff_delay bo_rng ~backoff_ms ~attempt:a /. 1000.0);
                  attempt (a + 1)
                end
                else begin
                  match r with
                  | A_retry_transport ->
                      tally.t_protocol_failures <-
                        tally.t_protocol_failures + 1
                  | A_retry_typed e -> count_error tally (P.err_to_string e)
                  | _ -> ()
                end
          in
          attempt 0;
          go (i + 1)
        end
      in
      go 0)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let run ?(host = "127.0.0.1") ~port ~concurrency ?(duration_s = 1.0)
    ?requests_per_client ?(warmup_s = 0.0) ?pattern_pool
    ?(verify = fun _ _ -> true) ?(index = 0)
    ?listing_index ?(k = 5)
    ?(lengths = [ 4; 8 ]) ?(tau = 0.2) ?(seed = Q.default_seed)
    ?(retries = 0) ?(backoff_ms = 50.0) ~mix ~source () =
  if retries < 0 then invalid_arg "Loadgen.run: retries < 0";
  if backoff_ms < 0.0 then invalid_arg "Loadgen.run: backoff_ms < 0";
  if warmup_s < 0.0 then invalid_arg "Loadgen.run: warmup_s < 0";
  if concurrency < 1 then invalid_arg "Loadgen.run: concurrency < 1";
  (match pattern_pool with
  | Some n when n < 1 -> invalid_arg "Loadgen.run: pattern_pool < 1"
  | _ -> ());
  if mix.query < 0 || mix.top_k < 0 || mix.listing < 0
     || mix.query + mix.top_k + mix.listing <= 0
  then invalid_arg "Loadgen.run: mix needs a positive weight";
  let lengths = List.filter (fun m -> m >= 1 && m <= U.length source) lengths in
  if lengths = [] then invalid_arg "Loadgen.run: no usable pattern length";
  let listing_index = Option.value listing_index ~default:index in
  let t0 = Unix.gettimeofday () in
  let deadline_t = t0 +. duration_s in
  let warm_t = t0 +. warmup_s in
  let tallies = Array.init concurrency (fun _ -> new_tally ()) in
  let threads =
    List.init concurrency (fun i ->
        Thread.create
          (fun () ->
            let rng = Q.state ~seed ~stream:i () in
            let bo_rng = backoff_rng ~seed ~stream:i in
            client_loop ~host ~port ~deadline_t ~warm_t ~requests_per_client
              ~verify ~mix ~pattern_pool ~source ~lengths ~tau ~k ~index
              ~listing_index ~rng ~retries ~backoff_ms ~bo_rng tallies.(i))
          ())
  in
  List.iter Thread.join threads;
  (* throughput and rates are over the measured window only *)
  let elapsed_s =
    Stdlib.max 0.0 (Unix.gettimeofday () -. t0 -. warmup_s)
  in
  let sent = Array.fold_left (fun a t -> a + t.t_sent) 0 tallies in
  let ok = Array.fold_left (fun a t -> a + t.t_ok) 0 tallies in
  let retries = Array.fold_left (fun a t -> a + t.t_retries) 0 tallies in
  let protocol_failures =
    Array.fold_left (fun a t -> a + t.t_protocol_failures) 0 tallies
  in
  let verify_failures =
    Array.fold_left (fun a t -> a + t.t_verify_failures) 0 tallies
  in
  let errors =
    Array.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc (kind, n) ->
            let prev = try List.assoc kind acc with Not_found -> 0 in
            (kind, prev + n) :: List.remove_assoc kind acc)
          acc t.t_errors)
      [] tallies
    |> List.sort compare
  in
  let latencies =
    Array.of_list
      (Array.fold_left (fun acc t -> t.t_latencies @ acc) [] tallies)
  in
  Array.sort compare latencies;
  let n_lat = Array.length latencies in
  let mean =
    if n_lat = 0 then nan
    else Array.fold_left ( +. ) 0.0 latencies /. float_of_int n_lat
  in
  {
    sent;
    ok;
    retries;
    errors;
    protocol_failures;
    verify_failures;
    elapsed_s;
    throughput_rps =
      (if elapsed_s > 0.0 then float_of_int sent /. elapsed_s else nan);
    mean_us = mean *. 1e6;
    p50_us = percentile latencies 0.50 *. 1e6;
    p95_us = percentile latencies 0.95 *. 1e6;
    p99_us = percentile latencies 0.99 *. 1e6;
    max_us = (if n_lat = 0 then nan else latencies.(n_lat - 1) *. 1e6);
  }

let summary r =
  let b = Buffer.create 256 in
  Printf.bprintf b "requests:    %d sent, %d ok in %.2fs (%.0f req/s)\n" r.sent
    r.ok r.elapsed_s r.throughput_rps;
  if r.retries > 0 then Printf.bprintf b "retries:     %d\n" r.retries;
  Printf.bprintf b "latency:     mean %.1fus  p50 %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus\n"
    r.mean_us r.p50_us r.p95_us r.p99_us r.max_us;
  let total_errors =
    List.fold_left (fun a (_, n) -> a + n) 0 r.errors
    + r.protocol_failures + r.verify_failures
  in
  Printf.bprintf b "errors:      %d" total_errors;
  if r.errors <> [] then
    Printf.bprintf b " (%s)"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.errors));
  if r.protocol_failures > 0 then
    Printf.bprintf b " protocol=%d" r.protocol_failures;
  if r.verify_failures > 0 then
    Printf.bprintf b " verify=%d" r.verify_failures;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_json_fields r =
  let errs =
    String.concat ","
      (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" k n) r.errors)
  in
  Printf.sprintf
    "\"sent\": %d, \"ok\": %d, \"retries\": %d, \"errors\": {%s}, \
     \"protocol_failures\": %d, \"verify_failures\": %d, \"elapsed_s\": \
     %.4f, \"throughput_rps\": %.1f, \"mean_us\": %.2f, \"p50_us\": %.2f, \
     \"p95_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f"
    r.sent r.ok r.retries errs r.protocol_failures r.verify_failures
    r.elapsed_s r.throughput_rps r.mean_us r.p50_us r.p95_us r.p99_us r.max_us
