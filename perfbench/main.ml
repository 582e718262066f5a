(* The repository's end-to-end benchmark.

   One run sets the system up the way users run it (pti build / pti
   corpus / pti serve as child processes, or the library in-process for
   the offline workload), drives it with a workload generated from
   --seed, checks every answer off the clock, and prints the metrics.
   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   repeats the run with per-request spans recorded and replays the same
   op stream through each layer's public functions, and reports the
   per-layer metrics. perfbench/README.md lists the workloads, the
   metrics, and which end-to-end metric each per-layer metric moves.

   Run it through perfbench/run.py, which builds the program first:
     python3 perfbench/run.py --workload static-fresh --seed 1 --seconds 10 --trace 0
   --smoke shrinks the input for a quick check. *)

module P = Pti_server.Protocol
module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module D = Pti_workload.Dataset
module Q = Pti_workload.Querygen
module E = Pti_core.Engine
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module Logp = Pti_prob.Logp
module St = Pti_segment.Segment_store
module Tr = Pti_transform.Transform
module Sais = Pti_suffix.Sais
open Perfbench

let now = Clock.now
let ( // ) = Filename.concat
let theta = 0.3
let tau_min = 0.1
let wal_sync = "interval:5"

type workload = Static_fresh | Static_hot | Corpus_churn | Offline_succinct

let workload_names =
  [
    ("static-fresh", Static_fresh);
    ("static-hot", Static_hot);
    ("corpus-churn", Corpus_churn);
    ("offline-succinct", Offline_succinct);
  ]

type params = {
  n : int;  (** Text positions. *)
  reps : int;  (** Set-ups timed per run; setup_s is their median. *)
  read_rate : float;  (** Open-loop reads per second. *)
  insert_rate : float;
  delete_rate : float;
  tau : float;
  k : int;  (** Top-k size. *)
  lengths : int array;  (** Pattern lengths, drawn uniformly. *)
  hot_pool : int;  (** 0: fresh patterns; else the popular pool's size. *)
  memtable_max : int;  (** Corpus auto-seal threshold. *)
  conns : int;  (** Connections (<= nproc). *)
  depth : int;  (** Closed-loop pipeline depth per connection. *)
}

let params wl ~smoke =
  let base =
    {
      n = (if smoke then 4_000 else 20_000);
      reps = (if smoke then 1 else 3);
      read_rate = 10000.0;
      insert_rate = 0.0;
      delete_rate = 0.0;
      tau = 0.2;
      k = 10;
      lengths = [| 10; 14; 20; 28 |];
      hot_pool = 0;
      memtable_max = 0;
      conns = 2;
      depth = 16;
    }
  in
  match wl with
  | Static_fresh -> base
  | Static_hot -> { base with read_rate = 5000.0; tau = 0.15; lengths = [| 1; 2 |]; hot_pool = 48 }
  | Corpus_churn ->
      {
        base with
        read_rate = 5000.0;
        insert_rate = 5.0;
        delete_rate = 3.0;
        lengths = [| 6; 10; 16 |];
        memtable_max = 4;
      }
  | Offline_succinct -> { base with lengths = [| 6; 12; 20; 32 |] }

(* ------------------------------------------------------------------ *)
(* Child processes. Every child is recorded so that any exit path kills
   and reaps it. *)

let children = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let rec waitpid_eintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr flags pid

let spawn ~out ~err argv =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let o = Unix.openfile out flags 0o644 in
  let e = Unix.openfile err flags 0o644 in
  let i = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process argv.(0) argv i o e in
  List.iter Unix.close [ i; o; e ];
  children := pid :: !children;
  pid

let reaped pid = children := List.filter (( <> ) pid) !children

let file_tail path =
  match Procfs.read_file path with
  | None -> ""
  | Some s ->
      let n = String.length s in
      String.trim (if n > 400 then String.sub s (n - 400) 400 else s)

(* Run a command to completion; its stdout file is returned. *)
let run_cmd ~dir ~name argv =
  let out = dir // (name ^ ".out") and err = dir // (name ^ ".err") in
  let pid = spawn ~out ~err argv in
  let _, st = waitpid_eintr [] pid in
  reaped pid;
  match st with
  | Unix.WEXITED 0 -> out
  | _ ->
      failwith
        (Printf.sprintf "%s failed: %s"
           (String.concat " " (Array.to_list argv))
           (file_tail err))

type server = { pid : int; port : int }

let start_server ~pti ~dir args =
  let out = dir // "serve.out" in
  let argv =
    Array.of_list
      ([ pti; "serve"; "--port"; "0"; "--workers"; "1"; "--wal-sync"; wal_sync ] @ args)
  in
  let pid = spawn ~out ~err:(dir // "serve.err") argv in
  let deadline = now () +. 60.0 in
  let marker = "listening on " in
  let rec wait () =
    let port =
      match Procfs.read_file out with
      | Some s -> (
          let m = String.length marker in
          let rec find i =
            if i + m > String.length s then None
            else if String.sub s i m = marker then Some (i + m)
            else find (i + 1)
          in
          match find 0 with
          | Some i when String.contains_from s i '\n' ->
              Scanf.sscanf (String.sub s i (String.length s - i)) "%[^:]:%d"
                (fun _ p -> Some p)
          | _ -> None)
      | None -> None
    in
    match port with
    | Some port -> { pid; port }
    | None ->
        (match waitpid_eintr [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            reaped pid;
            failwith ("pti serve exited at start-up: " ^ file_tail (dir // "serve.err")));
        if now () > deadline then failwith "pti serve did not start within 60 s";
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 15.0 in
  let rec wait () =
    match waitpid_eintr [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_eintr [] s.pid)
    | _ -> ()
  in
  wait ();
  reaped s.pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun a f -> a + dir_bytes (path // f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Inputs *)

type dataset = { docs : U.t array; u : U.t; positions : int; file : string }

(* The collection is written as text and read back the way pti reads
   it, so in-process checks see exactly the probabilities the program
   parsed. *)
let gen_dataset ~seed ~n ~file =
  let texts = List.map U.to_text (D.collection { (D.default ~total:n ~theta) with D.seed }) in
  let oc = open_out file in
  List.iter (fun t -> output_string oc t; output_char oc '\n') texts;
  close_out oc;
  let docs = Array.of_list (List.map U.parse texts) in
  let u = fst (U.concat ~sep:None (Array.to_list docs)) in
  { docs; u; positions = U.length u; file }

type rk = Query | Topk | Listing
type op = Read of rk * string | Insert of int | Delete of int | Control of P.op

let rk_name = function Query -> "query" | Topk -> "top_k" | Listing -> "listing"

let read_key rk pattern =
  (match rk with Query -> "q" | Topk -> "t" | Listing -> "l") ^ pattern

(* The popular pool of the hot workload: for each length, the most
   frequent substrings of the text's most probable world, most frequent
   first, with ranks alternating between lengths. Ranking by frequency
   keeps the cost of the most popular reads alike across seeds. *)
let hot_pool u ~lengths ~size =
  let n = U.length u in
  let top =
    Array.init n (fun i ->
        let ch = U.choices u i in
        (Array.fold_left (fun (a : U.choice) (b : U.choice) -> if b.U.prob > a.U.prob then b else a) ch.(0) ch).U.sym)
  in
  let ranked m =
    let counts = Hashtbl.create 1024 in
    for i = 0 to n - m do
      let key = Sym.to_string (Array.sub top i m) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    done;
    let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] in
    Array.of_list
      (List.map fst (List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b) all))
  in
  let per_length = Array.map ranked lengths in
  let nl = Array.length lengths in
  Array.init size (fun i ->
      let r = per_length.(i mod nl) in
      r.(i / nl mod Array.length r))

(* Reads in the mix query 8 : top-k 1 : listing 1. Fresh workloads draw
   a new pattern per read; hot ones draw from [hot_pool] with Zipf(1)
   popularity. *)
let read_gen p ~seed ~u ~stream =
  let rng = Q.state ~seed ~stream () in
  let kind () =
    match Random.State.int rng 10 with 8 -> Topk | 9 -> Listing | _ -> Query
  in
  if p.hot_pool = 0 then fun () ->
    let m = p.lengths.(Random.State.int rng (Array.length p.lengths)) in
    let k = kind () in
    Read (k, Sym.to_string (Q.pattern rng u ~m))
  else begin
    let pool = hot_pool u ~lengths:p.lengths ~size:p.hot_pool in
    let w = Array.init p.hot_pool (fun i -> 1.0 /. float_of_int (i + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let cdf = Array.make p.hot_pool 0.0 in
    ignore
      (Array.fold_left
         (fun (i, acc) x ->
           cdf.(i) <- (acc +. x) /. total;
           (i + 1, acc +. x))
         (0, 0.0) w);
    fun () ->
      let x = Random.State.float rng 1.0 in
      let lo = ref 0 and hi = ref (p.hot_pool - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < x then lo := mid + 1 else hi := mid
      done;
      let k = kind () in
      Read (k, pool.(!lo))
  end

(* Fixed-rate streams merged by due time, as offsets in seconds from the
   phase start. [next] yields the op for a stream's slot; writes are
   placed part of a slot after reads so the streams interleave. The ops
   are generated before the phase starts, so generating them never
   makes the generator late. *)
let schedule ~dur streams =
  let events =
    List.concat_map
      (fun (rate, offset, next) ->
        if rate <= 0.0 then []
        else
          let count = int_of_float (Float.floor ((dur *. rate) -. offset)) in
          List.init (max 0 count) (fun i -> ((float_of_int i +. offset) /. rate, next ())))
      streams
  in
  let a = Array.of_list events in
  Array.stable_sort (fun (x, _) (y, _) -> Float.compare x y) a;
  (Array.map fst a, Array.map snd a)

(* ------------------------------------------------------------------ *)
(* Wire client: one thread, <= nproc connections, select(2).

   The generator shares a core with the server, so it keeps nothing it
   allocates per request: requests are columns of flat arrays, each
   reply is kept as a digest of its body, and the closed loop's reads
   are drawn again from their seed stream for the check after the run.
   Its minor collections then have nothing to copy, and do not stall it
   while requests fall due. *)

(* Phase kinds: 0 warm-up, 1 open loop, 2 open loop traced, 3
   saturated, 4 final-state checks; -1 control requests. A measured
   phase's number also carries its round, so that each run_phase call
   has a number of its own. *)
let check_phase = 4
let phase_id ~round kind = (round * 8) + kind
let phase_kind ph = if ph < 0 then ph else ph land 7

(* The measured time is cut into rounds of about 5 s, each an open
   loop (60%) followed by a saturated phase (40%), and every time metric
   is the trimmed mean of its per-round values. The host this benchmark
   was written on drifts in speed by up to 2x over tens of seconds; a
   metric taken in one contiguous stretch inherits whatever speed that
   stretch had, while an average over rounds spread across the whole
   run does not. *)
let rounds_of seconds = max 1 (seconds / 5)

let round_split seconds =
  let r = float_of_int seconds /. float_of_int (rounds_of seconds) in
  (0.6 *. r, 0.4 *. r)

(* Request status. *)
let pending = 0
let ok = 1
let failed = 2

(* Op kinds, in the [kind] column. *)
let kind_of = function
  | Read (Query, _) -> 0
  | Read (Topk, _) -> 1
  | Read (Listing, _) -> 2
  | Insert _ -> 3
  | Delete _ -> 4
  | Control _ -> 5

let is_read_kind k = k <= 2

(* FNV-1a over 32-bit words, then bytes: the digest a reply body is
   kept as. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x2545F4914F6CDD1D

let digest_bytes b pos len =
  let h = ref (fnv_basis lxor len) in
  let i = ref pos and stop = pos + len in
  while !i + 4 <= stop do
    h := (!h lxor Int32.to_int (Bytes.get_int32_le b !i)) * fnv_prime;
    i := !i + 4
  done;
  while !i < stop do
    h := (!h lxor Bytes.get_uint8 b !i) * fnv_prime;
    incr i
  done;
  !h

let digest_string s = digest_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

(* The same kind of digest over an engine answer, as its wire form would
   carry it: each key and the bits of its log-probability. *)
let digest_hits hits =
  let mix h x = (h lxor x) * fnv_prime in
  List.fold_left
    (fun h (key, p) ->
      let bits = Int64.bits_of_float (Logp.to_log p) in
      mix
        (mix (mix h key) (Int64.to_int bits land 0xFFFF_FFFF))
        (Int64.to_int (Int64.shift_right_logical bits 32)))
    (fnv_basis lxor List.length hits) hits

type conn = {
  fd : Unix.file_descr;
  wb : P.Wbuf.t;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable outstanding : int;
}

type client = {
  conns : conn array;
  wire : op -> P.op;
  mutable nreq : int;
  mutable cap : int;  (** Ids the columns can hold. *)
  mutable traced_cap : int;  (** Ids the span columns can hold. *)
  (* one entry per request id *)
  phase : Column.Int.t;
  conn_of : Column.Int.t;
  kind : Column.Int.t;
  slot : Column.Int.t;  (** Index in the phase's open-loop schedule, or -1. *)
  seq : Column.Int.t;  (** Closed-loop draw number, or -1. *)
  status : Column.Int.t;
  hits : Column.Int.t;
  bytes : Column.Int.t;  (** Reply payload bytes. *)
  ack : Column.Int.t;
  digest : Column.Int.t;  (** Of the reply body. *)
  due : Column.Float.t;  (** [nan] for closed-loop requests. *)
  fin : Column.Float.t;
  (* span boundaries, written only while tracing *)
  t_enc0 : Column.Float.t;
  t_enc1 : Column.Float.t;
  t_wr : Column.Float.t;
  t_read : Column.Float.t;
  t_dec0 : Column.Float.t;
  schedules : (int, op array) Hashtbl.t;  (** Open-loop ops by phase. *)
  others : (int, op) Hashtbl.t;  (** Ops of control and check requests. *)
  texts : (int, string) Hashtbl.t;  (** Stats replies. *)
  answers : (int, (int * float) list) Hashtbl.t;  (** Check-phase answers. *)
  failures : (string, int ref) Hashtbl.t;  (** Failure reasons, counted. *)
  mutable closed : (unit -> op) option;
  mutable drawn : int;  (** Closed-loop reads drawn so far. *)
  mutable tracing : bool;
  mutable schedule : Openloop.t option;
  tr : Trace.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  P.connect_retry fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let new_client ~port ~nconns ~wire ~trace =
  let ic = Column.Int.create and fc = Column.Float.create in
  {
    conns =
      Array.init nconns (fun _ ->
          {
            fd = connect port;
            wb = P.Wbuf.create 256;
            rbuf = Bytes.create 65536;
            rlen = 0;
            outstanding = 0;
          });
    wire;
    nreq = 0;
    cap = 0;
    traced_cap = 0;
    phase = ic ();
    conn_of = ic ();
    kind = ic ();
    slot = ic ();
    seq = ic ();
    status = ic ();
    hits = ic ();
    bytes = ic ();
    ack = ic ();
    digest = ic ();
    due = fc ();
    fin = fc ();
    t_enc0 = fc ();
    t_enc1 = fc ();
    t_wr = fc ();
    t_read = fc ();
    t_dec0 = fc ();
    schedules = Hashtbl.create 8;
    others = Hashtbl.create 64;
    texts = Hashtbl.create 8;
    answers = Hashtbl.create 64;
    failures = Hashtbl.create 8;
    closed = None;
    drawn = 0;
    tracing = false;
    schedule = None;
    tr = Trace.create ~enabled:trace;
  }

let close_client c = Array.iter (fun cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) c.conns

let phase_name ph =
  match phase_kind ph with
  | 0 -> "warm-up"
  | 1 | 2 -> Printf.sprintf "round %d open loop" (ph / 8)
  | 3 -> Printf.sprintf "round %d saturated" (ph / 8)
  | 4 -> "check"
  | _ -> "control"

let fail c id reason =
  let reason = Printf.sprintf "%s [%s]" reason (phase_name (Column.Int.get c.phase id)) in
  Column.Int.set c.status id failed;
  match Hashtbl.find_opt c.failures reason with
  | Some n -> incr n
  | None -> Hashtbl.replace c.failures reason (ref 1)

let is_ok c id = Column.Int.get c.status id = ok

(* Registers a request and appends its frame to the connection's write
   buffer; [flush] sends everything buffered in one write. [slot] and
   [seq] say where the op can be found again after the run; an op with
   neither is kept as it is. *)
let enqueue c ~conn ~phase ~due ~slot ~seq op =
  let id = c.nreq in
  let n = id + 1 in
  if n > c.cap then begin
    c.cap <- c.cap + Column.chunk;
    List.iter (fun col -> Column.Int.reserve col c.cap)
      [ c.phase; c.conn_of; c.kind; c.slot; c.seq; c.status; c.hits; c.bytes; c.ack; c.digest ];
    List.iter (fun col -> Column.Float.reserve col c.cap) [ c.due; c.fin ]
  end;
  if c.tracing && n > c.traced_cap then begin
    c.traced_cap <- c.cap;
    List.iter (fun col -> Column.Float.reserve col c.cap) [ c.t_enc0; c.t_enc1; c.t_wr; c.t_read; c.t_dec0 ]
  end;
  Column.Int.set c.phase id phase;
  Column.Int.set c.conn_of id conn;
  Column.Int.set c.kind id (kind_of op);
  Column.Int.set c.slot id slot;
  Column.Int.set c.seq id seq;
  Column.Int.set c.status id pending;
  Column.Int.set c.ack id (-1);
  Column.Float.set c.due id due;
  if slot < 0 && seq < 0 then Hashtbl.replace c.others id op;
  c.nreq <- n;
  let cn = c.conns.(conn) in
  if c.tracing then Column.Float.set c.t_enc0 id (now ());
  P.encode_request_into cn.wb { P.id; op = c.wire op };
  if c.tracing then Column.Float.set c.t_enc1 id (now ());
  cn.outstanding <- cn.outstanding + 1;
  id

let enqueue_closed c ~conn ~phase next =
  let seq = c.drawn in
  c.drawn <- seq + 1;
  ignore (enqueue c ~conn ~phase ~due:Float.nan ~slot:(-1) ~seq (next ()) : int)

let flush c conn =
  let cn = c.conns.(conn) in
  if P.Wbuf.length cn.wb > 0 then begin
    P.write_wbuf cn.fd cn.wb;
    P.Wbuf.reset cn.wb
  end

let send c ~conn ~phase ~due ~slot op =
  let id = enqueue c ~conn ~phase ~due ~slot ~seq:(-1) op in
  flush c conn;
  if c.tracing then Column.Float.set c.t_wr id (now ())

let record_spans c id =
  let tr = c.tr in
  let t col = Column.Float.get col id in
  let root =
    Trace.add tr ~name:"client.request" ~id ~parent:(-1) ~start:(t c.t_enc0) ~stop:(t c.fin)
  in
  let child name a b = ignore (Trace.add tr ~name ~id ~parent:root ~start:a ~stop:b : int) in
  child "client.encode" (t c.t_enc0) (t c.t_enc1);
  child "client.write" (t c.t_enc1) (t c.t_wr);
  child "client.wait" (t c.t_wr) (t c.t_read);
  child "client.decode" (t c.t_dec0) (t c.fin)

(* One reply frame: the payload is [len] bytes of [buf] from [pos], a
   tag byte and a 4-byte id before the body. *)
let rec handle c ~t_read buf pos len =
  let t_dec0 = if c.tracing then now () else 0.0 in
  let id, reply = P.decode_reply (Bytes.sub_string buf pos len) in
  let fin = now () in
  let cn = c.conns.(Column.Int.get c.conn_of id) in
  cn.outstanding <- cn.outstanding - 1;
  Column.Float.set c.fin id fin;
  Column.Int.set c.bytes id len;
  Column.Int.set c.digest id (digest_bytes buf (pos + 5) (len - 5));
  let kind = Column.Int.get c.kind id in
  (match reply with
  | P.Hits hs when is_read_kind kind ->
      Column.Int.set c.hits id (List.length hs);
      Column.Int.set c.status id ok;
      if Column.Int.get c.phase id = check_phase then Hashtbl.replace c.answers id hs
  | P.Ack v when kind = 3 || kind = 4 ->
      Column.Int.set c.ack id v;
      Column.Int.set c.status id ok
  | P.Pong when kind = 5 -> Column.Int.set c.status id ok
  | P.Stats_reply s when kind = 5 ->
      Hashtbl.replace c.texts id s;
      Column.Int.set c.status id ok
  | P.Error (e, m) -> fail c id (P.err_to_string e ^ ": " ^ m)
  | _ -> fail c id "reply of the wrong kind");
  let slot = Column.Int.get c.slot id in
  if c.tracing && slot >= 0 then begin
    Column.Float.set c.t_read id t_read;
    Column.Float.set c.t_dec0 id t_dec0;
    record_spans c id
  end;
  (match c.schedule with
  | Some ol when slot >= 0 -> Openloop.finish ol slot fin
  | _ -> ());
  (* a closed-loop read is replaced at once; [read_conn] sends the
     replacements for one read(2)'s worth of replies in one write *)
  match c.closed with
  | Some next when Column.Int.get c.seq id >= 0 ->
      enqueue_closed c ~conn:(Column.Int.get c.conn_of id) ~phase:(Column.Int.get c.phase id) next
  | _ -> ()

and read_conn c ci =
  let cn = c.conns.(ci) in
  if cn.rlen = Bytes.length cn.rbuf then begin
    let bigger = Bytes.create (2 * Bytes.length cn.rbuf) in
    Bytes.blit cn.rbuf 0 bigger 0 cn.rlen;
    cn.rbuf <- bigger
  end;
  let k =
    try Unix.read cn.fd cn.rbuf cn.rlen (Bytes.length cn.rbuf - cn.rlen)
    with Unix.Unix_error (Unix.EINTR, _, _) -> -1
  in
  if k = 0 then failwith "server closed a connection";
  if k > 0 then begin
    cn.rlen <- cn.rlen + k;
    let t_read = now () in
    let pos = ref 0 in
    let more = ref true in
    while !more do
      if cn.rlen - !pos >= 4 then begin
        let len = Int32.to_int (Bytes.get_int32_be cn.rbuf !pos) land 0xFFFF_FFFF in
        if cn.rlen - !pos - 4 >= len then begin
          let at = !pos + 4 in
          pos := at + len;
          handle c ~t_read cn.rbuf at len
        end
        else more := false
      end
      else more := false
    done;
    Bytes.blit cn.rbuf !pos cn.rbuf 0 (cn.rlen - !pos);
    cn.rlen <- cn.rlen - !pos;
    flush c ci
  end

let select_read c timeout =
  let fds = Array.to_list (Array.map (fun cn -> cn.fd) c.conns) in
  let ready =
    try
      let r, _, _ = Unix.select fds [] [] timeout in
      r
    with Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  Array.iteri (fun ci cn -> if List.memq cn.fd ready then read_conn c ci) c.conns

(* Answer replies until [deadline]. The main thread's timer slack is
   set to 1 µs at start-up, so the wait ends on time and the generator
   is not late for the next due request. *)
let pump c ~deadline =
  let rec loop () =
    let left = deadline -. now () in
    if left > 0.0 then begin
      select_read c left;
      loop ()
    end
  in
  loop ()

let outstanding c = Array.fold_left (fun a cn -> a + cn.outstanding) 0 c.conns

let drain c ~deadline =
  while outstanding c > 0 && now () < deadline do
    select_read c (Float.max 0.0 (deadline -. now ()))
  done

(* Stats, Ping: one request outside any measured phase; its id. *)
let rpc c op =
  let id = c.nreq in
  send c ~conn:0 ~phase:(-1) ~due:Float.nan ~slot:(-1) (Control op);
  drain c ~deadline:(now () +. 30.0);
  if not (is_ok c id) then failwith ("no reply to a control request: " ^ P.op_kind op);
  id

let stats_text c = Hashtbl.find c.texts (rpc c P.Stats)

(* One measured phase: [ops] at their [due] times (open loop) and, with
   [closed], that many reads kept in flight per connection (closed
   loop). Writes always go on connection 0, so the server sees them in
   schedule order. [offsets] are due times from the phase start. Returns
   the phase's schedule, the range of its request ids and its start. *)
let run_phase c ~phase ~offsets ~ops ?closed ~dur ~tracing () =
  let first = c.nreq in
  Hashtbl.replace c.schedules phase ops;
  let start = now () in
  let stop_at = start +. dur in
  let due = Array.map (fun o -> start +. o) offsets in
  let ol = Openloop.create due in
  c.schedule <- Some ol;
  c.tracing <- tracing;
  (match closed with
  | Some (depth, next) ->
      c.closed <- Some next;
      Array.iteri
        (fun ci _ ->
          for _ = 1 to depth do
            enqueue_closed c ~conn:ci ~phase next
          done;
          flush c ci)
        c.conns
  | None -> ());
  let nconns = Array.length c.conns in
  let sent =
    Openloop.run ol ~now
      ~wait_until:(fun d -> pump c ~deadline:d)
      ~send:(fun i ->
        let conn = match ops.(i) with Read _ -> i mod nconns | _ -> 0 in
        send c ~conn ~phase ~due:due.(i) ~slot:i ops.(i))
      ~stop_at
  in
  ignore (sent : int);
  pump c ~deadline:stop_at;
  c.closed <- None;
  drain c ~deadline:(stop_at +. 10.0);
  c.tracing <- false;
  c.schedule <- None;
  for i = first to c.nreq - 1 do
    if Column.Int.get c.status i = pending then fail c i "unanswered when the phase ended"
  done;
  (ol, first, c.nreq, start)

(* Every request's op, by id: open-loop ops from their phase's
   schedule, closed-loop reads drawn again from [closed_stream] (a fresh
   generator of the stream the closed loop drew from), the rest as
   kept. *)
let ops_by_id c ~closed_stream =
  let closed = Array.init c.drawn (fun _ -> closed_stream ()) in
  Array.init c.nreq (fun id ->
      let slot = Column.Int.get c.slot id and seq = Column.Int.get c.seq id in
      if slot >= 0 then (Hashtbl.find c.schedules (Column.Int.get c.phase id)).(slot)
      else if seq >= 0 then closed.(seq)
      else Hashtbl.find c.others id)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metrics = { mutable rows : (string * float * string) list }

let put m name unit v = m.rows <- (name, v, unit) :: m.rows
let us x = x *. 1e6
let ratio a b = if b > 0.0 then a /. b else 0.0

type sample_stats = { p50 : float; p99 : float; tail : Pstats.tail option; count : int }

let summarize xs =
  {
    p50 = Pstats.median xs;
    p99 = Pstats.quantile xs ~q_pcm:99_000;
    tail = Pstats.tail xs;
    count = Array.length xs;
  }

let describe name s =
  match s.tail with
  | Some t ->
      Printf.printf "  %-8s p50 %9.1f us  p99 %9.1f us  %s %9.1f us  (n=%d, %d beyond)\n"
        name (us s.p50) (us s.p99) (Pstats.percentile_label t.q_pcm) (us t.value) s.count
        t.beyond
  | None -> Printf.printf "  %-8s p50 %9.1f us  (n=%d)\n" name (us s.p50) s.count

(* ------------------------------------------------------------------ *)
(* Equivalence of listing answers across corpus layouts: the same ids
   with relevances equal to 1e-9, except that an id on one side only is
   allowed when its probability is within 1e-9 of τ (DESIGN.md §15.3:
   float association changes with the segment cut). *)
let equivalent ~tau a b =
  let by_id l = List.sort (fun (i, _) (j, _) -> compare i j) l in
  let close x y =
    Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  in
  let at_tau lp = close (exp lp) tau in
  let rec walk a b =
    match (a, b) with
    | [], [] -> true
    | (_, p) :: rest, [] | [], (_, p) :: rest -> at_tau p && walk rest []
    | (i, p) :: ra, (j, q) :: rb ->
        if i = j then close p q && walk ra rb
        else if i < j then at_tau p && walk ra b
        else at_tau q && walk a rb
  in
  walk (by_id a) (by_id b)

(* Reads replayed in-process per traced run: enough for stable medians,
   few enough that fat-reply workloads replay in seconds. *)
let replay_reads = 1000

let wire_hits hits = List.map (fun (key, p) -> (key, Logp.to_log p)) hits

(* ------------------------------------------------------------------ *)
(* In-process replays for the per-layer metrics (--trace 1). *)

type handles = { general : G.t option; listing : L.t }

let answer h p rk pattern =
  let pattern = Sym.of_string pattern in
  match (rk, h.general) with
  | Query, Some g -> G.query g ~pattern ~tau:p.tau
  | Topk, Some g -> G.query_top_k g ~pattern ~tau:p.tau ~k:p.k
  | (Query | Listing), _ -> L.query h.listing ~pattern ~tau:p.tau
  | Topk, None -> L.query_top_k h.listing ~pattern ~tau:p.tau ~k:p.k

let engine_of h rk =
  match (rk, h.general) with
  | (Query | Topk), Some g -> G.engine g
  | _ -> L.engine h.listing

(* Replays reads through Engine.suffix_range, the query call and
   Protocol.encode_reply: one untimed pass to warm caches, then one timed
   pass per layer, so each call meets caches as warm as the others'. The
   query call repeats the range search inside it; the extraction cost is
   the per-read difference. *)
let engine_replay m p h tr reads =
  let reads = Array.of_list reads in
  let n = Array.length reads in
  let answers = Array.map (fun (rk, pat) -> wire_hits (answer h p rk pat)) reads in
  let pass name f =
    Array.mapi
      (fun i (rk, pat) ->
        let t0 = now () in
        f i rk pat;
        let t1 = now () in
        ignore (Trace.add tr ~name:(name rk) ~id:i ~parent:(-1) ~start:t0 ~stop:t1 : int);
        t1 -. t0)
      reads
  in
  let sizes = Array.make n 0.0 in
  let range =
    pass
      (fun _ -> "engine.suffix_range")
      (fun i rk pat ->
        match E.suffix_range (engine_of h rk) ~pattern:(Sym.of_string pat) with
        | Some (lo, hi) -> sizes.(i) <- float_of_int (hi - lo + 1)
        | None -> ())
  in
  let call =
    pass (fun rk -> "engine." ^ rk_name rk) (fun _ rk pat -> ignore (answer h p rk pat))
  in
  let enc =
    pass
      (fun _ -> "protocol.encode_reply")
      (fun i _ _ -> ignore (P.encode_reply ~id:i (P.Hits answers.(i)) : string))
  in
  let select pred f =
    Array.of_list
      (List.filter_map (fun i -> if pred (fst reads.(i)) then Some (f i) else None) (List.init n Fun.id))
  in
  let of_kind k = select (( = ) k) (fun i -> call.(i)) in
  let long =
    Array.fold_left
      (fun a (rk, pat) -> if String.length pat > E.max_short (engine_of h rk) then a + 1 else a)
      0 reads
  in
  put m "engine.range_search_us" "us" (us (Pstats.median range));
  put m "engine.query_us" "us" (us (Pstats.median (of_kind Query)));
  put m "engine.topk_us" "us" (us (Pstats.median (of_kind Topk)));
  put m "engine.listing_us" "us" (us (Pstats.median (of_kind Listing)));
  put m "engine.extract_us" "us"
    (us (Pstats.median (select (( = ) Query) (fun i -> call.(i) -. range.(i)))));
  put m "engine.range_size_mean" "count" (Pstats.mean sizes);
  put m "engine.long_pattern_share" "ratio" (ratio (float_of_int long) (float_of_int n));
  put m "protocol.encode_reply_us" "us" (us (Pstats.median enc));
  (* batched queries as the server's workers run them: 32 per call *)
  let queries = select (( = ) Query) (fun i -> (Sym.of_string (snd reads.(i)), p.tau)) in
  let e = engine_of h Query in
  let nq = Array.length queries in
  let t0 = now () in
  let i = ref 0 in
  while !i < nq do
    let len = min 32 (nq - !i) in
    ignore (E.query_batch ~domains:1 e ~patterns:(Array.sub queries !i len));
    i := !i + len
  done;
  put m "engine.batch_us_per_query" "us" (us (ratio (now () -. t0) (float_of_int nq)));
  (Pstats.median call, Pstats.median enc)

(* Times the general index's build the way pti build runs it, split at
   the layer boundaries; Engine.build contains its own suffix array, so
   the engine's self time subtracts the separately timed one. *)
let build_replay m ~dir ~u ~backend tr =
  let path = dir // "replay.pti" in
  let t0 = now () in
  let trn = Tr.build ~tau_min u in
  let t1 = now () in
  ignore (Sais.suffix_array (Tr.text trn) : int array);
  let t2 = now () in
  let e = E.build ~backend ~key_of_pos:Fun.id trn in
  let t3 = now () in
  E.save e path;
  let t4 = now () in
  ignore (G.load ~verify:true path : G.t);
  let t5 = now () in
  let root = Trace.add tr ~name:"replay.build" ~id:0 ~parent:(-1) ~start:t0 ~stop:t5 in
  List.iter
    (fun (name, a, b) -> ignore (Trace.add tr ~name ~id:0 ~parent:root ~start:a ~stop:b : int))
    [
      ("build.transform", t0, t1);
      ("build.suffix_array", t1, t2);
      ("build.engine", t2, t3);
      ("storage.save", t3, t4);
      ("storage.open", t4, t5);
    ];
  put m "build.transform_s" "s" (t1 -. t0);
  put m "build.suffix_array_s" "s" (t2 -. t1);
  put m "build.engine_s" "s" (t3 -. t2 -. (t2 -. t1));
  put m "storage.save_s" "s" (t4 -. t3);
  put m "storage.open_ms" "ms" ((t5 -. t4) *. 1000.0);
  Sys.remove path

(* Replays a mutation schedule on a fresh corpus directory in-process:
   preload, then the ops in order, compacting whenever the size-tiered
   policy asks (the daemon's compactor does it in the background). *)
let segment_replay m p ~dir ~preload ~inserts ~ops tr =
  rm_rf dir;
  let memtable_max = (params Corpus_churn ~smoke:false).memtable_max in
  let config = { (St.default_config ~tau_min) with St.memtable_max_docs = memtable_max } in
  let s = St.create ~config ~wal_sync:(St.wal_sync_of_string wal_sync) dir in
  Array.iter (fun d -> ignore (St.insert s d : int)) preload;
  ignore (St.seal s : bool);
  ignore (St.compact ~force:true s : bool);
  let ins = ref [] and del = ref [] and seal = ref [] and compact = ref [] and query = ref [] in
  let wal = ref [] and segs = ref [] and doc_bytes = ref 0 in
  let io0 = Procfs.self () in
  let span name a b = ignore (Trace.add tr ~name ~id:0 ~parent:(-1) ~start:a ~stop:b : int) in
  Array.iter
    (fun op ->
      match op with
      | Insert i ->
          let d = inserts.(i) in
          doc_bytes := !doc_bytes + String.length (U.to_text d);
          let w0 = (St.stats s).St.st_wal_bytes in
          let t0 = now () in
          ignore (St.insert s d : int);
          let t1 = now () in
          span "segment.insert" t0 t1;
          ins := (t1 -. t0) :: !ins;
          let st = St.stats s in
          if st.St.st_memtable_docs = 0 then seal := (t1 -. t0) :: !seal
          else wal := float_of_int (st.St.st_wal_bytes - w0) :: !wal;
          if St.needs_compaction s then begin
            let t0 = now () in
            ignore (St.compact s : bool);
            let t1 = now () in
            span "segment.compact" t0 t1;
            compact := (t1 -. t0) :: !compact
          end
      | Delete id ->
          let t0 = now () in
          ignore (St.delete s id : bool);
          let t1 = now () in
          span "segment.delete" t0 t1;
          del := (t1 -. t0) :: !del
      | Read (rk, pat) ->
          let pattern = Sym.of_string pat in
          let t0 = now () in
          ignore
            (match rk with
            | Topk -> St.query_top_k s ~pattern ~tau:p.tau ~k:p.k
            | Query | Listing -> St.query s ~pattern ~tau:p.tau);
          let t1 = now () in
          span "segment.query" t0 t1;
          query := (t1 -. t0) :: !query;
          segs := float_of_int (St.stats s).St.st_segments :: !segs
      | Control _ -> ())
    ops;
  let io1 = Procfs.self () in
  let a l = Array.of_list !l in
  put m "segment.insert_us_p50" "us" (us (Pstats.median (a ins)));
  put m "segment.insert_us_p99" "us" (us (Pstats.quantile (a ins) ~q_pcm:99_000));
  put m "segment.delete_us_p50" "us" (us (Pstats.median (a del)));
  put m "segment.delete_us_p99" "us" (us (Pstats.quantile (a del) ~q_pcm:99_000));
  put m "segment.seal_ms" "ms" (Pstats.median (a seal) *. 1000.0);
  put m "segment.compact_ms" "ms"
    (if !compact = [] then 0.0 else Pstats.median (a compact) *. 1000.0);
  put m "segment.compactions" "count" (float_of_int (List.length !compact));
  put m "segment.query_us" "us" (us (Pstats.median (a query)));
  put m "segment.live_segments_mean" "count" (Pstats.mean (a segs));
  put m "segment.tombstone_ratio" "ratio" (St.tombstone_ratio (St.stats s));
  put m "segment.write_amp" "ratio"
    (ratio (io1.Procfs.wchar -. io0.Procfs.wchar) (float_of_int !doc_bytes));
  put m "wal.bytes_per_insert" "bytes" (Pstats.mean (a wal));
  rm_rf dir

(* Protocol encode/decode cost on this workload's requests and replies
   when no client path recorded it (the offline workload). *)
let protocol_replay m ~wire ~ops ~replies =
  let wb = P.Wbuf.create 256 in
  let enc =
    Array.mapi
      (fun i op ->
        let t0 = now () in
        P.Wbuf.reset wb;
        P.encode_request_into wb { P.id = i; op = wire op };
        now () -. t0)
      ops
  in
  let frames = Array.mapi (fun i r -> P.encode_reply ~id:i r) replies in
  let dec =
    Array.map
      (fun f ->
        let payload = String.sub f 4 (String.length f - 4) in
        let t0 = now () in
        ignore (P.decode_reply payload : int * P.reply);
        now () -. t0)
      frames
  in
  put m "client.encode_ns" "ns" (Pstats.median enc *. 1e9);
  put m "client.decode_ns" "ns" (Pstats.median dec *. 1e9);
  put m "protocol.reply_bytes_mean" "bytes"
    (Pstats.mean (Array.map (fun f -> float_of_int (String.length f - 4)) frames))

(* ------------------------------------------------------------------ *)
(* Results *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("read_p50_us", "us");
    ("read_p90_us", "us");
    ("topk_p50_us", "us");
    ("listing_p50_us", "us");
    ("saturated_rps", "1/s");
    ("server_cpu_us_per_op", "us");
    ("server_peak_rss_mb", "MB");
    ("index_bytes_per_position", "bytes");
  ]

let per_layer_metrics =
  [
    ("client.encode_ns", "ns"); ("client.decode_ns", "ns");
    ("protocol.reply_bytes_mean", "bytes"); ("protocol.encode_reply_us", "us");
    ("server.read_syscalls_per_op", "count"); ("server.write_syscalls_per_op", "count");
    ("server.ctx_switches_per_op", "count"); ("server.minor_words_per_op", "words");
    ("server.batch_size_mean", "count"); ("server.residual_us", "us");
    ("result_cache.hit_ratio", "ratio"); ("result_cache.waits_per_op", "count");
    ("engine_cache.hit_ratio", "ratio"); ("engine.range_search_us", "us");
    ("engine.query_us", "us"); ("engine.topk_us", "us"); ("engine.listing_us", "us");
    ("engine.extract_us", "us"); ("engine.batch_us_per_query", "us");
    ("engine.hits_per_read", "count"); ("engine.range_size_mean", "count");
    ("engine.long_pattern_share", "ratio"); ("workload.repeat_share", "ratio");
    ("segment.insert_us_p50", "us"); ("segment.insert_us_p99", "us");
    ("segment.delete_us_p50", "us"); ("segment.delete_us_p99", "us");
    ("segment.seal_ms", "ms"); ("segment.compact_ms", "ms"); ("segment.compactions", "count");
    ("segment.query_us", "us"); ("segment.live_segments_mean", "count");
    ("segment.tombstone_ratio", "ratio"); ("segment.write_amp", "ratio");
    ("wal.bytes_per_insert", "bytes"); ("build.transform_s", "s");
    ("build.suffix_array_s", "s"); ("build.engine_s", "s"); ("storage.save_s", "s");
    ("storage.open_ms", "ms"); ("server.ready_ms", "ms"); ("storage.file_bytes", "bytes");
    ("trace.overhead_share", "ratio");
  ]

(* BENCHMARK.json names the metrics a run must print; refuse to run if
   it and the tables above disagree. *)
let check_benchmark_json () =
  match Procfs.read_file "BENCHMARK.json" with
  | None -> failwith "BENCHMARK.json not found in the working directory"
  | Some text ->
      let spec = Minijson.parse text in
      let listed key =
        match Minijson.path spec [ key ] with
        | Some (Minijson.Arr items) ->
            List.map
              (fun item ->
                match (Minijson.path item [ "name" ], Minijson.path item [ "unit" ]) with
                | Some (Minijson.Str n), Some (Minijson.Str u) -> (n, u)
                | _ -> failwith ("BENCHMARK.json: bad entry in " ^ key))
              items
        | _ -> failwith ("BENCHMARK.json: no " ^ key)
      in
      if listed "end_to_end" <> e2e_metrics || listed "per_layer" <> per_layer_metrics then
        failwith "BENCHMARK.json and perfbench/main.ml list different metrics"

let git_provenance () =
  let run cmd =
    try
      let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
      let out = try In_channel.input_all ic with _ -> "" in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None
    with _ -> None
  in
  match run "git rev-parse HEAD" with
  | Some commit when commit <> "" ->
      let dirty =
        match run "git status --porcelain --untracked-files=no" with
        | Some "" -> false
        | _ -> true
      in
      (commit, dirty)
  | _ -> ("none (not a git checkout)", false)

type outcome = {
  metrics : metrics;
  attempted : int;
  failed : int;
  mismatches : int;
  notes : (string * string) list;  (** Extra provenance. *)
}

let report ~wl_name ~seed ~seconds ~trace ~work (p : params) o =
  let commit, dirty = git_provenance () in
  let prov =
    [
      ("workload", Printf.sprintf "%S" wl_name);
      ("commit", Printf.sprintf "%S" commit);
      ("dirty", string_of_bool dirty);
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("online_cpus", Printf.sprintf "%S" (String.trim (Option.value ~default:"?" (Procfs.read_file "/sys/devices/system/cpu/online"))));
      ("affinity_cores", string_of_int (Pti_parallel.available_cores ()));
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
      ("n", string_of_int p.n);
      ("offered_read_rate", Printf.sprintf "%.0f" p.read_rate);
      ("offered_write_rate", Printf.sprintf "%.0f" (p.insert_rate +. p.delete_rate));
      ("connections", string_of_int p.conns);
      ("pipeline_depth", string_of_int p.depth);
      ("wal_sync", Printf.sprintf "%S" wal_sync);
    ]
    @ o.notes
  in
  let prov_json =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) prov) ^ "}"
  in
  Printf.printf "# provenance %s\n" prov_json;
  let rows = List.rev o.metrics.rows in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.4f %s\n" name v unit) rows;
  Printf.printf "failed_op_share %.6f (%d of %d ops; %d answer mismatches)\n"
    (ratio (float_of_int o.failed) (float_of_int o.attempted))
    o.failed o.attempted o.mismatches;
  let wanted = if trace = 1 then per_layer_metrics else e2e_metrics in
  let fields =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) rows with
        | Some (_, v, u) when u = unit ->
            Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
              (if Float.is_nan v then 0.0 else v)
              unit
        | Some (_, _, u) -> failwith (Printf.sprintf "metric %s computed in %s, not %s" name u unit)
        | None -> failwith ("metric not computed: " ^ name))
      wanted
  in
  let correct = o.mismatches = 0 && o.failed = 0 in
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
      correct o.attempted o.failed (String.concat "," fields)
  in
  let out = work // "out" in
  mkdir_p out;
  let oc =
    open_out (out // Printf.sprintf "%s-seed%d-trace%d.json" wl_name seed trace)
  in
  Printf.fprintf oc "{\"provenance\":%s,\"result\":%s}\n" prov_json result;
  close_out oc;
  print_endline result;
  correct

(* Documents to insert: a second collection drawn from the seed. *)
let extra_docs ~seed ~count =
  Array.of_list
    (List.map
       (fun d -> U.parse (U.to_text d))
       (D.collection { (D.default ~total:(max 1 count * 40) ~theta) with D.seed = seed + 1_000_003 }))

(* The corpus-churn write rates laid over another workload's reads, for
   the in-process segment replay. Deletes hit preloaded documents. *)
let replay_ops ~seed ~reads ~n_preload ~dur =
  let cp = params Corpus_churn ~smoke:false in
  let reads = Array.of_list reads in
  let ri = ref 0 and ii = ref 0 in
  let rng = Q.state ~seed ~stream:4 () in
  let next_read () =
    let rk, pat = reads.(!ri mod Array.length reads) in
    incr ri;
    Read (rk, pat)
  in
  let next_insert () =
    incr ii;
    Insert (!ii - 1)
  in
  let next_delete () = Delete (Random.State.int rng n_preload) in
  snd
    (schedule ~dur
       [ (cp.read_rate, 0.0, next_read); (cp.insert_rate, 0.5, next_insert); (cp.delete_rate, 0.25, next_delete) ])

(* The most probable window of a document, as a pattern the document
   surely matches above the workload's τ; [None] if no window is. *)
let own_pattern d =
  let len = U.length d in
  let top q =
    Array.fold_left
      (fun (a : U.choice) (b : U.choice) -> if b.U.prob > a.U.prob then b else a)
      (U.choices d q).(0) (U.choices d q)
  in
  let best = ref (0.0, 0, 0) in
  List.iter
    (fun m ->
      for s0 = 0 to len - m do
        let pr = ref 1.0 in
        for q = s0 to s0 + m - 1 do
          pr := !pr *. (top q).U.prob
        done;
        let bp, _, _ = !best in
        if !pr > bp +. 1e-12 then best := (!pr, s0, m)
      done)
    [ 8; 6; 4 ];
  let bp, s0, m = !best in
  if bp <= 0.3 then None else Some (Sym.to_string (Array.init m (fun q -> (top (s0 + q)).U.sym)))

let write_traces ~work ~name tr =
  let out = work // "out" in
  mkdir_p out;
  Trace.write tr ~origin:0.0 (out // (name ^ ".spans.jsonl"))

(* ------------------------------------------------------------------ *)
(* Served workloads *)

type served_setup = {
  secs : float;
  ready_s : float;  (** Server spawn to first Pong. *)
  srv : server;
  cl : client;
  data : dataset;
  files : string list;  (** Containers served, or the corpus directory. *)
  preload_ids : int array;
}

let read_ids path =
  match Procfs.read_file path with
  | None -> [||]
  | Some s ->
      Array.of_list
        (List.filter_map int_of_string_opt
           (List.map String.trim (String.split_on_char '\n' s)))

let setup_served wl p ~pti ~dir ~seed ~wire ~trace =
  rm_rf dir;
  mkdir_p dir;
  let tr = Trace.create ~enabled:trace in
  let t0 = now () in
  let root = Trace.add tr ~name:"setup" ~id:0 ~parent:(-1) ~start:t0 ~stop:t0 in
  let data = gen_dataset ~seed ~n:p.n ~file:(dir // "docs.txt") in
  ignore (Trace.add tr ~name:"setup.generate" ~id:0 ~parent:root ~start:t0 ~stop:(now ()) : int);
  let step name argv =
    let a = now () in
    let out = run_cmd ~dir ~name argv in
    ignore (Trace.add tr ~name:("build." ^ name) ~id:0 ~parent:root ~start:a ~stop:(now ()) : int);
    out
  in
  let tau_arg = [ "--tau-min"; string_of_float tau_min ] in
  let files, preload_ids, serve_args =
    match wl with
    | Corpus_churn ->
        let corpus = dir // "corpus" in
        ignore
          (step "corpus_init"
             (Array.of_list
                ([ pti; "corpus"; "init"; corpus; "--memtable-max"; string_of_int p.memtable_max;
                   "--wal-sync"; wal_sync ] @ tau_arg)));
        let ids_file =
          step "corpus_insert"
            [| pti; "corpus"; "insert"; corpus; "-i"; data.file; "--wal-sync"; wal_sync |]
        in
        ignore (step "corpus_compact" [| pti; "corpus"; "compact"; corpus |]);
        ([ corpus ], read_ids ids_file, [ "--corpus"; corpus ])
    | _ ->
        let g = dir // "general.pti" and l = dir // "listing.pti" in
        ignore (step "general" (Array.of_list ([ pti; "build"; "-i"; data.file; "-o"; g ] @ tau_arg)));
        ignore
          (step "listing"
             (Array.of_list ([ pti; "build"; "-i"; data.file; "--docs"; "-o"; l ] @ tau_arg)));
        ([ g; l ], [||], [ g; l ])
  in
  let t_spawn = now () in
  let srv = start_server ~pti ~dir serve_args in
  let cl = new_client ~port:srv.port ~nconns:p.conns ~wire ~trace in
  ignore (rpc cl P.Ping : int);
  let t1 = now () in
  ignore (Trace.add tr ~name:"server.ready" ~id:0 ~parent:root ~start:t_spawn ~stop:t1 : int);
  Trace.close tr root ~stop:t1;
  ( { secs = t1 -. t0; ready_s = t1 -. t_spawn; srv; cl; data; files; preload_ids },
    tr )

(* Waits, at most 10 s, until the server has used at most one clock
   tick of CPU in each of two successive 100 ms spans: background work
   the open loop set off, such as a compaction after its seals, is done
   and does not land in the saturated phase. *)
let settle pid =
  let deadline = now () +. 10.0 in
  let rec go quiet last =
    if quiet < 2 && now () < deadline then begin
      Unix.sleepf 0.1;
      let cpu = Procfs.cpu_s pid in
      go (if cpu -. last <= 0.011 then quiet + 1 else 0) cpu
    end
  in
  go 0 (Procfs.cpu_s pid)

type snap = { proc : Procfs.sample; stats : Minijson.v }

let snapshot s =
  let text = stats_text s.cl in
  { proc = Procfs.sample s.srv.pid; stats = Minijson.parse text }

let delta a b keys = Minijson.num b.stats keys -. Minijson.num a.stats keys

(* One round of a served run: its open-loop phases, its saturated phase
   (range of request ids and start), and snapshots around each. *)
type round = {
  opens : (Openloop.t * int * int * float) list;
  open0 : snap;
  open1 : snap;
  sat0 : snap;
  sat1 : snap;
  sat : int * int * float;
}

let served wl p ~pti ~work ~seed ~seconds ~trace =
  let wire op =
    let index, listing_index = if wl = Corpus_churn then (0, 0) else (0, 1) in
    match op with
    | Read (Query, pattern) -> P.Query { index; pattern; tau = p.tau }
    | Read (Topk, pattern) -> P.Top_k { index; pattern; tau = p.tau; k = p.k }
    | Read (Listing, pattern) -> P.Listing { index = listing_index; pattern; tau = p.tau }
    | Insert _ -> assert false
    | Delete doc_id -> P.Delete { index = 0; doc_id }
    | Control o -> o
  in
  let insert_docs =
    if p.insert_rate <= 0.0 then [||]
    else extra_docs ~seed ~count:(int_of_float (p.insert_rate *. (float_of_int seconds +. 2.0)) + 16)
  in
  let wire = function
    | Insert i -> P.Insert { index = 0; doc = U.to_text insert_docs.(i) }
    | op -> wire op
  in
  let reps = if trace = 1 then 1 else p.reps in
  let setups =
    List.init reps (fun i ->
        let s, tr = setup_served wl p ~pti ~dir:(work // Printf.sprintf "rep%d" i) ~seed ~wire ~trace:(trace = 1) in
        if i < reps - 1 then begin
          close_client s.cl;
          stop_server s.srv
        end;
        (s, tr))
  in
  let s, setup_tr = List.nth setups (reps - 1) in
  let c = s.cl in
  let m = { rows = [] } in
  put m "setup_s" "s" (Pstats.median (Array.of_list (List.map (fun (s, _) -> s.secs) setups)));
  put m "server.ready_ms" "ms" (s.ready_s *. 1000.0);
  let u = s.data.u in
  let next_read = read_gen p ~seed ~u ~stream:1 in
  let warm_read = read_gen p ~seed ~u ~stream:2 in
  let n_ins = ref 0 and n_del = ref 0 in
  let delete_order =
    let ids = Array.copy s.preload_ids in
    let rng = Q.state ~seed ~stream:3 () in
    for i = Array.length ids - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = ids.(i) in
      ids.(i) <- ids.(j);
      ids.(j) <- t
    done;
    ids
  in
  let next_insert () =
    let i = !n_ins in
    incr n_ins;
    Insert (i mod max 1 (Array.length insert_docs))
  in
  let next_delete () =
    let i = !n_del in
    incr n_del;
    Delete delete_order.(i mod max 1 (Array.length delete_order))
  in
  let writes = [ (p.insert_rate, 0.5, next_insert); (p.delete_rate, 0.25, next_delete) ] in
  (* The saturated phases measure read capacity: reads only, so that
     their figures do not depend on where a seal or a compaction falls.
     The closed loop draws its reads from a stream of their own, drawn
     again after the run for the check. On fresh workloads its patterns
     are one symbol longer than the open loop's, so the two never share
     a result-cache key: the closed loop's million reads would otherwise
     turn the open loop's fresh reads into cache hits. *)
  let sat_p = if p.hot_pool = 0 then { p with lengths = Array.map succ p.lengths } else p in
  let sat_stream () = read_gen sat_p ~seed ~u ~stream:6 in
  let sat_next = sat_stream () in
  (* Warm-up, first with the closed loop until the result cache is in
     its steady state: full (it has begun to evict) or no longer
     growing, at most 15 s. A server that has run for a while is in that
     state; while its cache grows to its 64 MB it has stalled for
     160-335 ms at a time, which is a cost paid once, not per request. *)
  let fill_until = now () +. 15.0 in
  let rec fill prev =
    ignore
      (run_phase c ~phase:0 ~offsets:[||] ~ops:[||] ~closed:(p.depth, sat_next) ~dur:0.5
         ~tracing:false ());
    let stats = (snapshot s).stats in
    let entries = Minijson.num stats [ "result_cache"; "entries" ] in
    if Minijson.num stats [ "result_cache"; "evictions" ] = 0.0 && entries > prev && now () < fill_until
    then fill entries
  in
  let t_fill = now () in
  fill (-1.0);
  let fill_s = now () -. t_fill in
  (* then the open loop for 0.5 s, from a stream of its own *)
  let offsets, ops = schedule ~dur:0.5 [ (p.read_rate, 0.0, warm_read) ] in
  ignore (run_phase c ~phase:0 ~offsets ~ops ~dur:0.5 ~tracing:false ());
  let nrounds = rounds_of seconds in
  let open_dur, sat_dur = round_split seconds in
  let open_phase round kind dur tracing =
    let offsets, ops = schedule ~dur ((p.read_rate, 0.0, next_read) :: writes) in
    run_phase c ~phase:(phase_id ~round kind) ~offsets ~ops ~dur ~tracing ()
  in
  let settle_s = ref 0.0 in
  let round r =
    let open0 = snapshot s in
    let opens =
      if trace = 1 then [ open_phase r 1 (open_dur /. 2.0) false; open_phase r 2 (open_dur /. 2.0) true ]
      else [ open_phase r 1 open_dur false ]
    in
    let open1 = snapshot s in
    let t_settle = now () in
    settle s.srv.pid;
    settle_s := !settle_s +. (now () -. t_settle);
    let sat0 = snapshot s in
    let _, first, last, start =
      run_phase c ~phase:(phase_id ~round:r 3) ~offsets:[||] ~ops:[||] ~closed:(p.depth, sat_next)
        ~dur:sat_dur ~tracing:false ()
    in
    let sat1 = snapshot s in
    { opens; open0; open1; sat0; sat1; sat = (first, last, start) }
  in
  let rounds = List.init nrounds round in
  let phases = List.concat_map (fun r -> r.opens) rounds in
  let ops = ops_by_id c ~closed_stream:(sat_stream ()) in
  let kind i = Column.Int.get c.kind i and phase i = phase_kind (Column.Int.get c.phase i) in
  (* latencies of open-loop phases, from due time, with the due time's
     offset into its phase *)
  let lat_timed ph pred phases =
    let acc = ref [] in
    List.iter
      (fun (ol, first, last, start) ->
        for i = first to last - 1 do
          let slot = Column.Int.get c.slot i in
          if phase i = ph && slot >= 0 && pred (kind i) && is_ok c i then
            acc := (Column.Float.get c.due i -. start, Openloop.latency ol slot) :: !acc
        done)
      phases;
    Array.of_list !acc
  in
  let lat ph pred = Array.map snd (lat_timed ph pred phases) in
  let is_read = is_read_kind in
  let topk = kind_of (Read (Topk, "")) and listing = kind_of (Read (Listing, "")) in
  let reads1 = summarize (lat 1 is_read) in
  describe "read" reads1;
  describe "top_k" (summarize (lat 1 (( = ) topk)));
  describe "listing" (summarize (lat 1 (( = ) listing)));
  let writes1 = summarize (lat 1 (fun k -> not (is_read k))) in
  if writes1.count > 0 then describe "write" writes1;
  (* Each time metric is taken per round, and the run reports the
     trimmed mean over its rounds (see rounds_of). *)
  let per_round f = Pstats.trimmed_mean (Array.of_list (List.map f rounds)) in
  let round_lat pred r = lat_timed 1 pred r.opens in
  List.iteri
    (fun i r ->
      let l = Array.map snd (round_lat is_read r) in
      Printf.printf "  round %d: read p50 %.1f us, max %.1f us; result cache %.0f entries; major GCs %.0f\n" i
        (us (Pstats.median l)) (us (Pstats.quantile l ~q_pcm:100_000))
        (Minijson.num r.sat1.stats [ "result_cache"; "entries" ])
        (delta r.open0 r.sat1 [ "gc"; "major_collections" ]))
    rounds;
  let round_p50 pred = per_round (fun r -> Pstats.median (Array.map snd (round_lat pred r))) in
  put m "read_p50_us" "us" (us (round_p50 is_read));
  (* tails per window of 1000 due reads, median over a round's windows *)
  let windowed q_pcm =
    us
      (per_round (fun r ->
           Pstats.windowed ~width:(1000.0 /. p.read_rate) ~min_count:990 ~q_pcm (round_lat is_read r)))
  in
  put m "read_p90_us" "us" (windowed 90_000);
  put m "read_p99_us" "us" (windowed 99_000);
  put m "topk_p50_us" "us" (us (round_p50 (( = ) topk)));
  put m "listing_p50_us" "us" (us (round_p50 (( = ) listing)));
  if writes1.count > 0 then begin
    put m "write_p50_us" "us" (us writes1.p50);
    put m "write_p99_us" "us" (us writes1.p99)
  end;
  let send_lag =
    let acc = ref [] in
    List.iter
      (fun (ol, first, last, _) ->
        for i = first to last - 1 do
          let slot = Column.Int.get c.slot i in
          if slot >= 0 then acc := Openloop.send_lag ol slot :: !acc
        done)
      phases;
    Array.of_list !acc
  in
  (* reads answered within each round's saturated phase, by finish time *)
  let sat_fins r =
    let first, last, start = r.sat in
    let acc = ref [] in
    for i = first to last - 1 do
      let fin = Column.Float.get c.fin i -. start in
      if is_ok c i && is_read (kind i) && fin <= sat_dur then acc := fin :: !acc
    done;
    Array.of_list !acc
  in
  let sat_reads r = float_of_int (Array.length (sat_fins r)) in
  let sat_total = List.fold_left (fun a r -> a +. sat_reads r) 0.0 rounds in
  put m "saturated_rps" "1/s" (per_round (fun r -> Pstats.windowed_rate ~width:0.1 ~stop:sat_dur (sat_fins r)));
  Printf.printf "  saturated: %.0f reads/s over all saturated phases\n"
    (sat_total /. (sat_dur *. float_of_int nrounds));
  put m "server_cpu_us_per_op" "us"
    (us (per_round (fun r -> ratio (r.sat1.proc.Procfs.cpu_s -. r.sat0.proc.Procfs.cpu_s) (sat_reads r))));
  (* after the first open loop, before any saturated phase: how full
     the result cache gets later depends on how fast the saturated
     phases ran *)
  put m "server_peak_rss_mb" "MB" ((List.hd rounds).open1.proc.Procfs.hwm_kb /. 1024.0);
  (* per-layer counters from the server's /proc and Stats, summed over
     the rounds' saturated (or open-loop) phases *)
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rounds in
  let per_sat f = ratio (sum (fun r -> f r.sat1 -. f r.sat0)) sat_total in
  let stat keys snap = Minijson.num snap.stats keys in
  put m "server.read_syscalls_per_op" "count" (per_sat (fun s -> s.proc.Procfs.syscr));
  put m "server.write_syscalls_per_op" "count" (per_sat (fun s -> s.proc.Procfs.syscw));
  put m "server.minor_words_per_op" "words" (per_sat (stat [ "gc"; "minor_words" ]));
  put m "server.batch_size_mean" "count"
    (ratio
       (sum (fun r -> delta r.sat0 r.sat1 [ "batches"; "jobs" ]))
       (sum (fun r -> delta r.sat0 r.sat1 [ "batches"; "count" ])));
  let open_ops =
    List.fold_left (fun a (_, first, last, _) -> a + (last - first)) 0 phases |> float_of_int
  in
  let cs (x : snap) = x.proc.Procfs.vol_cs +. x.proc.Procfs.invol_cs in
  put m "server.ctx_switches_per_op" "count" (ratio (sum (fun r -> cs r.open1 -. cs r.open0)) open_ops);
  let over_open keys = sum (fun r -> delta r.open0 r.open1 keys) in
  let rc k = over_open [ "result_cache"; k ] in
  put m "result_cache.hit_ratio" "ratio" (ratio (rc "hits") (rc "hits" +. rc "misses"));
  put m "result_cache.waits_per_op" "count" (ratio (rc "single_flight_waits") open_ops);
  let ec k = over_open [ "cache"; k ] in
  put m "engine_cache.hit_ratio" "ratio" (ratio (ec "hits") (ec "hits" +. ec "misses"));
  (* repetition and reply size of the measured reads *)
  let seen = Hashtbl.create 4096 in
  let repeats = ref 0 and measured = ref 0 and hits = ref 0 and bytes = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Read (rk, pat) when phase i >= 0 ->
          let key = read_key rk pat in
          if phase i > 0 then begin
            incr measured;
            hits := !hits + Column.Int.get c.hits i;
            bytes := !bytes + Column.Int.get c.bytes i;
            if Hashtbl.mem seen key then incr repeats
          end;
          Hashtbl.replace seen key ()
      | _ -> ())
    ops;
  put m "workload.repeat_share" "ratio" (ratio (float_of_int !repeats) (float_of_int !measured));
  put m "engine.hits_per_read" "count" (ratio (float_of_int !hits) (float_of_int !measured));
  put m "protocol.reply_bytes_mean" "bytes" (ratio (float_of_int !bytes) (float_of_int !measured));
  (* traced phase: client spans *)
  if trace = 1 then begin
    let p50 name = Pstats.median (Trace.self_times_of c.tr ~name) in
    put m "client.encode_ns" "ns" (p50 "client.encode" *. 1e9);
    put m "client.decode_ns" "ns" (p50 "client.decode" *. 1e9);
    let lat2 = Pstats.median (lat 2 is_read) in
    put m "trace.overhead_share" "ratio" (ratio (lat2 -. reads1.p50) reads1.p50)
  end;
  let index_bytes = List.fold_left (fun a f -> a + dir_bytes f) 0 s.files in
  put m "storage.file_bytes" "bytes" (float_of_int index_bytes);
  let mismatches = ref 0 in
  let notes =
    [
      ("send_lag_p50_us", Printf.sprintf "%.1f" (us (Pstats.quantile send_lag ~q_pcm:50_000)));
      ("send_lag_p90_us", Printf.sprintf "%.1f" (us (Pstats.quantile send_lag ~q_pcm:90_000)));
      ("send_lag_p99_us", Printf.sprintf "%.1f" (us (Pstats.quantile send_lag ~q_pcm:99_000)));
      ("send_lag_max_us", Printf.sprintf "%.1f" (us (Pstats.quantile send_lag ~q_pcm:100_000)));
      ("fill_s", Printf.sprintf "%.2f" fill_s);
      ("settle_s", Printf.sprintf "%.2f" !settle_s);
      ("rounds", string_of_int nrounds);
    ]
  in
  let failure_notes () =
    [
      ( "failures",
        "{"
        ^ String.concat ","
            (Hashtbl.fold (fun reason n acc -> Printf.sprintf "%S:%d" reason !n :: acc) c.failures [])
        ^ "}" );
    ]
  in
  let measured_reads =
    let acc = ref [] in
    for i = Array.length ops - 1 downto 0 do
      match ops.(i) with
      | Read (rk, pat) when phase i = 1 || phase i = 2 -> acc := (rk, pat) :: !acc
      | _ -> ()
    done;
    List.filteri (fun i _ -> i < replay_reads) !acc
  in
  (* correctness, off the clock *)
  let live_positions, handles =
    if wl = Corpus_churn then begin
      (* the final corpus against a monolithic listing index over the
         documents that should be live *)
      let live = Hashtbl.create 4096 and dead = Hashtbl.create 1024 in
      Array.iteri (fun i id -> Hashtbl.replace live id s.data.docs.(i)) s.preload_ids;
      let acked_inserts = ref [] in
      Array.iteri
        (fun i op ->
          let ack = Column.Int.get c.ack i in
          match op with
          | Insert j when is_ok c i ->
              if Hashtbl.mem live ack then begin
                incr mismatches;
                fail c i "insert acknowledged with a reused id"
              end;
              Hashtbl.replace live ack insert_docs.(j);
              acked_inserts := ack :: !acked_inserts
          | Delete id when is_ok c i && ack = 1 -> Hashtbl.replace dead id ()
          | _ -> ())
        ops;
      Hashtbl.iter (fun id () -> Hashtbl.remove live id) dead;
      let ids = List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) live []) in
      let id_of = Array.of_list ids in
      let docs = List.map (Hashtbl.find live) ids in
      let l = L.build ~tau_min docs in
      let checks =
        List.filter_map
          (fun id ->
            if Hashtbl.mem dead id then None
            else Option.map (fun pat -> (Some id, pat)) (own_pattern (Hashtbl.find live id)))
          !acked_inserts
        @ List.filteri (fun i _ -> i mod 10 = 0) (List.map (fun (_, pat) -> (None, pat)) measured_reads)
      in
      let first = c.nreq in
      List.iter
        (fun (_, pat) ->
          send c ~conn:0 ~phase:check_phase ~due:Float.nan ~slot:(-1) (Read (Listing, pat)))
        checks;
      drain c ~deadline:(now () +. 60.0);
      List.iteri
        (fun i (must, pat) ->
          let id = first + i in
          let answer = Option.value ~default:[] (Hashtbl.find_opt c.answers id) in
          let want =
            List.map
              (fun (d, lp) -> (id_of.(d), Logp.to_log lp))
              (L.query l ~pattern:(Sym.of_string pat) ~tau:p.tau)
          in
          let visible = match must with Some id -> List.mem_assoc id answer | None -> true in
          if is_ok c id && not (visible && equivalent ~tau:p.tau answer want) then begin
            incr mismatches;
            fail c id
              (if visible then "final answer differs from the monolithic index"
               else "acknowledged insert not visible")
          end)
        checks;
      ( List.fold_left (fun a d -> a + U.length d) 0 docs,
        { general = None; listing = l } )
    end
    else begin
      (* every reply's digest against the digest of a direct query *)
      let g = G.load (List.nth s.files 0) and l = L.load (List.nth s.files 1) in
      let h = { general = Some g; listing = l } in
      let want = Hashtbl.create 4096 in
      Array.iteri
        (fun i op ->
          match op with
          | Read (rk, pat) when phase i >= 0 && is_ok c i ->
              let key = read_key rk pat in
              let d =
                match Hashtbl.find_opt want key with
                | Some d -> d
                | None ->
                    let d =
                      digest_string (P.encode_reply_body (P.Hits (wire_hits (answer h p rk pat))))
                    in
                    Hashtbl.replace want key d;
                    d
              in
              if d <> Column.Int.get c.digest i then begin
                incr mismatches;
                fail c i "reply differs from a direct query"
              end
          | _ -> ())
        ops;
      (2 * s.data.positions, h)
    end
  in
  put m "index_bytes_per_position" "bytes"
    (ratio (float_of_int index_bytes) (float_of_int live_positions));
  close_client c;
  stop_server s.srv;
  if trace = 1 then begin
    let rtr = Trace.create ~enabled:true in
    let call_p50, enc_p50 = engine_replay m p handles rtr measured_reads in
    let waits = ref [] in
    for i = 0 to Array.length ops - 1 do
      if phase i = 2 && Column.Int.get c.slot i >= 0 && is_ok c i && is_read (kind i) then
        waits := (Column.Float.get c.t_read i -. Column.Float.get c.t_wr i) :: !waits
    done;
    let wait_p50 = Pstats.median (Array.of_list !waits) in
    put m "server.residual_us" "us" (us (wait_p50 -. call_p50 -. enc_p50));
    build_replay m ~dir:work ~u ~backend:E.Packed rtr;
    let ops =
      if wl = Corpus_churn then
        Array.of_list
          (List.filteri (fun i _ -> phase i = 1 || phase i = 2) (Array.to_list ops))
      else replay_ops ~seed ~reads:measured_reads ~n_preload:(Array.length s.data.docs)
          ~dur:(open_dur *. float_of_int nrounds)
    in
    let inserts = if wl = Corpus_churn then insert_docs else extra_docs ~seed ~count:(Array.length ops) in
    segment_replay m p ~dir:(work // "replay-corpus") ~preload:s.data.docs ~inserts ~ops rtr;
    write_traces ~work ~name:"client" c.tr;
    write_traces ~work ~name:"setup" setup_tr;
    write_traces ~work ~name:"replay" rtr
  end;
  Hashtbl.iter (fun reason n -> Printf.printf "  failed: %d x %s\n" !n reason) c.failures;
  let attempted = ref 0 and failed = ref 0 in
  for i = 0 to c.nreq - 1 do
    if phase i > 0 then begin
      incr attempted;
      if not (is_ok c i) then incr failed
    end
  done;
  {
    metrics = m;
    attempted = !attempted;
    failed = !failed;
    mismatches = !mismatches;
    notes = notes @ failure_notes ();
  }

(* ------------------------------------------------------------------ *)
(* The offline workload: the library in-process, no server. *)

(* One round of the offline workload: process samples before and after
   its direct calls and after its saturated phase, and the saturated
   phase's queries, batch end times and minor words. *)
type offline_round = {
  before : Procfs.sample;
  opened : Procfs.sample;
  after : Procfs.sample;
  queries : float;
  ends : float array;
  minor_words : float;
}

let offline p ~pti ~work ~seed ~seconds ~trace =
  let reps = if trace = 1 then 1 else p.reps in
  let setup_tr = Trace.create ~enabled:(trace = 1) in
  let setup i =
    let dir = work // Printf.sprintf "rep%d" i in
    rm_rf dir;
    mkdir_p dir;
    let t0 = now () in
    let root = Trace.add setup_tr ~name:"setup" ~id:i ~parent:(-1) ~start:t0 ~stop:t0 in
    let span name a = ignore (Trace.add setup_tr ~name ~id:i ~parent:root ~start:a ~stop:(now ()) : int) in
    let data = gen_dataset ~seed ~n:p.n ~file:(dir // "docs.txt") in
    span "setup.generate" t0;
    let gf = dir // "general.pti" and lf = dir // "listing.pti" in
    let common = [ "--tau-min"; string_of_float tau_min; "--backend"; "succinct" ] in
    let t = now () in
    ignore (run_cmd ~dir ~name:"general" (Array.of_list ([ pti; "build"; "-i"; data.file; "-o"; gf ] @ common)));
    span "build.general" t;
    let t = now () in
    ignore
      (run_cmd ~dir ~name:"listing"
         (Array.of_list ([ pti; "build"; "-i"; data.file; "--docs"; "-o"; lf ] @ common)));
    span "build.listing" t;
    let t_open = now () in
    let g = G.load ~verify:true gf and l = L.load ~verify:true lf in
    span "storage.open" t_open;
    let first = Q.pattern (Q.state ~seed ~stream:5 ()) data.u ~m:4 in
    ignore (G.query g ~pattern:first ~tau:p.tau);
    let t1 = now () in
    Trace.close setup_tr root ~stop:t1;
    (t1 -. t0, t1 -. t_open, data, { general = Some g; listing = l }, [ gf; lf ])
  in
  let setups = List.init reps setup in
  let _, ready_s, data, h, files = List.nth setups (reps - 1) in
  let m = { rows = [] } in
  put m "setup_s" "s" (Pstats.median (Array.of_list (List.map (fun (s, _, _, _, _) -> s) setups)));
  put m "server.ready_ms" "ms" (ready_s *. 1000.0);
  let g = Option.get h.general in
  let next_read = read_gen p ~seed ~u:data.u ~stream:1 in
  let tr = Trace.create ~enabled:(trace = 1) in
  (* Every answer is kept as a digest, in op order, with the index of
     the direct call that gave it (-1 for a batched query); the ops
     themselves are drawn again from the seed for the check, so the
     bookkeeping stays small next to the index being measured. *)
  let answers = Column.Int.create () and answer_call = Column.Int.create () in
  let n_answers = ref 0 in
  let keep ~call a =
    let k = !n_answers in
    Column.Int.reserve answers (k + 1);
    Column.Int.reserve answer_call (k + 1);
    Column.Int.set answers k (digest_hits a);
    Column.Int.set answer_call k call;
    n_answers := k + 1
  in
  (* direct calls at a fixed rate, each timed on its own *)
  let rate = 50_000.0 in
  let cap = int_of_float (rate *. float_of_int seconds) + 16 in
  let c_phase = Array.make cap 0 and c_kind = Array.make cap Query and c_round = Array.make cap 0 in
  let c_start = Array.make cap 0.0 and c_dur = Array.make cap 0.0 and c_hits = Array.make cap 0 in
  let n_calls = ref 0 in
  let direct ~round ~phase ~dur next =
    let start = now () in
    let i = ref 0 in
    while start +. (float_of_int !i /. rate) < start +. dur do
      let due = start +. (float_of_int !i /. rate) in
      while now () < due do () done;
      incr i;
      match next () with
      | Read (rk, pat) ->
          let t0 = now () in
          let hits = answer h p rk pat in
          let t1 = now () in
          if phase > 0 then begin
            let k = !n_calls in
            c_phase.(k) <- phase;
            c_round.(k) <- round;
            c_kind.(k) <- rk;
            c_start.(k) <- t0 -. start;
            c_dur.(k) <- t1 -. t0;
            c_hits.(k) <- List.length hits;
            incr n_calls;
            keep ~call:k hits;
            if phase = 2 then
              ignore (Trace.add tr ~name:("direct." ^ rk_name rk) ~id:k ~parent:(-1) ~start:t0 ~stop:t1 : int)
          end
      | Insert _ | Delete _ | Control _ -> ()
    done
  in
  (* saturated: General_index.query_batch across the cores; returns the
     queries answered and the batches' end times from the phase start *)
  let domains = Pti_parallel.available_cores () and batch = 64 in
  let saturated ~dur =
    let t_sat = now () in
    let queries = ref 0 and batch_ends = ref [] in
    while now () < t_sat +. dur do
      let pats =
        Array.init batch (fun _ ->
            match next_read () with
            | Read (_, pat) -> (Sym.of_string pat, p.tau)
            | Insert _ | Delete _ | Control _ -> assert false)
      in
      Array.iter (keep ~call:(-1)) (G.query_batch ~domains g ~patterns:pats);
      queries := !queries + batch;
      batch_ends := (now () -. t_sat) :: !batch_ends
    done;
    (float_of_int !queries, Array.of_list !batch_ends)
  in
  direct ~round:0 ~phase:0 ~dur:0.3 (read_gen p ~seed ~u:data.u ~stream:2);
  let nrounds = rounds_of seconds in
  let open_dur, sat_dur = round_split seconds in
  let rounds =
    List.init nrounds (fun round ->
        let before = Procfs.self () in
        if trace = 1 then begin
          direct ~round ~phase:1 ~dur:(open_dur /. 2.0) next_read;
          direct ~round ~phase:2 ~dur:(open_dur /. 2.0) next_read
        end
        else direct ~round ~phase:1 ~dur:open_dur next_read;
        let opened = Procfs.self () and gc0 = Gc.quick_stat () in
        let queries, ends = saturated ~dur:sat_dur in
        let after = Procfs.self () and gc1 = Gc.quick_stat () in
        { before; opened; after; queries; ends; minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words })
  in
  let nc = !n_calls in
  let calls pred = Array.of_list (List.filter pred (List.init nc Fun.id)) in
  let durs ix = Array.map (fun k -> c_dur.(k)) ix in
  let phase1 = calls (fun k -> c_phase.(k) = 1) in
  let reads1 = summarize (durs phase1) in
  describe "read" reads1;
  (* per-round values, trimmed mean over the rounds (see rounds_of) *)
  let per_round f = Pstats.trimmed_mean (Array.init nrounds f) in
  let round_calls r pred = calls (fun k -> c_phase.(k) = 1 && c_round.(k) = r && pred c_kind.(k)) in
  let round_p50 pred = per_round (fun r -> Pstats.median (durs (round_calls r pred))) in
  put m "read_p50_us" "us" (us (round_p50 (fun _ -> true)));
  let windowed q_pcm =
    us
      (per_round (fun r ->
           Pstats.windowed ~width:(1000.0 /. rate) ~min_count:990 ~q_pcm
             (Array.map (fun k -> (c_start.(k), c_dur.(k))) (round_calls r (fun _ -> true)))))
  in
  put m "read_p90_us" "us" (windowed 90_000);
  put m "read_p99_us" "us" (windowed 99_000);
  put m "topk_p50_us" "us" (us (round_p50 (( = ) Topk)));
  put m "listing_p50_us" "us" (us (round_p50 (( = ) Listing)));
  let rounds = Array.of_list rounds in
  let sum f = Array.fold_left (fun a r -> a +. f r) 0.0 rounds in
  let q = sum (fun r -> r.queries) in
  put m "saturated_rps" "1/s"
    (per_round (fun r ->
         float_of_int batch *. Pstats.windowed_rate ~width:0.1 ~stop:sat_dur rounds.(r).ends));
  Printf.printf "  saturated: %.0f queries/s over all saturated phases\n"
    (q /. (sat_dur *. float_of_int nrounds));
  let sat_delta f r = f r.after -. f r.opened in
  put m "server_cpu_us_per_op" "us"
    (us (per_round (fun r -> ratio (sat_delta (fun s -> s.Procfs.cpu_s) rounds.(r)) rounds.(r).queries)));
  put m "server_peak_rss_mb" "MB" (rounds.(0).opened.Procfs.hwm_kb /. 1024.0);
  let per_sat f = ratio (sum (sat_delta f)) q in
  put m "server.read_syscalls_per_op" "count" (per_sat (fun s -> s.Procfs.syscr));
  put m "server.write_syscalls_per_op" "count" (per_sat (fun s -> s.Procfs.syscw));
  put m "server.minor_words_per_op" "words" (ratio (sum (fun r -> r.minor_words)) q);
  put m "server.batch_size_mean" "count" (float_of_int batch);
  let cs (s : Procfs.sample) = s.vol_cs +. s.invol_cs in
  put m "server.ctx_switches_per_op" "count"
    (ratio (sum (fun r -> cs r.opened -. cs r.before)) (float_of_int nc));
  put m "result_cache.hit_ratio" "ratio" 0.0;
  put m "result_cache.waits_per_op" "count" 0.0;
  put m "engine_cache.hit_ratio" "ratio" 0.0;
  let bytes = List.fold_left (fun a f -> a + dir_bytes f) 0 files in
  put m "storage.file_bytes" "bytes" (float_of_int bytes);
  put m "index_bytes_per_position" "bytes" (ratio (float_of_int bytes) (float_of_int (2 * data.positions)));
  (* the same ops again, from the seed: repetition, and the check of
     every answer against packed indexes built in-process from the same
     parsed input *)
  let reference =
    { general = Some (G.build ~tau_min data.u); listing = L.build ~tau_min (Array.to_list data.docs) }
  in
  let again = read_gen p ~seed ~u:data.u ~stream:1 in
  let keys = Hashtbl.create 4096 and repeats = ref 0 and hits = ref 0 in
  let mismatches = ref 0 and reads = ref [] in
  for k = 0 to !n_answers - 1 do
    match again () with
    | Read (rk, pat) ->
        let call = Column.Int.get answer_call k in
        let rk = if call >= 0 then rk else Query in
        if call >= 0 then begin
          let key = read_key rk pat in
          if Hashtbl.mem keys key then incr repeats;
          Hashtbl.replace keys key ();
          hits := !hits + c_hits.(call);
          if call < replay_reads then reads := (rk, pat) :: !reads
        end;
        if digest_hits (answer reference p rk pat) <> Column.Int.get answers k then incr mismatches
    | Insert _ | Delete _ | Control _ -> assert false
  done;
  put m "workload.repeat_share" "ratio" (ratio (float_of_int !repeats) (float_of_int nc));
  put m "engine.hits_per_read" "count" (ratio (float_of_int !hits) (float_of_int nc));
  if trace = 1 then begin
    let reads = List.rev !reads in
    let rtr = Trace.create ~enabled:true in
    let call_p50, _ = engine_replay m p h rtr reads in
    put m "server.residual_us" "us" (us (reads1.p50 -. call_p50));
    let p2 = Pstats.median (durs (calls (fun k -> c_phase.(k) = 2))) in
    put m "trace.overhead_share" "ratio" (ratio (p2 -. reads1.p50) reads1.p50);
    let ops = Array.of_list (List.map (fun (rk, pat) -> Read (rk, pat)) reads) in
    let wire = function
      | Read (Query, pattern) -> P.Query { index = 0; pattern; tau = p.tau }
      | Read (Topk, pattern) -> P.Top_k { index = 0; pattern; tau = p.tau; k = p.k }
      | Read (Listing, pattern) -> P.Listing { index = 1; pattern; tau = p.tau }
      | Insert _ | Delete _ | Control _ -> assert false
    in
    let replies =
      Array.of_list (List.map (fun (rk, pat) -> P.Hits (wire_hits (answer h p rk pat))) reads)
    in
    protocol_replay m ~wire ~ops ~replies;
    build_replay m ~dir:work ~u:data.u ~backend:E.Succinct rtr;
    let ops =
      replay_ops ~seed ~reads ~n_preload:(Array.length data.docs) ~dur:(open_dur *. float_of_int nrounds)
    in
    segment_replay m p ~dir:(work // "replay-corpus") ~preload:data.docs
      ~inserts:(extra_docs ~seed ~count:(Array.length ops)) ~ops rtr;
    write_traces ~work ~name:"direct" tr;
    write_traces ~work ~name:"setup" setup_tr;
    write_traces ~work ~name:"replay" rtr
  end;
  {
    metrics = m;
    attempted = !n_answers;
    failed = !mismatches;
    mismatches = !mismatches;
    notes =
      [
        ("direct_call_rate", Printf.sprintf "%.0f" rate);
        ("rounds", string_of_int nrounds);
        ("domains", string_of_int domains);
        ("batch", string_of_int batch);
      ];
  }

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload static-fresh|static-hot|corpus-churn|offline-succinct \
     --seed N --seconds S --trace 0|1 --pti PATH --work DIR [--smoke]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let wl_name = get "workload" in
  let wl = match List.assoc_opt wl_name workload_names with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let pti = get "pti" and smoke = List.mem_assoc "smoke" opts in
  let work = get "work" // Printf.sprintf "%s-seed%d" wl_name seed in
  at_exit kill_children;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Clock.set_timer_slack_ns 1000;
  (* The generator keeps every request's record for the off-the-clock
     checks. A major collection over that growing heap runs on the core
     the server shares, so collect rarely, and let short-lived values die
     in a large minor heap. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 1000; minor_heap_size = 1 lsl 20 };
  (* stay inside the 180 s a run may take, whatever happens *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> prerr_endline "perfbench: watchdog expired"; exit 3));
  ignore (Unix.alarm 170 : int);
  let p = params wl ~smoke in
  let run () =
    check_benchmark_json ();
    rm_rf work;
    mkdir_p work;
    match wl with
    | Offline_succinct -> offline p ~pti ~work ~seed ~seconds ~trace
    | _ -> served wl p ~pti ~work ~seed ~seconds ~trace
  in
  match run () with
  | o ->
      let correct = report ~wl_name ~seed ~seconds ~trace ~work p o in
      Array.iter
        (fun f -> if String.length f > 3 && String.sub f 0 3 = "rep" then rm_rf (work // f))
        (try Sys.readdir work with Sys_error _ -> [||]);
      exit (if correct then 0 else 1)
  | exception e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
