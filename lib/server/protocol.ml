(* Wire protocol: framed binary with an NDJSON fallback. See the mli
   for the frame and message layouts. *)

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

type op =
  | Query of { index : int; pattern : string; tau : float }
  | Top_k of { index : int; pattern : string; tau : float; k : int }
  | Listing of { index : int; pattern : string; tau : float }
  | Stats
  | Ping
  | Slow of int
  | Insert of { index : int; doc : string }
  | Delete of { index : int; doc_id : int }
  | Flush of { index : int }

type request = { id : int; op : op }

type err =
  | Bad_request
  | Bad_index
  | Overloaded
  | Timeout
  | Server_error
  | Shutting_down

type reply =
  | Hits of (int * float) list
  | Error of err * string
  | Stats_reply of string
  | Pong
  | Ack of int

let err_to_string = function
  | Bad_request -> "bad_request"
  | Bad_index -> "bad_index"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Server_error -> "server_error"
  | Shutting_down -> "shutting_down"

let err_of_string = function
  | "bad_request" -> Some Bad_request
  | "bad_index" -> Some Bad_index
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "server_error" -> Some Server_error
  | "shutting_down" -> Some Shutting_down
  | _ -> None

let op_kind = function
  | Query _ -> "query"
  | Top_k _ -> "top_k"
  | Listing _ -> "listing"
  | Stats -> "stats"
  | Ping -> "ping"
  | Slow _ -> "slow"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Flush _ -> "flush"

let max_frame = 16 * 1024 * 1024
let max_json_line = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Reusable frame writer. A [Wbuf.t] is a growable byte buffer that is
   reset (not reallocated) between messages, so steady-state encoding
   through a pooled Wbuf allocates nothing: the per-connection and
   per-client buffers reach their high-water mark once and are reused
   for every subsequent frame. Unlike [Buffer], the underlying bytes
   are exposed for in-place length-header patching and copy-free
   [write(2)] calls. *)

module Wbuf = struct
  type t = { mutable data : Bytes.t; mutable len : int }

  let create n = { data = Bytes.create (Stdlib.max 16 n); len = 0 }
  let reset b = b.len <- 0
  let length b = b.len
  let contents b = Bytes.sub_string b.data 0 b.len

  let ensure b extra =
    let need = b.len + extra in
    if need > Bytes.length b.data then begin
      let cap = ref (Stdlib.max 16 (2 * Bytes.length b.data)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let d = Bytes.create !cap in
      Bytes.blit b.data 0 d 0 b.len;
      b.data <- d
    end

  let add_u8 b v =
    ensure b 1;
    Bytes.unsafe_set b.data b.len (Char.unsafe_chr (v land 0xff));
    b.len <- b.len + 1

  let add_u16 b v =
    ensure b 2;
    Bytes.set_uint16_be b.data b.len (v land 0xffff);
    b.len <- b.len + 2

  let add_u32 b v =
    ensure b 4;
    Bytes.set_int32_be b.data b.len (Int32.of_int v);
    b.len <- b.len + 4

  let add_i64 b v =
    ensure b 8;
    Bytes.set_int64_be b.data b.len (Int64.of_int v);
    b.len <- b.len + 8

  let add_f64 b v =
    ensure b 8;
    Bytes.set_int64_be b.data b.len (Int64.bits_of_float v);
    b.len <- b.len + 8

  let add_string b s =
    let n = String.length s in
    ensure b n;
    Bytes.blit_string s 0 b.data b.len n;
    b.len <- b.len + n

  (* the raw backing store, for write(2) / header patching; only valid
     until the next [ensure]-growing add *)
  let unsafe_data b = b.data
end

let put_u8 = Wbuf.add_u8
let put_u16 = Wbuf.add_u16
let put_u32 = Wbuf.add_u32
let put_i64 = Wbuf.add_i64
let put_f64 = Wbuf.add_f64

let put_str16 b s =
  if String.length s > 0xffff then fail "string field exceeds 65535 bytes";
  put_u16 b (String.length s);
  Wbuf.add_string b s

type cursor = { payload : string; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then fail "truncated payload"

let get_u8 c =
  need c 1;
  let v = Char.code c.payload.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = String.get_uint16_be c.payload c.pos in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.payload c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_be c.payload c.pos) in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_be c.payload c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str16 c =
  let n = get_u16 c in
  need c n;
  let s = String.sub c.payload c.pos n in
  c.pos <- c.pos + n;
  s

(* Append one frame to [b]: reserve the 4-byte header, let [payload_of]
   append the payload, then patch the length in place. On failure the
   partial frame is rolled back so a pooled buffer is never left
   holding torn bytes. *)
let frame_into b payload_of =
  Wbuf.ensure b 4;
  let hdr = b.Wbuf.len in
  b.Wbuf.len <- hdr + 4;
  (try payload_of b
   with e ->
     b.Wbuf.len <- hdr;
     raise e);
  let len = b.Wbuf.len - hdr - 4 in
  if len > max_frame then begin
    b.Wbuf.len <- hdr;
    fail "frame exceeds max_frame"
  end;
  Bytes.set_int32_be b.Wbuf.data hdr (Int32.of_int len)

(* Request payload: op tag u8, id u32, then per-op fields. *)

let tag_query = 1
let tag_top_k = 2
let tag_listing = 3
let tag_stats = 4
let tag_ping = 5
let tag_slow = 6
let tag_insert = 7
let tag_delete = 8
let tag_flush = 9

let encode_request_into wb { id; op } =
  frame_into wb (fun b ->
      let tag, rest =
        match op with
        | Query { index; pattern; tau } ->
            ( tag_query,
              fun () ->
                put_u16 b index;
                put_f64 b tau;
                put_str16 b pattern )
        | Top_k { index; pattern; tau; k } ->
            ( tag_top_k,
              fun () ->
                put_u16 b index;
                put_f64 b tau;
                put_u32 b k;
                put_str16 b pattern )
        | Listing { index; pattern; tau } ->
            ( tag_listing,
              fun () ->
                put_u16 b index;
                put_f64 b tau;
                put_str16 b pattern )
        | Stats -> (tag_stats, fun () -> ())
        | Ping -> (tag_ping, fun () -> ())
        | Slow ms -> (tag_slow, fun () -> put_u32 b ms)
        | Insert { index; doc } ->
            ( tag_insert,
              fun () ->
                put_u16 b index;
                put_str16 b doc )
        | Delete { index; doc_id } ->
            ( tag_delete,
              fun () ->
                put_u16 b index;
                put_i64 b doc_id )
        | Flush { index } -> (tag_flush, fun () -> put_u16 b index)
      in
      put_u8 b tag;
      put_u32 b id;
      rest ())

let encode_request req =
  let b = Wbuf.create 64 in
  encode_request_into b req;
  Wbuf.contents b

let decode_request_sub payload ~pos ~len =
  let c = { payload; pos; limit = pos + len } in
  let tag = get_u8 c in
  let id = get_u32 c in
  let op =
    if tag = tag_query then begin
      let index = get_u16 c in
      let tau = get_f64 c in
      let pattern = get_str16 c in
      Query { index; pattern; tau }
    end
    else if tag = tag_top_k then begin
      let index = get_u16 c in
      let tau = get_f64 c in
      let k = get_u32 c in
      let pattern = get_str16 c in
      Top_k { index; pattern; tau; k }
    end
    else if tag = tag_listing then begin
      let index = get_u16 c in
      let tau = get_f64 c in
      let pattern = get_str16 c in
      Listing { index; pattern; tau }
    end
    else if tag = tag_stats then Stats
    else if tag = tag_ping then Ping
    else if tag = tag_slow then Slow (get_u32 c)
    else if tag = tag_insert then begin
      let index = get_u16 c in
      let doc = get_str16 c in
      Insert { index; doc }
    end
    else if tag = tag_delete then begin
      let index = get_u16 c in
      let doc_id = get_i64 c in
      Delete { index; doc_id }
    end
    else if tag = tag_flush then Flush { index = get_u16 c }
    else fail "unknown request tag %d" tag
  in
  if c.pos <> c.limit then fail "trailing bytes in request";
  { id; op }

let decode_request payload =
  decode_request_sub payload ~pos:0 ~len:(String.length payload)

(* Reply payload: tag u8, id u32, then per-tag fields. *)

let tag_hits = 10
let tag_error = 11
let tag_stats_reply = 12
let tag_pong = 13
let tag_ack = 14

let err_code = function
  | Bad_request -> 0
  | Bad_index -> 1
  | Overloaded -> 2
  | Timeout -> 3
  | Server_error -> 4
  | Shutting_down -> 5

let err_of_code = function
  | 0 -> Bad_request
  | 1 -> Bad_index
  | 2 -> Overloaded
  | 3 -> Timeout
  | 4 -> Server_error
  | 5 -> Shutting_down
  | c -> fail "unknown error code %d" c

let reply_tag = function
  | Hits _ -> tag_hits
  | Error _ -> tag_error
  | Stats_reply _ -> tag_stats_reply
  | Pong -> tag_pong
  | Ack _ -> tag_ack

(* The per-reply payload after the (tag, id) prefix. Both the direct
   encoder and the result cache go through this one writer, which is
   what makes a cached body spliced after a fresh (tag, id) prefix
   byte-identical to encoding the reply from scratch. *)
let put_reply_body b reply =
  match reply with
  | Hits hits ->
      put_u32 b (List.length hits);
      List.iter
        (fun (key, logp) ->
          put_i64 b key;
          put_f64 b logp)
        hits
  | Error (e, msg) ->
      put_u8 b (err_code e);
      put_str16 b msg
  | Stats_reply s ->
      put_u32 b (String.length s);
      Wbuf.add_string b s
  | Pong -> ()
  | Ack v -> put_i64 b v

let encode_reply_into wb ~id reply =
  frame_into wb (fun b ->
      put_u8 b (reply_tag reply);
      put_u32 b id;
      put_reply_body b reply)

let encode_reply ~id reply =
  let b = Wbuf.create 64 in
  encode_reply_into b ~id reply;
  Wbuf.contents b

let encode_reply_body reply =
  let b = Wbuf.create 64 in
  put_reply_body b reply;
  Wbuf.contents b

let encode_cached_reply_into wb ~id ~tag ~body =
  frame_into wb (fun b ->
      put_u8 b tag;
      put_u32 b id;
      Wbuf.add_string b body)

let get_reply_body c tag =
  if tag = tag_hits then begin
    let n = get_u32 c in
    if n * 16 > c.limit - c.pos then fail "hit count out of bounds";
    let hits = List.init n (fun _ ->
        let key = get_i64 c in
        let logp = get_f64 c in
        (key, logp))
    in
    Hits hits
  end
  else if tag = tag_error then begin
    let e = err_of_code (get_u8 c) in
    let msg = get_str16 c in
    Error (e, msg)
  end
  else if tag = tag_stats_reply then begin
    let n = get_u32 c in
    need c n;
    let s = String.sub c.payload c.pos n in
    c.pos <- c.pos + n;
    Stats_reply s
  end
  else if tag = tag_pong then Pong
  else if tag = tag_ack then Ack (get_i64 c)
  else fail "unknown reply tag %d" tag

let decode_reply payload =
  let c = { payload; pos = 0; limit = String.length payload } in
  let tag = get_u8 c in
  let id = get_u32 c in
  let reply = get_reply_body c tag in
  if c.pos <> String.length payload then fail "trailing bytes in reply";
  (id, reply)

let decode_reply_body ~tag body =
  let c = { payload = body; pos = 0; limit = String.length body } in
  let reply = get_reply_body c tag in
  if c.pos <> String.length body then fail "trailing bytes in reply";
  reply

(* ------------------------------------------------------------------ *)
(* Blocking frame IO (clients; the server reads through its own
   select-loop buffers). *)

(* A signal (SIGHUP asking for a reload, a profiler tick) must not turn
   into a torn frame, so every blocking call retries EINTR. *)
let rec read_retry fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

let write_sub fd b off len =
  let rec go off len =
    if len > 0 then begin
      let w =
        try Unix.write fd b off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + w) (len - w)
    end
  in
  go off len

let write_all fd s = write_sub fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* One write(2) straight out of the pooled buffer: no contents copy,
   and a batch of frames coalesced into the same Wbuf goes out as a
   single syscall / TCP segment train. *)
let write_wbuf fd b = write_sub fd (Wbuf.unsafe_data b) 0 (Wbuf.length b)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let r = read_retry fd buf off len in
      if r = 0 then fail "connection closed mid-frame";
      go (off + r) (len - r)
    end
  in
  go off len

let connect_retry fd addr =
  try Unix.connect fd addr with
  | Unix.Unix_error (Unix.EISCONN, _, _) -> ()
  | Unix.Unix_error (Unix.EINTR, _, _) ->
      (* POSIX: an interrupted connect completes asynchronously — wait
         for writability, then surface the real outcome. *)
      let rec wait () =
        match Unix.select [] [ fd ] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | _ -> ()
      in
      wait ();
      (match Unix.getsockopt_error fd with
      | Some err -> raise (Unix.Unix_error (err, "connect", ""))
      | None -> ())

let read_frame fd =
  let hdr = Bytes.create 4 in
  let first = read_retry fd hdr 0 4 in
  if first = 0 then None
  else begin
    if first < 4 then really_read fd hdr first (4 - first);
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffffffff in
    if len > max_frame then fail "frame length %d exceeds max_frame" len;
    let payload = Bytes.create len in
    really_read fd payload 0 len;
    Some (Bytes.unsafe_to_string payload)
  end

(* ------------------------------------------------------------------ *)
(* Minimal JSON: just what the fallback needs — objects, arrays,
   strings, numbers, booleans, null. No dependency on a JSON package. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let buf_escape b s =
    Buffer.add_char b '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let num_to_string v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let rec print b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num v -> Buffer.add_string b (num_to_string v)
    | Str s -> buf_escape b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            print b v)
          l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            buf_escape b k;
            Buffer.add_char b ':';
            print b v)
          l;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    print b v;
    Buffer.contents b

  (* parser *)

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos >= n || s.[!pos] <> c then fail "JSON: expected '%c' at %d" c !pos;
      advance ()
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail "JSON: bad literal at %d" !pos
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "JSON: unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          if !pos >= n then fail "JSON: unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "JSON: truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "JSON: bad \\u escape"
              in
              (* we only emit \u00XX for control bytes; decode the
                 low byte and refuse anything beyond latin-1 *)
              if code > 0xff then fail "JSON: \\u beyond 0xff unsupported";
              Buffer.add_char b (Char.chr code)
          | _ -> fail "JSON: bad escape '\\%c'" e);
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "JSON: bad number at %d" start
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "JSON: expected ',' or '}' at %d" !pos
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "JSON: expected ',' or ']' at %d" !pos
            in
            Arr (elems [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "JSON: empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "JSON: trailing garbage at %d" !pos;
    v

  let mem name = function
    | Obj fields -> List.assoc_opt name fields
    | _ -> None

  let num name j =
    match mem name j with
    | Some (Num v) -> v
    | _ -> fail "JSON: missing number field %S" name

  let str name j =
    match mem name j with
    | Some (Str v) -> v
    | _ -> fail "JSON: missing string field %S" name

  let int name j =
    let v = num name j in
    if Float.is_integer v then int_of_float v
    else fail "JSON: field %S is not an integer" name

  let int_default name d j =
    match mem name j with
    | None -> d
    | Some (Num v) when Float.is_integer v -> int_of_float v
    | Some _ -> fail "JSON: field %S is not an integer" name
end

let request_to_json { id; op } =
  let base = [ ("id", Json.Num (float_of_int id)) ] in
  let fields =
    match op with
    | Query { index; pattern; tau } ->
        base
        @ [
            ("op", Json.Str "query");
            ("index", Json.Num (float_of_int index));
            ("pattern", Json.Str pattern);
            ("tau", Json.Num tau);
          ]
    | Top_k { index; pattern; tau; k } ->
        base
        @ [
            ("op", Json.Str "top_k");
            ("index", Json.Num (float_of_int index));
            ("pattern", Json.Str pattern);
            ("tau", Json.Num tau);
            ("k", Json.Num (float_of_int k));
          ]
    | Listing { index; pattern; tau } ->
        base
        @ [
            ("op", Json.Str "listing");
            ("index", Json.Num (float_of_int index));
            ("pattern", Json.Str pattern);
            ("tau", Json.Num tau);
          ]
    | Stats -> base @ [ ("op", Json.Str "stats") ]
    | Ping -> base @ [ ("op", Json.Str "ping") ]
    | Slow ms ->
        base @ [ ("op", Json.Str "slow"); ("ms", Json.Num (float_of_int ms)) ]
    | Insert { index; doc } ->
        base
        @ [
            ("op", Json.Str "insert");
            ("index", Json.Num (float_of_int index));
            ("doc", Json.Str doc);
          ]
    | Delete { index; doc_id } ->
        base
        @ [
            ("op", Json.Str "delete");
            ("index", Json.Num (float_of_int index));
            ("doc_id", Json.Num (float_of_int doc_id));
          ]
    | Flush { index } ->
        base
        @ [ ("op", Json.Str "flush"); ("index", Json.Num (float_of_int index)) ]
  in
  Json.to_string (Json.Obj fields)

let request_of_json line =
  let j = Json.parse line in
  let id = Json.int_default "id" 0 j in
  let op =
    match Json.str "op" j with
    | "query" ->
        Query
          {
            index = Json.int_default "index" 0 j;
            pattern = Json.str "pattern" j;
            tau = Json.num "tau" j;
          }
    | "top_k" ->
        Top_k
          {
            index = Json.int_default "index" 0 j;
            pattern = Json.str "pattern" j;
            tau = Json.num "tau" j;
            k = Json.int "k" j;
          }
    | "listing" ->
        Listing
          {
            index = Json.int_default "index" 0 j;
            pattern = Json.str "pattern" j;
            tau = Json.num "tau" j;
          }
    | "stats" -> Stats
    | "ping" -> Ping
    | "slow" -> Slow (Json.int "ms" j)
    | "insert" ->
        Insert
          { index = Json.int_default "index" 0 j; doc = Json.str "doc" j }
    | "delete" ->
        Delete
          { index = Json.int_default "index" 0 j; doc_id = Json.int "doc_id" j }
    | "flush" -> Flush { index = Json.int_default "index" 0 j }
    | other -> fail "unknown op %S" other
  in
  { id; op }

let reply_to_json ~id reply =
  let id_field = ("id", Json.Num (float_of_int id)) in
  match reply with
  | Hits hits ->
      Json.to_string
        (Json.Obj
           [
             id_field;
             ( "hits",
               Json.Arr
                 (List.map
                    (fun (key, logp) ->
                      Json.Arr [ Json.Num (float_of_int key); Json.Num logp ])
                    hits) );
           ])
  | Error (e, msg) ->
      Json.to_string
        (Json.Obj
           [
             id_field;
             ("error", Json.Str (err_to_string e));
             ("message", Json.Str msg);
           ])
  | Stats_reply s ->
      (* splice the pre-rendered stats JSON verbatim *)
      let b = Buffer.create (String.length s + 32) in
      Buffer.add_string b "{\"id\":";
      Buffer.add_string b (Json.num_to_string (float_of_int id));
      Buffer.add_string b ",\"stats\":";
      Buffer.add_string b s;
      Buffer.add_char b '}';
      Buffer.contents b
  | Pong -> Json.to_string (Json.Obj [ id_field; ("pong", Json.Bool true) ])
  | Ack v ->
      Json.to_string (Json.Obj [ id_field; ("ack", Json.Num (float_of_int v)) ])

let reply_of_json line =
  let j = Json.parse line in
  let id = Json.int_default "id" 0 j in
  let reply =
    match Json.mem "hits" j with
    | Some (Json.Arr hits) ->
        Hits
          (List.map
             (function
               | Json.Arr [ Json.Num key; Json.Num logp ]
                 when Float.is_integer key ->
                   (int_of_float key, logp)
               | _ -> fail "bad hit element")
             hits)
    | Some _ -> fail "bad hits field"
    | None -> (
        match Json.mem "error" j with
        | Some (Json.Str e) -> (
            match err_of_string e with
            | Some err ->
                Error
                  ( err,
                    match Json.mem "message" j with
                    | Some (Json.Str m) -> m
                    | _ -> "" )
            | None -> fail "unknown error kind %S" e)
        | Some _ -> fail "bad error field"
        | None -> (
            match Json.mem "stats" j with
            | Some stats -> Stats_reply (Json.to_string stats)
            | None -> (
                match Json.mem "pong" j with
                | Some (Json.Bool true) -> Pong
                | _ -> (
                    match Json.mem "ack" j with
                    | Some (Json.Num v) when Float.is_integer v ->
                        Ack (int_of_float v)
                    | _ -> fail "unrecognized reply object"))))
  in
  (id, reply)
