(** Wire protocol of the query-serving daemon (DESIGN.md §10).

    Two encodings share one request/reply model:

    - {b binary} (the default): each message is a frame — a 4-byte
      big-endian payload length followed by the payload. Integers are
      big-endian fixed width, floats are IEEE-754 doubles sent as their
      raw 64-bit pattern (lossless: a hit's log-probability decodes to
      the exact float the engine computed, so clients can compare
      responses bit-for-bit against direct {!Pti_core.Engine.query}
      calls);
    - {b newline-delimited JSON} (the debuggability fallback): one
      request or reply object per line. A connection whose first byte is
      ['{'] speaks JSON for its whole lifetime; anything else is binary.

    Replies carry the request's [id] back, so a client may pipeline
    requests on one connection and match replies out of order. *)

(** Raised by decoders on malformed input (truncated payload, unknown
    tag, oversized frame, invalid JSON). *)
exception Protocol_error of string

type op =
  | Query of { index : int; pattern : string; tau : float }
      (** Threshold query: every key above [tau] (Problem 1 on substring
          indexes, Problem 2 on listing indexes). *)
  | Top_k of { index : int; pattern : string; tau : float; k : int }
      (** The [k] most probable answers above [tau] (§7 top-k). *)
  | Listing of { index : int; pattern : string; tau : float }
      (** Like [Query] but only valid on a listing index — a kind
          mismatch is a [Bad_request] reply, never a silent fallback. *)
  | Stats  (** The server's metrics registry as JSON. *)
  | Ping
  | Slow of int
      (** Debug: hold a worker for this many milliseconds. Refused
          unless the server enables it; exists so tests and the bench
          can provoke queue overload and deadline expiry
          deterministically. *)
  | Insert of { index : int; doc : string }
      (** Add a document (compact {!Pti_ustring.Ustring.parse} text,
          ≤ 65535 bytes) to a dynamic corpus index; replied with
          [Ack doc_id]. A [Bad_request] on static (file-backed)
          indexes or malformed documents. *)
  | Delete of { index : int; doc_id : int }
      (** Tombstone a document of a dynamic corpus; [Ack 1] if it was
          live, [Ack 0] if unknown or already dead. *)
  | Flush of { index : int }
      (** Seal the corpus memtable into an immutable segment; replied
          with [Ack generation] (the post-seal manifest generation). *)

type request = { id : int; op : op }

type err =
  | Bad_request  (** Malformed frame, τ < τ_min, bad pattern, kind
                     mismatch. *)
  | Bad_index  (** Unknown index id, or the file failed to load. *)
  | Overloaded  (** The bounded request queue was full — explicit
                    backpressure, the client should back off. *)
  | Timeout  (** The request's deadline expired while it was queued. *)
  | Server_error
  | Shutting_down
      (** The server received SIGTERM and is draining: requests already
          queued still complete (within the drain window), new ones get
          this typed refusal so clients fail over instead of hanging. *)

type reply =
  | Hits of (int * float) list
      (** (key, log-probability) pairs, most probable first — keys are
          positions (substring index) or document ids (listing index). *)
  | Error of err * string
  | Stats_reply of string  (** JSON text. *)
  | Pong
  | Ack of int
      (** Mutation acknowledged: the new doc id ([Insert]), 0/1
          ([Delete]), or the manifest generation ([Flush]). *)

val err_to_string : err -> string
val err_of_string : string -> err option

val op_kind : op -> string
(** Short label for metrics/logging: "query", "top_k", "listing",
    "stats", "ping", "slow", "insert", "delete", "flush". *)

val max_frame : int
(** Upper bound on a payload length (16 MiB); longer frames are a
    {!Protocol_error} on both ends. *)

val max_json_line : int
(** Upper bound on a JSON line (1 MiB). The server closes a JSON
    connection whose pending input exceeds this without a newline —
    the line-framed fallback must not become an unbounded buffer. *)

(** {2 Pooled frame writing}

    A {!Wbuf.t} is a growable byte buffer meant to be {e reused}: reset
    it, append one or more frames, write it out, repeat. After the
    first few messages it reaches its high-water mark and encoding
    through it allocates nothing — the server keeps one per connection
    (its write buffer) and the load generator one per client, so the
    steady-state hot path encodes with zero fresh heap blocks.
    Multiple frames appended between resets coalesce into a single
    {!write_wbuf} syscall. *)

module Wbuf : sig
  type t

  val create : int -> t
  (** Initial capacity hint (grows by doubling, never shrinks). *)

  val reset : t -> unit
  (** Forget the contents, keep the storage. *)

  val length : t -> int

  val add_string : t -> string -> unit
  (** Append raw bytes (the JSON fallback writes its lines through the
      same pooled buffer). *)

  val contents : t -> string
  (** Copy out the contents (allocates; the pooled write path uses
      {!write_wbuf} instead). *)

  val unsafe_data : t -> Bytes.t
  (** The backing store itself, no copy: bytes [[0, length)] are the
      contents, valid until the next append or {!reset}. *)
end

(** {2 Binary encoding} *)

val encode_request : request -> string
(** The full frame, header included. *)

val encode_request_into : Wbuf.t -> request -> unit
(** Append the full frame to the buffer; the bytes appended are exactly
    [encode_request req]. *)

val decode_request : string -> request
(** Decode a frame payload (header already stripped). *)

val decode_request_sub : string -> pos:int -> len:int -> request
(** Decode a frame payload sitting at [pos, pos+len) of a larger
    buffer — the server's zero-copy read path, which parses frames in
    place out of the per-connection read buffer instead of slicing a
    string per frame. Field strings (patterns) are still copied out. *)

val encode_reply : id:int -> reply -> string
val encode_reply_into : Wbuf.t -> id:int -> reply -> unit
val decode_reply : string -> int * reply

val reply_tag : reply -> int
(** The wire tag this reply encodes under. *)

val encode_reply_body : reply -> string
(** The payload {e after} the (tag, id) prefix — what the result cache
    stores, id-independent and shareable across requests. *)

val decode_reply_body : tag:int -> string -> reply
(** Inverse of {!encode_reply_body} for a reply of wire tag [tag]: how
    a JSON-fallback connection reads a cached body. *)

val encode_cached_reply_into : Wbuf.t -> id:int -> tag:int -> body:string -> unit
(** Append a frame made of a fresh (tag, id) prefix and a cached body.
    For any [reply], [encode_cached_reply_into b ~id
    ~tag:(reply_tag reply) ~body:(encode_reply_body reply)] appends
    exactly the bytes of [encode_reply ~id reply] — the identity the
    cache's byte-for-byte guarantee rests on (tested). *)

(** {2 Blocking frame IO (client side)}

    All blocking calls retry [EINTR] internally: a signal delivered to
    a client (or to a test harness forking children) never tears a
    frame. *)

val write_all : Unix.file_descr -> string -> unit

val write_sub : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_sub fd b off len] writes [b[off, off+len)] in full. *)

val write_wbuf : Unix.file_descr -> Wbuf.t -> unit
(** Write the buffer's contents straight from its backing store —
    no copy, one [write(2)] when the kernel accepts it whole. *)

val read_frame : Unix.file_descr -> string option
(** Read one frame payload; [None] on a clean EOF at a frame boundary.
    Raises {!Protocol_error} on a truncated frame or oversized length. *)

val connect_retry : Unix.file_descr -> Unix.sockaddr -> unit
(** [Unix.connect] with correct [EINTR] handling: an interrupted
    connect keeps completing in the background, so this waits for
    writability and reports the socket's real error (or success)
    instead of retrying the syscall, which would fail spuriously. *)

(** {2 JSON encoding}

    Requests: [{"id":1,"op":"query","index":0,"pattern":"AB","tau":0.2}]
    (plus ["k"] for top_k, ["ms"] for slow). Replies:
    [{"id":1,"hits":[[pos,logp],...]}], [{"id":1,"error":"timeout",
    "message":"..."}], [{"id":1,"stats":{...}}], [{"id":1,"pong":true}].
    Floats print with enough digits to round-trip exactly. *)

val request_to_json : request -> string
(** One line, newline {e not} included. *)

val request_of_json : string -> request
val reply_to_json : id:int -> reply -> string
val reply_of_json : string -> int * reply
