(** Readiness polling for the serving daemon's accept loop.

    [Unix.select] caps fd numbers at [FD_SETSIZE] (1024), which forced
    the server to shed connections; this module wraps raw
    [epoll_create1]/[epoll_ctl]/[epoll_wait] on Linux, with a [poll(2)]
    fallback selected at build time on platforms without epoll (both
    backends compile wherever they exist, so Linux tests exercise the
    fallback too). Neither backend has an fd-number limit.

    Semantics shared by both backends:

    - {e level-triggered} readiness for one {!interest} per fd: a
      [Readable] fd with pending input (or EOF, error, or hang-up — the
      owner discovers which by reading) is reported from every {!wait}
      until drained; a [Writable] fd is reported while its send buffer
      has room (or on error or hang-up). This matches the previous
      select loop, so registered fds may stay blocking;
    - a wait interrupted by a signal ([EINTR]) returns the empty list,
      so OCaml signal handlers run between waits;
    - the set is owned by one thread (the accept loop); the module does
      no locking.

    Not thread-safe. *)

type backend = Epoll | Poll

type interest =
  | Readable
  | Writable
      (** Report the fd when a send would not block — the server
          watches a connection this way, instead of reading it, while
          it holds reply bytes the socket did not take. *)

val epoll_available : bool
(** Whether this build carries the epoll backend (Linux). *)

type t

val create : ?backend:backend -> unit -> t
(** New empty readiness set. Default backend: [Epoll] when
    {!epoll_available} (overridable with the [PTI_FORCE_POLL]
    environment variable, any value), else [Poll]. Raises
    [Invalid_argument] if [Epoll] is requested where unavailable. *)

val backend : t -> backend
val backend_name : t -> string

val add : t -> ?interest:interest -> Unix.file_descr -> unit
(** Register [fd] with [interest] (default [Readable]). Adding an fd
    already in the set is a no-op. Raises [Failure] when registration fails (fd limit,
    memory) — the caller sheds that connection rather than crashing the
    loop. *)

val set_interest : t -> Unix.file_descr -> interest -> unit
(** Switch a registered fd's interest; a no-op when [fd] is absent or
    already has it. Raises [Failure] if the backend refuses. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister; idempotent (removing an absent fd is a no-op). Must be
    called {e before} the fd is closed. *)

val nfds : t -> int
(** Number of registered fds. *)

val wait : t -> timeout_ms:int -> Unix.file_descr list
(** Fds currently ready for their interest (or at EOF/error/hang-up),
    blocking up to
    [timeout_ms] milliseconds ([0] polls, [-1] waits indefinitely).
    Empty on timeout or [EINTR]. *)

val send : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [send fd buf off len] is one [send(2)] with [MSG_DONTWAIT] (and
    [MSG_NOSIGNAL] where it exists), so it never blocks even on a
    blocking socket: the bytes the kernel took, or [-1] when the send
    buffer is full. Retries [EINTR]; other errors raise
    [Unix.Unix_error]. Independent of any readiness set. *)

val close : t -> unit
(** Release the backend (the epoll fd); the set becomes empty.
    Idempotent. Registered fds are {e not} closed. *)
