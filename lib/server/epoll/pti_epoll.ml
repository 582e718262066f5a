(* Readiness polling over raw epoll/poll stubs; see the mli. *)

type backend = Epoll | Poll
type interest = Readable | Writable

external raw_available : unit -> bool = "pti_epoll_available"
external raw_create : unit -> int = "pti_epoll_create"

(* [modify]: false adds, true changes the interest of a member *)
external raw_ctl : int -> int -> bool -> bool -> unit = "pti_epoll_ctl"
external raw_del : int -> int -> unit = "pti_epoll_del"

external raw_wait : int -> int -> int -> Unix.file_descr array
  = "pti_epoll_wait_stub"

external raw_poll : int array -> int array -> int -> Unix.file_descr array
  = "pti_poll_stub"

external send : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "pti_send_nonblock"

let epoll_available = raw_available ()

(* [Unix.file_descr] is an int on every POSIX OCaml port, and these
   stubs are POSIX-only; the conversion never escapes this module. *)
let int_of_fd : Unix.file_descr -> int = Obj.magic
let fd_of_int : int -> Unix.file_descr = Obj.magic

type state =
  | Ep of {
      epfd : int;
      mutable closed : bool;
      (* membership mirror: keeps nfds exact and makes double-add /
         double-remove true no-ops at the OCaml layer *)
      members : (int, interest) Hashtbl.t;
    }
  | Pl of {
      fds : (int, interest) Hashtbl.t;
      (* (fds, interests) snapshot handed to poll(2); rebuilt only when
         membership or an interest changes, so a stable set costs
         nothing per wait *)
      mutable snapshot : (int array * int array) option;
    }

type t = { mutable nfds : int; st : state }

let default_backend () =
  if epoll_available && Sys.getenv_opt "PTI_FORCE_POLL" = None then Epoll
  else Poll

let create ?backend () =
  match
    match backend with Some b -> b | None -> default_backend ()
  with
  | Epoll ->
      if not epoll_available then
        invalid_arg "Pti_epoll.create: epoll unavailable on this platform";
      {
        nfds = 0;
        st =
          Ep
            {
              epfd = raw_create ();
              closed = false;
              members = Hashtbl.create 64;
            };
      }
  | Poll -> { nfds = 0; st = Pl { fds = Hashtbl.create 64; snapshot = None } }

let backend t = match t.st with Ep _ -> Epoll | Pl _ -> Poll
let backend_name t = match t.st with Ep _ -> "epoll" | Pl _ -> "poll"
let nfds t = t.nfds

let add t ?(interest = Readable) fd =
  let fd = int_of_fd fd in
  match t.st with
  | Ep e ->
      if not (Hashtbl.mem e.members fd) then begin
        raw_ctl e.epfd fd (interest = Writable) false;
        Hashtbl.replace e.members fd interest;
        t.nfds <- t.nfds + 1
      end
  | Pl p ->
      if not (Hashtbl.mem p.fds fd) then begin
        Hashtbl.replace p.fds fd interest;
        p.snapshot <- None;
        t.nfds <- t.nfds + 1
      end

let set_interest t fd interest =
  let fd = int_of_fd fd in
  match t.st with
  | Ep e -> (
      match Hashtbl.find_opt e.members fd with
      | Some i when i <> interest ->
          raw_ctl e.epfd fd (interest = Writable) true;
          Hashtbl.replace e.members fd interest
      | _ -> ())
  | Pl p -> (
      match Hashtbl.find_opt p.fds fd with
      | Some i when i <> interest ->
          Hashtbl.replace p.fds fd interest;
          p.snapshot <- None
      | _ -> ())

let remove t fd =
  let fd = int_of_fd fd in
  match t.st with
  | Ep e ->
      if Hashtbl.mem e.members fd then begin
        raw_del e.epfd fd;
        Hashtbl.remove e.members fd;
        t.nfds <- t.nfds - 1
      end
  | Pl p ->
      if Hashtbl.mem p.fds fd then begin
        Hashtbl.remove p.fds fd;
        p.snapshot <- None;
        t.nfds <- t.nfds - 1
      end

let wait t ~timeout_ms =
  match t.st with
  | Ep e ->
      let max_events = Stdlib.max 64 (Stdlib.min (t.nfds + 1) 4096) in
      Array.to_list (raw_wait e.epfd timeout_ms max_events)
  | Pl p ->
      let fds, writes =
        match p.snapshot with
        | Some s -> s
        | None ->
            let n = Hashtbl.length p.fds in
            let fds = Array.make n 0 and writes = Array.make n 0 in
            let i = ref 0 in
            Hashtbl.iter
              (fun fd interest ->
                fds.(!i) <- fd;
                writes.(!i) <- (if interest = Writable then 1 else 0);
                incr i)
              p.fds;
            p.snapshot <- Some (fds, writes);
            (fds, writes)
      in
      Array.to_list (raw_poll fds writes timeout_ms)

let close t =
  match t.st with
  | Ep e ->
      if not e.closed then begin
        e.closed <- true;
        Hashtbl.reset e.members;
        t.nfds <- 0;
        try Unix.close (fd_of_int e.epfd) with Unix.Unix_error _ -> ()
      end
  | Pl p ->
      Hashtbl.reset p.fds;
      p.snapshot <- None;
      t.nfds <- 0
