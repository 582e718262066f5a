(* Tests for the Pti_epoll readiness set, run against BOTH backends
   (epoll and the poll fallback) on Linux so the fallback stays honest.
   The properties tested are exactly the contract the server's accept
   loop relies on: level-triggered re-reporting until drained, EOF and
   hang-up count as readable, writable interest (reported while the
   send buffer has room, silent once it is full), the non-blocking
   send, add/remove idempotence, timeouts, and no FD_SETSIZE ceiling
   (fds numbered beyond 1024 work). *)

module Ep = Pti_epoll

let backends =
  (Ep.Poll, "poll") :: (if Ep.epoll_available then [ (Ep.Epoll, "epoll") ] else [])

let with_set backend f =
  let t = Ep.create ~backend () in
  Fun.protect ~finally:(fun () -> Ep.close t) (fun () -> f t)

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let sorted fds = List.sort compare fds

let for_each_backend f () =
  List.iter (fun (b, name) -> f b name) backends

let test_empty_timeout b name =
  with_set b (fun t ->
      Alcotest.(check int) (name ^ ": empty set") 0 (Ep.nfds t);
      let t0 = Unix.gettimeofday () in
      Alcotest.(check (list int))
        (name ^ ": nothing ready")
        []
        (List.map Obj.magic (Ep.wait t ~timeout_ms:30));
      Alcotest.(check bool)
        (name ^ ": timeout respected")
        true
        (Unix.gettimeofday () -. t0 >= 0.02);
      (* zero timeout polls without blocking *)
      let t0 = Unix.gettimeofday () in
      ignore (Ep.wait t ~timeout_ms:0);
      Alcotest.(check bool)
        (name ^ ": zero timeout returns immediately")
        true
        (Unix.gettimeofday () -. t0 < 0.5))

let test_readiness b name =
  with_set b (fun t ->
      with_pipe (fun r w ->
          Ep.add t r;
          Alcotest.(check int) (name ^ ": one fd") 1 (Ep.nfds t);
          (* nothing written: not ready *)
          Alcotest.(check (list int)) (name ^ ": idle") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:0));
          let n = Unix.write_substring w "x" 0 1 in
          Alcotest.(check int) (name ^ ": wrote") 1 n;
          (* level-triggered: reported again and again until drained *)
          Alcotest.(check bool) (name ^ ": ready") true
            (Ep.wait t ~timeout_ms:100 = [ r ]);
          Alcotest.(check bool) (name ^ ": still ready (level)") true
            (Ep.wait t ~timeout_ms:0 = [ r ]);
          let buf = Bytes.create 8 in
          ignore (Unix.read r buf 0 8);
          Alcotest.(check (list int)) (name ^ ": drained") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:0))))

let test_eof_is_ready b name =
  (* a peer hang-up (EOF) must wake the loop so it can observe the
     zero-length read and reap the connection *)
  with_set b (fun t ->
      with_pipe (fun r w ->
          Ep.add t r;
          Unix.close w;
          Alcotest.(check bool) (name ^ ": EOF reported") true
            (Ep.wait t ~timeout_ms:100 = [ r ]);
          let buf = Bytes.create 1 in
          Alcotest.(check int) (name ^ ": read sees EOF") 0
            (Unix.read r buf 0 1)))

let test_add_remove_idempotent b name =
  with_set b (fun t ->
      with_pipe (fun r _w ->
          Ep.add t r;
          Ep.add t r;
          Alcotest.(check int) (name ^ ": double add counts once") 1 (Ep.nfds t);
          Ep.remove t r;
          Alcotest.(check int) (name ^ ": removed") 0 (Ep.nfds t);
          Ep.remove t r;
          Alcotest.(check int) (name ^ ": double remove is a no-op") 0
            (Ep.nfds t);
          (* a removed fd is never reported even when readable *)
          Alcotest.(check (list int)) (name ^ ": removed fd silent") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:0))))

let test_multiple_fds b name =
  with_set b (fun t ->
      with_pipe (fun r1 w1 ->
          with_pipe (fun r2 w2 ->
              with_pipe (fun r3 _w3 ->
                  Ep.add t r1;
                  Ep.add t r2;
                  Ep.add t r3;
                  ignore (Unix.write_substring w1 "a" 0 1);
                  ignore (Unix.write_substring w2 "b" 0 1);
                  Alcotest.(check bool)
                    (name ^ ": exactly the ready pair")
                    true
                    (sorted (Ep.wait t ~timeout_ms:100) = sorted [ r1; r2 ])))))

let test_beyond_fd_setsize b name =
  (* the whole point of leaving select: an fd numbered above
     FD_SETSIZE (1024) must be pollable. Burn fd numbers with dups
     until one lands past 1024; where the process fd limit is too low
     for that (EMFILE first), the environment can't express the
     scenario and the check is skipped. *)
  with_pipe (fun r w ->
      let dups = ref [] in
      let high = ref None in
      (try
         while !high = None && List.length !dups < 1100 do
           let d = Unix.dup r in
           dups := d :: !dups;
           if (Obj.magic d : int) > 1024 then high := Some d
         done
       with Unix.Unix_error _ -> ());
      let finish () =
        List.iter
          (fun d ->
            if Some d <> !high then
              try Unix.close d with Unix.Unix_error _ -> ())
          !dups
      in
      (* release the burnt fd numbers but keep the one high dup alive *)
      finish ();
      match !high with
      | None ->
          Printf.printf "%s: fd limit too low for a >1024 fd, skipping\n" name
      | Some d ->
          Fun.protect
            ~finally:(fun () -> try Unix.close d with Unix.Unix_error _ -> ())
            (fun () ->
              with_set b (fun t ->
                  Ep.add t d;
                  Alcotest.(check (list int)) (name ^ ": high fd idle") []
                    (List.map Obj.magic (Ep.wait t ~timeout_ms:0));
                  (* d dups the pipe's read end: writing to w readies it *)
                  ignore (Unix.write_substring w "z" 0 1);
                  Alcotest.(check bool) (name ^ ": high fd ready") true
                    (Ep.wait t ~timeout_ms:100 = [ d ]);
                  Ep.remove t d)))

let test_close_idempotent b name =
  let t = Ep.create ~backend:b () in
  with_pipe (fun r _w ->
      Ep.add t r;
      Ep.remove t r;
      Ep.close t;
      Ep.close t;
      Alcotest.(check int) (name ^ ": closed set is empty") 0 (Ep.nfds t))

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* Send until the socket refuses; returns the bytes it took. *)
let fill_socket fd =
  let chunk = Bytes.make 65536 'x' in
  let rec go acc =
    match Ep.send fd chunk 0 (Bytes.length chunk) with
    | -1 -> acc
    | n -> go (acc + n)
  in
  go 0

let drain_socket fd =
  let buf = Bytes.create 65536 in
  Unix.set_nonblock fd;
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  Unix.clear_nonblock fd

let test_writable b name =
  with_set b (fun t ->
      with_socketpair (fun a peer ->
          Ep.add t ~interest:Ep.Writable a;
          Alcotest.(check bool) (name ^ ": empty send buffer is writable") true
            (Ep.wait t ~timeout_ms:100 = [ a ]);
          Alcotest.(check bool) (name ^ ": still writable (level)") true
            (Ep.wait t ~timeout_ms:0 = [ a ]);
          (* a blocking socket: the send must still return, not block *)
          Alcotest.(check bool) (name ^ ": the socket took bytes") true
            (fill_socket a > 0);
          Alcotest.(check (list int)) (name ^ ": full send buffer is silent") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:20));
          drain_socket peer;
          Alcotest.(check bool) (name ^ ": writable again once drained") true
            (Ep.wait t ~timeout_ms:100 = [ a ]);
          (* back to readable: no input, so silent; then input wakes it *)
          Ep.set_interest t a Ep.Readable;
          Ep.set_interest t a Ep.Readable;
          Alcotest.(check int) (name ^ ": one member") 1 (Ep.nfds t);
          Alcotest.(check (list int)) (name ^ ": readable interest, no input") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:0));
          ignore (Unix.write_substring peer "q" 0 1);
          Alcotest.(check bool) (name ^ ": input reported") true
            (Ep.wait t ~timeout_ms:100 = [ a ]);
          (* interest of an absent fd: a no-op *)
          Ep.set_interest t peer Ep.Writable;
          Alcotest.(check int) (name ^ ": still one member") 1 (Ep.nfds t)))

let test_writable_hangup b name =
  (* a peer that hangs up must wake a writable-interest fd too, and the
     send then fails with an error instead of killing the process *)
  with_set b (fun t ->
      with_socketpair (fun a peer ->
          ignore (fill_socket a);
          Ep.add t ~interest:Ep.Writable a;
          Alcotest.(check (list int)) (name ^ ": full, peer alive") []
            (List.map Obj.magic (Ep.wait t ~timeout_ms:0));
          Unix.close peer;
          Alcotest.(check bool) (name ^ ": hang-up reported") true
            (Ep.wait t ~timeout_ms:100 = [ a ]);
          match Ep.send a (Bytes.of_string "x") 0 1 with
          | n -> Alcotest.failf "%s: send to a closed peer returned %d" name n
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              ()))

let test_default_backend () =
  let t = Ep.create () in
  Fun.protect
    ~finally:(fun () -> Ep.close t)
    (fun () ->
      (* Mirror the selection rule in Ep.create: epoll when available,
         unless PTI_FORCE_POLL overrides it (as in the CI fallback run). *)
      let want =
        if Ep.epoll_available && Sys.getenv_opt "PTI_FORCE_POLL" = None then
          Ep.Epoll
        else Ep.Poll
      in
      Alcotest.(check bool) "default backend" true (Ep.backend t = want);
      Alcotest.(check bool) "backend_name nonempty" true
        (String.length (Ep.backend_name t) > 0))

let () =
  Alcotest.run "pti_epoll"
    [
      ( "readiness",
        [
          Alcotest.test_case "empty set timeout" `Quick
            (for_each_backend test_empty_timeout);
          Alcotest.test_case "level-triggered readiness" `Quick
            (for_each_backend test_readiness);
          Alcotest.test_case "EOF counts as readable" `Quick
            (for_each_backend test_eof_is_ready);
          Alcotest.test_case "add/remove idempotent" `Quick
            (for_each_backend test_add_remove_idempotent);
          Alcotest.test_case "multiple fds" `Quick
            (for_each_backend test_multiple_fds);
          Alcotest.test_case "fds beyond FD_SETSIZE" `Quick
            (for_each_backend test_beyond_fd_setsize);
          Alcotest.test_case "close idempotent" `Quick
            (for_each_backend test_close_idempotent);
          Alcotest.test_case "writable interest" `Quick
            (for_each_backend test_writable);
          Alcotest.test_case "hang-up wakes a writable fd" `Quick
            (for_each_backend test_writable_hangup);
        ] );
      ( "selection",
        [ Alcotest.test_case "default backend" `Quick test_default_backend ] );
    ]
